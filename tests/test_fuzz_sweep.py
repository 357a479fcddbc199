"""scripts/fuzz_sweep.py on its first three models: one outcome line per
solve in model and variant order, then the class counts."""

import collections
import importlib.util
from pathlib import Path

import numpy as np

from funnel_sqp.config import SolverConfig
from funnel_sqp.driver import solve
from funnel_sqp.dsl import load_source
from test_acceptance import _random_model_source

_spec = importlib.util.spec_from_file_location(
    "fuzz_sweep",
    Path(__file__).resolve().parents[1] / "scripts" / "fuzz_sweep.py")
fuzz_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz_sweep)


def _class(line):
    """status, or status/error_kind, of an outcome line."""
    status, kind = line.split()[:2]
    return status if kind == "None" else f"{status}/{kind[1:-1]}"


def test_three_models(capsys):
    fuzz_sweep.main(["--models", "3"])
    lines = capsys.readouterr().out.splitlines()
    solves, classes = lines[:12], lines[12:]
    assert [line.split("  ")[-1] for line in solves] == [
        f"fuzz-{i} {strategy} {mechanism}" for i in range(3)
        for strategy, mechanism in fuzz_sweep.VARIANTS]
    counts = {name: int(n) for n, name in (line.split() for line in classes)}
    assert counts == collections.Counter(map(_class, solves))
    # model 0 is the generator's first draw from the default seed
    source = _random_model_source(np.random.default_rng(7007))
    res = solve(load_source(source, name="fuzz-0"),
                SolverConfig(max_outer=300))
    assert solves[0] == f"{fuzz_sweep.outcome(res)}  fuzz-0 funnel trust-region"


def test_certify_three_models(capsys):
    fuzz_sweep.main(["--models", "3", "--certify"])
    lines = capsys.readouterr().out.splitlines()
    solves = lines[:12]
    worst = [line for line in lines[12:] if line.startswith("worst ")]
    classes = collections.Counter(map(_class, solves))
    assert len(lines) == 12 + len(classes) + len(worst)
    # the same outcome lines as without --certify
    fuzz_sweep.main(["--models", "3"])
    assert capsys.readouterr().out.splitlines() == lines[:-len(worst)]
    certified = [s for s in sorted(classes) if s in fuzz_sweep.CERTIFICATES]
    assert certified == ["infeasible_stationary", "kkt_point"]
    assert [line.split()[1] for line in worst] == \
        [fuzz_sweep.CERTIFICATES[s][0] for s in certified]
    rng = np.random.default_rng(7007)
    sources = [_random_model_source(rng) for _ in range(3)]
    for line, status in zip(worst, certified):
        head, label = line[:-1].split("  (")
        value, count = float(head.split()[2]), int(head.split()[4])
        assert count == classes[status]
        assert value <= (1e-6 if status == "kkt_point" else 0.01)
        # the worst value is the certificate of the solve it names
        i, strategy, mechanism = label.split()
        problem = load_source(sources[int(i[5:])], name=i)
        res = solve(problem, SolverConfig(strategy=strategy,
                                          mechanism=mechanism,
                                          max_outer=300))
        assert res.status == status
        assert f"{fuzz_sweep.CERTIFICATES[status][1](problem, res):.3e}" \
            == head.split()[2]


def test_nudge_three_models(capsys):
    fuzz_sweep.main(["--models", "3"])
    plain = capsys.readouterr().out.splitlines()
    fuzz_sweep.main(["--models", "3", "--nudge"])
    lines = capsys.readouterr().out.splitlines()
    # the x0 solves and their class counts come first, as without --nudge
    assert lines[:len(plain)] == plain
    tail = lines[len(plain):]
    stable = {line.split()[2]: int(line.split()[0]) for line in tail
              if line.split()[1:2] == ["stable"]}
    unstable = [line for line in tail if line.startswith("unstable ")]
    if not unstable:
        assert tail[-1] == "no unstable solves"
        unstable_lines = 1
    else:
        unstable_lines = len(unstable)
    assert len(tail) == len(stable) + unstable_lines
    assert sum(stable.values()) + len(unstable) == 12
    # a stable class holds at x0, so its count is at most the x0 count
    counts = {name: int(n) for n, name in
              (line.split() for line in plain[12:])}
    assert all(stable[name] <= counts[name] for name in stable)


def test_nudged_start_moves_one_ulp():
    source = _random_model_source(np.random.default_rng(7007))
    problem = load_source(source, name="fuzz-0")
    up = fuzz_sweep.nudged(problem, np.inf)
    down = fuzz_sweep.nudged(problem, -np.inf)
    x0 = np.asarray(problem.x0, dtype=float)
    assert (up.x0 > x0).all() and (down.x0 < x0).all()
    assert np.array_equal(np.nextafter(down.x0, np.inf), x0)
    assert np.array_equal(np.nextafter(up.x0, -np.inf), x0)
    assert up.f is problem.f and up.c is problem.c
