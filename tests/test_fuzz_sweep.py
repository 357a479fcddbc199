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
