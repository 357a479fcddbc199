"""Command line behaviour: exit codes, reports, CSV output."""

import csv
import json
import logging

import pytest

from funnel_sqp.cli import (COMBOS, CSV_FIELDS, _make_config, _metric_value,
                            build_report, main, make_parser,
                            performance_profile)
from funnel_sqp.config import FunnelParams, SolverConfig, apply_overrides
from funnel_sqp.driver import solve
from funnel_sqp.problems import get_problem

MODEL_SRC = """\
var x1 start 0;
var x2 start 0;
minimize x1^2 + x2^2;
subject_to x1 + x2 == 1;
"""

REPORT_KEYS = {"schema_version", "problem", "strategy", "mechanism", "tol",
               "status", "success", "n_outer", "n_inner", "f", "h", "x",
               "lam", "mu", "counters", "step_counts", "events",
               "qp_pivots", "warm_start_hits", "warm_start_misses",
               "error_kind", "message"}


@pytest.fixture(autouse=True)
def _fresh_logging():
    # main() sets the package logger level from FUNNEL_SQP_LOG; restore it
    # so later tests see the default again
    pkg = logging.getLogger("funnel_sqp")
    saved = pkg.level
    yield
    pkg.setLevel(saved)


class TestParser:
    def test_subcommands(self):
        parser = make_parser()
        args = parser.parse_args(["run", "--problem", "circle"])
        assert args.command == "run"
        assert args.strategy == "funnel"
        assert args.mechanism == "trust-region"
        args = parser.parse_args(["compare", "--problems", "circle", "hs6"])
        assert args.problems == ["circle", "hs6"]
        args = parser.parse_args(["profile", "--metric", "evals"])
        assert args.metric == "evals"

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["run", "--strategy", "penalty"])


class TestOverrides:
    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("TRUE", True), (" 1 ", True), ("Yes", True),
        ("on", True), ("false", False), ("0", False), ("NO", False),
        ("Off", False)])
    def test_bool_spellings(self, raw, value):
        cfg = apply_overrides(SolverConfig(funnel=FunnelParams(
            gould_update=not value)), {"funnel.gould_update": raw})
        assert cfg.funnel.gould_update is value

    @pytest.mark.parametrize("raw", ["ture", "", "2", "y", "enabled"])
    def test_unknown_bool_spelling_raises(self, raw):
        with pytest.raises(ValueError, match="gould_update"):
            apply_overrides(SolverConfig(), {"funnel.gould_update": raw})


class TestRun:
    def test_success_exit_zero(self, capsys):
        assert main(["run", "--problem", "circle"]) == 0
        out = capsys.readouterr().out
        assert "radius" in out
        assert "status: kkt_point" in out
        assert "eps-optimal" in out

    def test_line_search_trace(self, capsys):
        assert main(["run", "--problem", "circle",
                     "--mechanism", "line-search"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "reg" in out

    def test_failure_exit_one(self):
        assert main(["run", "--problem", "unbounded-cubic"]) == 1

    def test_unknown_problem_exit_two(self):
        assert main(["run", "--problem", "no-such-problem"]) == 2

    def test_missing_problem_exit_two(self):
        assert main(["run"]) == 2

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.nco"
        bad.write_text("var ;;;\n")
        assert main(["run", "--model", str(bad)]) == 2

    def test_missing_model_file_exit_two(self, tmp_path):
        assert main(["run", "--model", str(tmp_path / "absent.nco")]) == 2

    def test_bad_seed_params_exit_two(self):
        assert main(["run", "--problem", "circle",
                     "--seed-params", "tol"]) == 2
        assert main(["run", "--problem", "circle",
                     "--seed-params", "nope.key=1"]) == 2

    def test_model_file(self, tmp_path, capsys):
        model = tmp_path / "line.nco"
        model.write_text(MODEL_SRC)
        assert main(["run", "--model", str(model)]) == 0
        assert "status: kkt_point" in capsys.readouterr().out

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", "--problem", "circle",
                     "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == REPORT_KEYS
        assert report["schema_version"] == 1
        assert report["problem"] == "circle"
        assert report["status"] == "kkt_point"
        assert report["success"] is True
        assert report["error_kind"] is None
        assert len(report["x"]) == 2
        assert report["counters"]["n_f"] > 0
        assert report["step_counts"] == {"f_type": 0, "h_type": 1,
                                         "restoration": 0, "kkt_zero": 0}

    def test_json_report_model_named_by_stem(self, tmp_path):
        model = tmp_path / "line.nco"
        model.write_text(MODEL_SRC)
        out = tmp_path / "r.json"
        assert main(["run", "--model", str(model),
                     "--json", str(out)]) == 0
        assert json.loads(out.read_text())["problem"] == "line"

    def test_seed_params_reach_solver(self, capsys):
        assert main(["run", "--problem", "maratos-fletcher", "--seed-params",
                     "trust_region.delta_init=0.125"]) == 0
        out = capsys.readouterr().out
        assert "1.25e-01" in out.splitlines()[3]

    def test_max_iter_flag(self):
        assert main(["run", "--problem", "hs26", "--max-iter", "2"]) == 1

    def test_tol_flag(self, tmp_path):
        argv = ["run", "--problem", "hs26", "--tol", "1e-3"]
        assert _make_config(make_parser().parse_args(argv)).tol == 1e-3
        out = tmp_path / "r.json"
        assert main(argv + ["--json", str(out)]) == 0
        loose = json.loads(out.read_text())
        assert main(["run", "--problem", "hs26", "--json", str(out)]) == 0
        default = json.loads(out.read_text())
        assert (loose["tol"], default["tol"]) == (1e-3, SolverConfig().tol)
        assert loose["n_outer"] < default["n_outer"]

    def test_gould_update_seed_param(self):
        argv = ["run", "--problem", "powellbs",
                "--seed-params", "funnel.gould_update=true"]
        assert _make_config(make_parser().parse_args(argv)).funnel.gould_update
        assert main(argv) == 0

    def test_misspelt_bool_seed_param_exit_two(self):
        assert main(["run", "--problem", "circle",
                     "--seed-params", "funnel.gould_update=ture"]) == 2

    @pytest.mark.parametrize("flag", [["--csv", "x"], ["--gould-update"]])
    def test_unknown_run_flag_exit_two(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "circle", *flag])
        assert exc.value.code == 2

    def test_quiet_log_suppresses_trace(self, capsys, monkeypatch):
        monkeypatch.setenv("FUNNEL_SQP_LOG", "quiet")
        assert main(["run", "--problem", "circle"]) == 0
        assert "status:" not in capsys.readouterr().out


class TestCompare:
    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        names = ["circle", "bounded-lp", "maratos-fletcher"]
        assert main(["compare", "--problems", *names,
                     "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(names) * len(COMBOS)
        assert list(rows[0]) == CSV_FIELDS
        combos_seen = {(r["strategy"], r["mechanism"]) for r in rows}
        assert combos_seen == set(COMBOS)
        for row in rows:
            assert row["problem"] in names
            assert row["success"] in ("0", "1")
            float(row["f"])
            assert float(row["h"]) >= 0.0
            assert int(row["n_outer"]) >= 0
            assert int(row["n_inner"]) >= int(row["n_outer"])
        assert "wrote" in capsys.readouterr().out

    def test_statuses_recorded(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--problems", "infeasible-quadratic",
                     "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["status"] == "infeasible_stationary" for r in rows)


class TestProfile:
    def _rows(self, tmp_path, extra=()):
        out = tmp_path / "prof.csv"
        names = ["circle", "bounded-lp", "hs6"]
        code = main(["profile", "--problems", *names,
                     "--csv", str(out), *extra])
        assert code == 0
        with open(out, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_csv_schema_and_monotone(self, tmp_path):
        rows = self._rows(tmp_path)
        assert list(rows[0]) == ["solver", "alpha", "fraction"]
        solvers = {r["solver"] for r in rows}
        assert solvers == {f"{s}+{m}" for s, m in COMBOS}
        for solver in solvers:
            pts = [(float(r["alpha"]), float(r["fraction"]))
                   for r in rows if r["solver"] == solver]
            assert pts[0][0] == 1.0
            assert all(a2 >= a1 for (a1, _), (a2, _) in zip(pts, pts[1:]))
            assert all(f2 >= f1 for (_, f1), (_, f2) in zip(pts, pts[1:]))
            assert all(0.0 <= f <= 1.0 for _, f in pts)
            # easy subset: every combo solves everything eventually
            assert pts[-1][1] == 1.0

    def test_evals_metric(self, tmp_path):
        rows = self._rows(tmp_path, extra=("--metric", "evals"))
        assert {r["solver"] for r in rows} == \
            {f"{s}+{m}" for s, m in COMBOS}

    def test_gradients_metric(self, tmp_path):
        rows = self._rows(tmp_path, extra=("--metric", "gradients"))
        assert {r["solver"] for r in rows} == \
            {f"{s}+{m}" for s, m in COMBOS}
        res = solve(get_problem("hs6"), SolverConfig())
        cnt = res.counters.as_dict()
        assert _metric_value(res, "gradients") == \
            cnt["n_grad_f"] + cnt["n_jac_c"] > 1


class TestProfileMath:
    def test_hand_case(self):
        profiles = performance_profile({"a": [1.0, 2.0], "b": [2.0, None]})
        assert profiles["a"][-1] == (2.0, 1.0)
        assert profiles["a"][0] == (1.0, 1.0)
        assert profiles["b"][0] == (1.0, 0.0)
        assert profiles["b"][-1] == (2.0, 0.5)

    def test_all_failures(self):
        profiles = performance_profile({"a": [None], "b": [None]})
        assert profiles["a"] == [(1.0, 0.0)]
        assert profiles["b"] == [(1.0, 0.0)]

    def test_empty(self):
        assert performance_profile({}) == {}


class TestReport:
    def test_build_report_error_run(self):
        config = SolverConfig()
        result = solve(get_problem("hs26"),
                       SolverConfig(max_outer=1).validated())
        report = build_report(result, config)
        assert set(report) == REPORT_KEYS
        assert report["status"] == "max_iterations"
        assert report["success"] is False
        assert json.dumps(report)

    def test_events_serializable(self):
        result = solve(get_problem("line-circle"), SolverConfig().validated())
        report = build_report(result, SolverConfig())
        text = json.dumps(report)
        assert "restoration_entry" in text
        assert "restoration_exit" in text

    def test_qp_totals_sum_the_records(self):
        result = solve(get_problem("line-circle"), SolverConfig().validated())
        report = build_report(result, SolverConfig())
        rows = result.iterations
        assert report["qp_pivots"] == sum(r.qp_pivots or 0 for r in rows)
        assert report["warm_start_hits"] == sum(
            r.warm_start == "hit" for r in rows)
        assert report["warm_start_misses"] == sum(
            r.warm_start == "miss" for r in rows)
        # restoration continues from phase 1's LP and then from each
        # elastic QP before it
        assert report["warm_start_hits"] > 40
        assert report["qp_pivots"] > 0
