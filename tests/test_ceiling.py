"""scripts/ceiling.py at n=24: each workload under both mechanisms, one
subprocess per solve, one row each."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ceiling", Path(__file__).resolve().parents[1] / "scripts" / "ceiling.py")
ceiling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ceiling)


def test_sweep_at_n24(capsys):
    ceiling.main(["--n", "24"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == list(ceiling.COLUMNS)
    rows = [dict(zip(ceiling.COLUMNS, line.split())) for line in rows]
    assert [(r["workload"], r["n"], r["mechanism"]) for r in rows] == [
        (w, "24", m) for w in ("nco", "bounded") for m in ceiling.MECHANISMS]
    for r in rows:
        assert r["status"] == "kkt_point"
        assert int(r["outer"]) > 0 and float(r["solve_s"]) > 0.0
        assert float(r["peak_rss_mb"]) > 10.0
    # every bound of the bounded chain is an upper bound at 1, and its QPs
    # pivot onto them; the unbounded .nco chain's QPs need no pivot
    assert all(int(r["pivots"]) > 0 for r in rows
               if r["workload"] == "bounded")
