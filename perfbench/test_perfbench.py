"""Fast tests of the benchmark harness itself.

    python3 -m pytest perfbench

Each workload runs in smoke mode (a few operations, the fewest passes), plain
and traced; the checks must catch a wrong result; the tracer must leave every
reconkit name as it found it; and the benchmark must refuse to run without
the reconkit sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _off_by_one(values):
    return values[:-1] + [values[-1] + 1]


@pytest.mark.parametrize("workload, key, tamper", [
    ("recon", "charpoly", _off_by_one),
    ("build", "canonical", lambda rows: rows[:-1] + [_off_by_one(rows[-1])]),
    ("decks", "polydeck", _off_by_one),
])
def test_checks_catch_a_wrong_result(workload, key, tamper):
    inputs, op, check = workloads.WORKLOADS[workload]
    g6 = inputs(5, 0, 2)[-1]
    result = op(g6)
    assert check(g6, result) == []
    assert check(g6, dict(result, **{key: tamper(result[key])})) != []


def test_build_check_catches_a_canonical_form_that_depends_on_the_row_order(monkeypatch):
    g6 = workloads.build_inputs(5, 0, 4)[-1]
    assert workloads.build_check(g6, workloads.build_op(g6)) == []
    monkeypatch.setattr(workloads.deck, "canonical_nmatrix",
                        lambda nm: workloads.deck.NMatrix(nm.rows))
    assert workloads.build_check(g6, workloads.build_op(g6)) != []


def test_sweep_check_flags_failed_checks_but_not_candidates():
    assert workloads.sweep_check("Bw", {"nrecon": [], "elp-aut": ["candidate"]}) == []
    assert workloads.sweep_check("Bw", {"nrecon": ["ham mismatch"]}) != []


def test_a_raising_sweep_job_is_reported_and_the_sweep_goes_on():
    seen = []

    def on_graph(g6, run):
        seen.append(g6)
        return None if len(seen) == 1 else run()

    code, report = workloads.sweep_pass(on_graph, 3)
    assert len(seen) == report["graphs"] > 1
    assert code == 1 and report["ok"] is False
    assert workloads.sweep_report_check(code, report) != []


def test_stored_digests_cover_the_default_seed():
    import record
    import run
    stored = json.loads((HERE / "digests.json").read_text())
    for name in ("recon", "build", "decks"):
        inputs = workloads.WORKLOADS[name][0]
        wanted = {g6 for chunk in range(record.STORED_CHUNKS)
                  for g6 in inputs(record.DEFAULT_SEED, chunk, run.SIZES[name])}
        assert wanted == set(stored[name])


def test_tracer_restores_every_binding_and_changes_no_result():
    import reconkit
    modules = tracer._reconkit_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    methods = dict(vars(reconkit.nrecon.Reconstruction))
    g6 = workloads.recon_inputs(3, 0, 1)[0]
    t = tracer.Tracer()
    t.install()
    assert hasattr(reconkit.deck.induced_type_table, tracer.MARK)
    traced = workloads.recon_op(g6)
    assert t.uninstall() == []
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert dict(vars(reconkit.nrecon.Reconstruction)) == methods
    assert workloads.digest(traced) == workloads.digest(workloads.recon_op(g6))
    table = t.table()
    assert table["nrecon.con.calls"] > table["nrecon.con.distinct"] > 0
    assert table["deck.nmatrix.rows"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "recon", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
