"""scripts/bench_pairs.py: the run order and the summary, on canned records."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(seed, side, wall_s, failed=0):
    return {"seed": seed, "side": side, "trace": 0,
            "result": {"correct": not failed, "attempted": 10, "failed": failed,
                       "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}}


def test_sides_alternate_by_seed_parity():
    assert [bench_pairs.order(s) for s in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


@pytest.mark.parametrize("argv, first", [([], 1), (["--first-seed", "12"], 12)])
def test_runs_cover_the_seed_range_in_alternating_order(tmp_path, monkeypatch, capsys,
                                                        argv, first):
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "bound": 0.25}]}')
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((seed, checkout.name))
        return _run(seed, checkout.name, 1.0)["result"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "decks",
                             "--pairs", "3", *argv]) == 0
    odd, even = ("parent", "change"), ("change", "parent")
    sides = [odd, even, odd] if first % 2 else [even, odd, even]
    assert calls == [(first + i, side) for i in range(3) for side in sides[i]]
    assert f"3 pairs from seed {first}," in capsys.readouterr().out


def test_a_workload_list_runs_each_in_turn_with_its_own_block(tmp_path, monkeypatch, capsys):
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "bound": 0.25}]}')
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((workload, seed, checkout.name))
        wall_s = {"decks": 2.0, "recon": 1.0}[workload] * (0.9 if checkout.name == "change" else 1)
        return _run(seed, checkout.name, wall_s, failed=workload == "recon")["result"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "decks,recon",
                             "--pairs", "2", "--first-seed", "5"]) == 0
    pair5, pair6 = [(5, "parent"), (5, "change")], [(6, "change"), (6, "parent")]
    assert calls == [(w, seed, side) for w in ("decks", "recon") for seed, side in pair5 + pair6]
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("{")]
    assert lines == [
        "src lines: parent 0, change 0 (+0)",
        "workload decks: 2 pairs from seed 5, medians [parent quartiles]",
        "wall_s       parent 2.0000 [2.0000-2.0000]  change 1.8000 (-10.0 %)  lower in 2 of 2",
        "             verdict: within bound",
        "parent failed 0", "change failed 0",
        "workload recon: 2 pairs from seed 5, medians [parent quartiles]",
        "wall_s       parent 1.0000 [1.0000-1.0000]  change 0.9000 (-10.0 %)  lower in 2 of 2",
        "             verdict: within bound",
        "parent failed 2", "change failed 2"]


def test_summary_of_canned_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [1.5, 1.0, 3.5, 3.0, 6.0]  # lower in pairs 2 and 4
    runs = [_run(s, "parent", p) for s, p in enumerate(parent, 1)]
    runs += [_run(s, "change", c) for s, c in enumerate(change, 1)]
    [row] = bench_pairs.summary(runs, ["wall_s"])
    assert row["parent"] == 3.0 and (row["q1"], row["q3"]) == (2.0, 4.0)
    assert row["change"] == 3.0 and row["pct"] == 0.0
    assert (row["lower"], row["pairs"]) == (2, 5)
    [line] = bench_pairs.format_summary([row])
    assert line.split() == ["wall_s", "parent", "3.0000", "[2.0000-4.0000]", "change",
                            "3.0000", "(+0.0", "%)", "lower", "in", "2", "of", "5"]


def test_a_seed_run_on_one_side_only_is_no_pair():
    runs = [_run(1, "parent", 2.0), _run(1, "change", 1.0), _run(2, "parent", 4.0)]
    [row] = bench_pairs.summary(runs, ["wall_s"])
    assert (row["lower"], row["pairs"]) == (1, 1)
    assert row["q1"] == pytest.approx(2.5) and row["q3"] == pytest.approx(3.5)
    assert row["pct"] == pytest.approx(-66.666, abs=1e-3)


def _metric_row(parent, change):
    """The summary row of wall_s over pairs 1, 2, .. of canned medians."""
    runs = [_run(s, "parent", p) for s, p in enumerate(parent, 1)]
    runs += [_run(s, "change", c) for s, c in enumerate(change, 1)]
    [row] = bench_pairs.summary(runs, ["wall_s"])
    return row


def test_verdicts_of_canned_pairs():
    """A gain needs 10 or more pairs, the change lower in 9 of 10 of them
    and a median gap wider than the parent's interquartile range; a change
    worse than the parent by more than the bound is over it."""
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.035
    gain = [p - 0.1 for p in parent[:9]] + [1.5]  # lower in 9 of 10, median 0.11 below
    assert bench_pairs.verdict(_metric_row(parent, gain), 0.25) == "gain"
    eight = [p - 0.1 for p in parent[:8]] + [1.5, 1.5]  # lower in 8 of 10
    assert bench_pairs.verdict(_metric_row(parent, eight), 0.25) == "within bound"
    narrow = [p - 0.03 for p in parent]  # lower in 10 of 10, by less than the IQR
    assert bench_pairs.verdict(_metric_row(parent, narrow), 0.25) == "within bound"
    assert bench_pairs.verdict(_metric_row(parent[:9], gain[:9]), 0.25) == "within bound"
    worse = [p * 1.3 for p in parent]  # +30 %
    assert bench_pairs.verdict(_metric_row(parent, worse), 0.25) == "over bound"
    assert bench_pairs.verdict(_metric_row(parent, worse), 0.35) == "within bound"


def test_a_verdict_follows_each_metric_line(tmp_path, monkeypatch, capsys):
    """Each metric's line is followed by its verdict, read with the metric's
    bound from the change's BENCHMARK.json."""
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "bound": 0.25}, {"name": "op_p50_ms", "bound": 0.1}]}')

    def fake_run(checkout, workload, seed):
        change = checkout.name == "change"
        result = _run(seed, checkout.name, (1.5 if change else 1.0) * (1 + seed / 100))["result"]
        result["metrics"]["op_p50_ms"] = {"value": (0.5 if change else 1.0) * (1 + seed / 100)}
        return result

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "decks", "--pairs", "10"])
    out = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith(("wall_s", "op_p50_ms", " "))]
    assert [line.split()[0] for line in out[::2]] == ["wall_s", "op_p50_ms"]
    assert out[1::2] == ["             verdict: over bound", "             verdict: gain"]
