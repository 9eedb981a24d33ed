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
        '{"end_to_end": [{"name": "wall_s"}]}')
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
        '{"end_to_end": [{"name": "wall_s"}]}')
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
        "parent failed 0", "change failed 0",
        "workload recon: 2 pairs from seed 5, medians [parent quartiles]",
        "wall_s       parent 1.0000 [1.0000-1.0000]  change 0.9000 (-10.0 %)  lower in 2 of 2",
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
