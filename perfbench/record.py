"""Set the stored digests and record the baseline of the benchmark.

Run from the repository root:

    python3 perfbench/record.py digests
    python3 perfbench/record.py baseline

`digests` runs the first STORED_CHUNKS passes of each workload at the default
seed, checks every result against `reconkit.oracle` (ignoring any stored
digest), and writes the digests to `digests.json` only if every check passed.

`baseline` measures the current commit and writes `baseline.json`: for each
workload the median and quartiles of every end-to-end metric over REPEATS
runs of BENCHMARK.json's run_seconds, seeds 1, 2, ..., with the workloads
interleaved within each repeat so that a slow spell of the host is shared
among them rather than landing on one;
the per-layer table of two traced runs at the default seed, whose counts must
agree; the tracing overhead; the back-to-back spread of one fixed pass, as a
measure of host drift; and the host's core count and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
STORED_CHUNKS = 8
REPEATS = 10

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = [
    {"layer": ["nrecon.reconstruct.self_s", "nrecon.rankpoly.self_s", "nrecon.con.calls",
               "nrecon.q_m.calls", "nrecon.t_m.calls", "nrecon.con.distinct",
               "nrecon.t_m.distinct", "nrecon.q_m.self_s",
               "combi.grouped_cover_partitions.calls",
               "combi.grouped_cover_partitions.self_s"],
     "moves": ["wall_s", "op_p50_ms", "op_p90_ms"],
     "on": "recon; part of sweep (nrecon, rankpoly checks); build and decks unchanged"},
    {"layer": ["isotype.canonical_code.calls", "isotype.canonical_code.distinct",
               "isotype.canonical_code.self_s", "isotype.induced_type_table.calls",
               "isotype.induced_type_table.distinct", "isotype.induced_type_table.self_s",
               "graphcore.induced_subgraph.calls", "graphcore.induced_subgraph.self_s",
               "graphcore.parse_graph6.self_s"],
     "moves": ["wall_s", "op_p90_ms"],
     "on": "build (most), recon (a few per cent)"},
    {"layer": ["deck.nmatrix.self_s", "deck.nmatrix.rows", "deck.infer_v_e.calls",
               "deck.infer_v_e.self_s", "deck.elp_from_nmatrix.self_s",
               "deck.canonical_nmatrix.self_s"],
     "moves": ["wall_s"],
     "on": "build"},
    {"layer": ["whitney.charpoly_from_vertex_deck.self_s", "whitney.covers_of_type.calls",
               "whitney.covers_of_type.distinct", "whitney.covers_of_type.self_s",
               "isotype.subgraph_type_table.distinct", "isotype.subgraph_type_table.self_s",
               "isotype.kelly_count.calls", "isotype.kelly_count.self_s"],
     "moves": ["wall_s", "op_p90_ms"],
     "on": "decks; sweep (eq1, kelly, kocay-identity, vertexdeck checks)"},
    {"layer": ["polydeck.build_polydeck.self_s", "polydeck.charpoly_from_polydeck.self_s",
               "polydeck.c_lambda.calls", "polydeck.low_coeffs.calls",
               "oracle.charpoly_oracle.calls", "oracle.charpoly_oracle.self_s",
               "oracle.cover_count_oracle.calls", "oracle.signed_exact_cover_oracle.calls"],
     "moves": ["wall_s"],
     "on": "decks"},
    {"layer": ["graphcore.all_graphs.self_s", "cli.main.self_s"],
     "moves": ["wall_s"],
     "on": "sweep (cli.main.self_s is sweep orchestration outside any library span)"},
    {"layer": ["distinct counts of the memoised layers, which are the cache sizes"],
     "moves": ["peak_rss_mb"],
     "on": "every workload; bounding the caches should move it without moving wall_s"},
]


def record_digests() -> int:
    stored = {}
    for workload, size in run.SIZES.items():
        stored[workload] = {}
        for chunk in range(1 if workload == "sweep" else STORED_CHUNKS):
            out = run.run_pass(workload, DEFAULT_SEED, chunk, size, "oracle")
            if out["failures"]:
                print(json.dumps(out["failures"], indent=1))
                sys.exit(f"{workload}: results disagree with the oracle; digests not written")
            stored[workload].update(out["digests"])
        print(f"{workload}: {len(stored[workload])} digests checked against the oracle")
    (HERE / "digests.json").write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def _run_command(workload: str, seed: int, seconds: float) -> tuple:
    """One untraced run of the benchmark command: (result line, measured values)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    measured = {m.group(1): float(m.group(2)) for m in map(_MEASURED.match, lines) if m}
    return json.loads(lines[-1]), measured


# "  wall_s   3.8123 s     (4.5012)": the measured value follows in brackets
_MEASURED = re.compile(r"\s+(\w+)\s+[-\d.]+ \S+\s+\(([-\d.]+)\)")


def record_baseline() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    e2e = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    measured = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    checked = {w: [0, 0] for w in names}
    for r in range(REPEATS):
        for w in names[r % len(names):] + names[:r % len(names)]:
            result, raw = _run_command(w, r + 1, seconds)
            for name, value in result["metrics"].items():
                e2e[w][name].append(value["value"])
                measured[w][name].append(raw[name])
            checked[w][0] += result["attempted"]
            checked[w][1] += result["failed"]
            print(f"repeat {r + 1} {w}: correct {result['correct']}, failed"
                  f" {result['failed']} of {result['attempted']}", flush=True)

    traced = {}
    for w in names:
        tables = []
        for _ in range(2):
            plain, tr, failures, attempted, _planned = run.measure(
                w, DEFAULT_SEED, seconds, True, False)
            table, count_failures = run.per_layer(plain, tr)
            tables.append(table)
            checked[w][0] += attempted
            checked[w][1] += len(failures) + len(count_failures)
        counts = [{k: v for k, v in t.items() if not k.endswith("_s")} for t in tables]
        traced[w] = {"per_layer": tables[0], "counts_equal_in_two_runs": counts[0] == counts[1],
                     "overhead_s": [t["trace.overhead_s"] for t in tables],
                     "untraced_wall_s": statistics.median(e2e[w]["wall_s"])}
        print(f"traced {w}: counts equal {counts[0] == counts[1]}", flush=True)

    drift = [run.run_pass("build", DEFAULT_SEED, 0, run.SIZES["build"], "verify")
             for _ in range(8)]
    baseline = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "settings": {"seconds": seconds, "seeds": list(range(1, REPEATS + 1)),
                     "sizes": run.SIZES,
                     "passes": {w: run.planned_passes(w, seconds, False) for w in names},
                     "order": "workloads interleaved within each repeat"},
        "workloads": {w: {"why": next(x["why"] for x in spec["workloads"] if x["name"] == w),
                          "end_to_end": {m: _summary(v) for m, v in e2e[w].items()},
                          "measured_end_to_end": {m: _summary(v)
                                                  for m, v in measured[w].items()},
                          "attempted": checked[w][0], "failed": checked[w][1]}
                      for w in names},
        "traced": traced,
        "host_drift": {"what": "eight back-to-back passes of build, default seed, chunk 0",
                       "measured_wall_s": _summary([p["wall_s_raw"] for p in drift]),
                       "reference_wall_s": _summary([p["wall_s"] for p in drift]),
                       "probe_s": _summary([p["probe_s"] for p in drift])},
        "layer_map": LAYER_MAP,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    for m in spec["end_to_end"]:
        spreads = " ".join(f"{w} {baseline['workloads'][w]['end_to_end'][m['name']]['spread']:.3f}"
                           for w in names)
        print(f"{m['name']:<12} bound {m['bound']}  spread {spreads}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("what", choices=["digests", "baseline"])
    args = ap.parse_args(argv)
    if args.what == "digests":
        return record_digests()
    return record_baseline()


if __name__ == "__main__":
    sys.exit(main())
