"""reconkit benchmark: four seeded workloads, measured end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload recon --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload build --seed 7 --trace 1
    python3 perfbench/run.py --workload decks --smoke --trace 1

A run makes a fixed number of passes of the workload: as many as fit in
`--seconds` at the baseline (PASS_S), at least three.  The count depends on
`--seconds` only, never on the speed of the code under test, so two commits
run at the same seed time the same inputs.  Each pass starts a fresh
interpreter (`child.py`), because every reconkit cache is process-global: a
user of the command line pays the cold cost on each call.  Pass k builds
chunk k of the seed's inputs (SIZES gives its length), times every
operation, and checks every result outside the timed region against the
digests stored for the default seed in `digests.json`, or against
`reconkit.oracle` for inputs that have none.  A run that reaches its safety
limit (SAFETY times `--seconds`, at most MAX_RUN_S) starts no further pass
and says so.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
medians over passes, per-op percentiles over the ops of all passes, all times
in reference seconds (see `child.py`: they are scaled by a host-speed probe;
the measured times are printed alongside).  With `--trace 1` every pass runs
chunk 0, alternating plain passes with passes in which every layer's public
functions are wrapped (`tracer.py`), half as many pairs as plain passes and
two at least; the run reports the per-layer metrics plus the tracing
overhead.  The counts of calls, distinct keys and rows must be identical in
every traced pass, and the digests of every pass must equal those of the
first plain pass.  `--smoke` runs two passes of a few operations only, to
test the harness itself.

Human-readable lines come first; the last line of output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Inputs per pass (for sweep, the largest vertex count of the exhaustive sweep).
SIZES = {"recon": 27, "build": 45, "decks": 100, "sweep": 5}
SMOKE_SIZES = {"recon": 3, "build": 3, "decks": 3, "sweep": 4}
# Seconds one pass takes at the baseline on a seed without stored digests,
# that is with the oracle checks, on a 2-core x86_64 host.
PASS_S = {"recon": 5.5, "build": 7.0, "decks": 5.5, "sweep": 2.3}
MIN_PLAIN_PASSES = 3
MIN_TRACED_PASSES = 2
SAFETY = 1.5
MAX_RUN_S = 150


def run_pass(workload: str, seed: int, chunk: int, size: int, mode: str) -> dict:
    """One pass in a fresh interpreter; raises if the child itself fails."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(chunk), str(size)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned), mode], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def planned_passes(workload: str, seconds: float, smoke: bool) -> int:
    """Plain passes of an untraced run; a traced run makes half as many pairs."""
    if smoke:
        return 2
    return max(MIN_PLAIN_PASSES, int(seconds / PASS_S[workload]))


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _digest_failures(reference: dict, other: dict) -> list:
    """Operations whose result differs from the one of the first plain pass.

    An operation that raised has no digest; it is already counted as failed.
    """
    if [g6 for g6, _d in other["digests"]] != [g6 for g6, _d in reference["digests"]]:
        return [{"graph6": None, "reason": "a repeated pass ran different inputs"}]
    return [{"graph6": g6, "reason": "digest differs from the first plain pass"}
            for (g6, a), (_g6, b) in zip(reference["digests"], other["digests"])
            if a != b and None not in (a, b)]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run the passes; returns them, the failures, the ops attempted and the plan."""
    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    planned = planned_passes(workload, seconds, smoke)
    deadline = time.monotonic() + min(SAFETY * seconds, MAX_RUN_S)
    plain, traced = [], []
    if trace:
        planned = max(MIN_TRACED_PASSES, planned // 2)
        # every pass runs chunk 0, so that traced and plain results compare
        while len(traced) < planned and (len(traced) < MIN_TRACED_PASSES
                                         or time.monotonic() < deadline):
            plain.append(run_pass(workload, seed, 0, size, "verify"))
            traced.append(run_pass(workload, seed, 0, size, "trace"))
    else:
        while len(plain) < planned and (not plain or time.monotonic() < deadline):
            plain.append(run_pass(workload, seed, len(plain), size, "verify"))

    failures = [f for p in plain + traced for f in p["failures"]]
    for p in (plain[1:] if trace else []) + traced:
        failures += _digest_failures(plain[0], p)
    attempted = sum(p["attempted"] for p in plain + traced)
    return plain, traced, failures, attempted, planned


def end_to_end(plain: list, raw: bool = False) -> dict:
    """Medians over passes and per-op percentiles, in reference or measured seconds."""
    sfx = "_raw" if raw else ""
    op_ms = [1e3 * t for p in plain for t in p["op_s" + sfx]]
    return {
        "setup_s": statistics.median(p["setup_s" + sfx] for p in plain),
        "wall_s": statistics.median(p["wall_s" + sfx] for p in plain),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": _p90(op_ms),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list, traced: list):
    """Median self times over traced passes; counts, which must repeat exactly."""
    table, failures = {}, []
    for name in traced[0]["trace"]:
        values = [p["trace"][name] for p in traced]
        if name.endswith(".self_s"):
            table[name] = statistics.median(values)
        else:
            table[name] = values[0]
            if len(set(values)) > 1:
                failures.append({"graph6": None,
                                 "reason": f"{name} differs between traced passes: {values}"})
    table["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                 - statistics.median(p["wall_s"] for p in plain))
    return table, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few operations per pass and the fewest passes")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "reconkit" / "__init__.py").is_file():
        sys.exit(f"reconkit sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    plain, traced, failures, attempted, planned = measure(
        args.workload, args.seed, args.seconds or spec["run_seconds"], bool(args.trace),
        args.smoke)
    if traced:
        table, count_failures = per_layer(plain, traced)
        failures += count_failures
    e2e, measured = end_to_end(plain), end_to_end(plain, raw=True)
    ops = sum(len(p["op_s"]) for p in plain)
    beyond = sum(1 for p in plain for t in p["op_s"] if 1e3 * t > e2e["op_p90_ms"])
    probe_ms = 1e3 * statistics.median(p["probe_s"] for p in plain)
    print(f"workload {args.workload}  seed {args.seed}  plain passes {len(plain)}"
          f"  traced passes {len(traced)}  op samples {ops}")
    if len(traced or plain) < planned:
        print(f"  CUT SHORT: {len(traced or plain)} of {planned} planned passes ran before"
              f" the safety limit; later chunks of the seed were not timed")
    print(f"  times in reference seconds; measured in brackets (host probe {probe_ms:.3f} ms,"
          f" reference {1e3 * child.PROBE_REF_S:g} ms)")
    for m in spec["end_to_end"]:
        note = f"  {beyond} of {ops} samples beyond it" if m["name"] == "op_p90_ms" else ""
        print(f"  {m['name']:<14} {e2e[m['name']]:12.4f} {m['unit']:<5}"
              f" ({measured[m['name']]:.4f}){note}")
    print(f"  {'failed_frac':<14} {len(failures) / attempted:12.4f} ratio"
          f"  ({len(failures)} of {attempted} operations)")
    for f in failures[:20]:
        print(f"  FAILED {f['graph6']}: {f['reason']}")

    if traced:
        print(f"  {'layer metric':<44} value")
        for name, value in table.items():
            print(f"  {name:<44} {value}")
        metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
