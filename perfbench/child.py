"""One pass of one workload, in a fresh interpreter.

Every reconkit cache is process-global and unbounded, so a second pass in the
same process would measure warm caches, while a command-line user pays the
cold cost on every call.  `run.py` therefore starts this script once per pass:

    python3 perfbench/child.py WORKLOAD SEED CHUNK SIZE SPAWNED MODE

CHUNK picks which inputs of the seed the pass runs, SIZE is their number (for
`sweep`, the largest vertex count; the sweep is exhaustive and takes neither
seed nor chunk), SPAWNED is the parent's `time.monotonic()` just before the
start, and MODE is one of

* `verify`: compare each result with its stored digest if there is one, and
  check it against the oracle otherwise;
* `oracle`: check every result against the oracle, ignoring stored digests
  (used by `record.py` to set the stored digests);
* `trace`: wrap every layer with `tracer.Tracer`, and compare results with
  the stored digests only; `run.py` compares them with a verified pass.

Host speed.  On a shared host the CPU's speed for this process drifts by tens
of per cent within seconds and minutes.  So the pass times `probe()`, a fixed
pure-Python loop that touches nothing of reconkit and allocates nothing the
garbage collector tracks, around the set-up and after each operation.  Each
time is reported twice: as measured (`*_raw`) and in reference seconds,
scaled by PROBE_REF_S / (probe time measured next to it), which is the time
on a host where the probe takes exactly PROBE_REF_S.  An operation is scaled
by the mean of the probes just before and just after it.  The probes' own
time is subtracted from the set-up and the wall time.  A traced pass probes
only before and after the traced region, so that no probe runs inside a
traced span, and scales everything by the median of those probes.

The pass prints one JSON object on its last line of output.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBE_REF_S = 1e-3
SETUP_PROBES = 5
_TABLE = list(range(512))
_INDEX = {i: i for i in range(512)}


def probe() -> float:
    """Seconds taken by a fixed loop of list and dict reads and int arithmetic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(5000):
        k = (i * 7919) & 511
        acc = (acc + _TABLE[k] * _INDEX[k ^ 3]) & 0xFFFFF
    return time.perf_counter() - t0


def _import_reconkit():
    import reconkit
    if Path(reconkit.__file__).resolve().parent != SRC / "reconkit":
        sys.exit(f"reconkit was imported from {reconkit.__file__}, not from {SRC}")


def main(argv) -> int:
    workload, seed, chunk, size, spawned, mode = argv
    seed, chunk, size, spawned = int(seed), int(chunk), int(size), float(spawned)
    early_probes = [probe() for _ in range(SETUP_PROBES)]
    _import_reconkit()
    import workloads as wl
    from tracer import Tracer

    inputs, op, check = wl.WORKLOADS[workload]
    stored = {} if mode == "oracle" else \
        json.loads((HERE / "digests.json").read_text()).get(workload, {})
    tracer = Tracer() if mode == "trace" else None
    results = []      # (g6, result or None, error text or None), in op order
    op_s = []
    probes = []       # untraced: probes[i] is timed just before op i, probes[i + 1] after

    def timed(g6, run):
        if tracer:
            tracer.op = len(results)
        t0 = time.perf_counter()
        try:
            result, error = run(), None
        except Exception as exc:  # a failing op is recorded, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        op_s.append(time.perf_counter() - t0)
        if not tracer:
            probes.append(probe())
        results.append((g6, result, error))
        return result

    corpus = None if workload == "sweep" else inputs(seed, chunk, size)
    first_op = time.monotonic()
    late_probes = [probe() for _ in range(SETUP_PROBES)]
    probes.append(statistics.median(late_probes))
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    if workload == "sweep":
        code, report = wl.sweep_pass(timed, size)
    else:
        for g6 in corpus:
            timed(g6, lambda g6=g6: op(g6))
    wall = time.perf_counter() - t0 - sum(probes[1:])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        probes += [probe() for _ in range(SETUP_PROBES)]

    # Reference-second scaling; time outside the ops (the sweep's own work)
    # takes the pass's median probe.
    pass_scale = PROBE_REF_S / statistics.median(probes)
    if tracer:
        op_ref = [t * pass_scale for t in op_s]
    else:
        op_ref = [t * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
                  for i, t in enumerate(op_s)]
    setup = first_op - spawned - sum(early_probes)
    out = {
        "setup_s_raw": setup,
        "setup_s": setup * PROBE_REF_S / statistics.median(early_probes + late_probes),
        "wall_s_raw": wall,
        "wall_s": sum(op_ref) + (wall - sum(op_s)) * pass_scale,
        "op_s_raw": op_s,
        "op_s": op_ref,
        "probe_s": statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
        "digests": [],
        "failures": [],
        "attempted": len(results),
    }
    if tracer:
        leftovers = tracer.uninstall()
        if leftovers:
            out["failures"].append({"graph6": None,
                                    "reason": f"wrappers left bound: {leftovers}"})
        out["trace"] = {k: v * pass_scale if k.endswith("_s") else v
                        for k, v in tracer.table().items()}
        spans_dir = HERE / "out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write_spans(spans_dir / f"spans-{workload}-{seed}.jsonl")

    # Checks run after the timed region and after any wrappers are gone.
    for g6, result, error in results:
        d = wl.digest(result) if error is None else None
        out["digests"].append([g6, d])
        if error is not None:
            problems = [error]
        elif g6 in stored:
            problems = [] if stored[g6] == d else ["digest differs from the stored one"]
        elif mode in ("verify", "oracle"):
            problems = check(g6, result)
        else:
            problems = []
        if problems:
            out["failures"].append({"graph6": g6, "reason": "; ".join(problems)})
    if workload == "sweep":
        out["attempted"] += 1
        problems = wl.sweep_report_check(code, report)
        if problems:
            out["failures"].append({"graph6": None, "reason": "; ".join(problems)})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
