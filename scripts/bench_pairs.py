"""Alternating benchmark pairs: a parent and a change, each in its own checkout.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload build --pairs 10
    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload decks,recon --pairs 4

The pairs run seeds F, F + 1, .., F + pairs - 1, where F is `--first-seed`
(default 1), so that a claim can be checked on seeds not used while the
change was made.  Pair k runs seed k on both sides, the parent first when k
is odd and the change first when k is even, so that a slow spell of the host
falls on both sides alike.  Before every run the checkout's `__pycache__`
directories are removed, and `perfbench/run.py --workload W --seed k
--trace 0` runs in the checkout with PYTHONDONTWRITEBYTECODE=1, so that no
run starts from bytecode compiled by an earlier one (set-up time depends on
it).

First it prints the line count of each checkout's `src/**/*.py` files and
the change's difference, the source size a change reports.  `--workload`
takes one workload or a comma-separated list, run one after the other, each
over the same seeds.  Each run prints one line as it ends,
`{"seed", "side", "trace", "result"}`, the form of a run in `BENCH_*.json`.
When a workload's pairs are done, its summary block follows: per end-to-end
metric of the change's BENCHMARK.json, the parent's median and quartiles,
the change's median and its difference in per cent, and the number of pairs
in which the change is lower; last, the failed operations per side.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def order(seed: int) -> tuple:
    """The sides of pair `seed`, in the order they run."""
    return SIDES if seed % 2 else SIDES[::-1]


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced bench run in `checkout`, from no compiled bytecode; its JSON result."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def src_lines(checkout: Path) -> int:
    """The number of lines in the checkout's `src/**/*.py` files, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in checkout.glob("src/**/*.py"))


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summary(runs: list, metrics: list) -> list:
    """Per metric: parent median, quartiles, change median, per cent, pairs lower.

    `runs` holds `{"seed", "side", "result"}` records; a pair is a seed run on
    both sides.
    """
    rows = []
    for name in metrics:
        value = {side: {r["seed"]: r["result"]["metrics"][name]["value"]
                        for r in runs if r["side"] == side} for side in SIDES}
        parent, change = value["parent"], value["change"]
        pairs = sorted(set(parent) & set(change))
        p50, c50 = statistics.median(parent.values()), statistics.median(change.values())
        q1, q3 = _quartiles(sorted(parent.values()))
        rows.append({"metric": name, "parent": p50, "q1": q1, "q3": q3, "change": c50,
                     "pct": 100 * (c50 - p50) / p50,
                     "lower": sum(change[s] < parent[s] for s in pairs), "pairs": len(pairs)})
    return rows


def format_summary(rows: list) -> list:
    return [f"{r['metric']:<12} parent {r['parent']:.4f} [{r['q1']:.4f}-{r['q3']:.4f}]"
            f"  change {r['change']:.4f} ({r['pct']:+.1f} %)"
            f"  lower in {r['lower']} of {r['pairs']}" for r in rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True, help="a workload, or several, comma-separated")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    lines = {side: src_lines(checkouts[side]) for side in SIDES}
    print(f"src lines: parent {lines['parent']}, change {lines['change']}"
          f" ({lines['change'] - lines['parent']:+d})", flush=True)
    for workload in args.workload.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            for side in order(seed):
                result = run_once(checkouts[side], workload, seed)
                runs.append({"seed": seed, "side": side, "trace": 0, "result": result})
                print(json.dumps(runs[-1]), flush=True)
        print(f"workload {workload}: {args.pairs} pairs from seed {args.first_seed},"
              f" medians [parent quartiles]")
        for line in format_summary(summary(runs, [m["name"] for m in spec["end_to_end"]])):
            print(line)
        for side in SIDES:
            print(f"{side} failed {sum(r['result']['failed'] for r in runs if r['side'] == side)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
