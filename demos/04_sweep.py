"""Exhaustive verification sweep, straight from the library.

Runs every reconstruction pipeline against its brute-force oracle over all
graphs with edges up to a given order, and probes the poset-rigidity question:
a nontrivial automorphism of any edge-labelled poset would be counterexample
material, not a bug.  The checks are those of the `reconkit.verify` registry,
which `reconkit sweep` runs too.
"""

import sys
import time

from reconkit import all_graphs, write_graph6
from reconkit.verify import is_candidate, run_checks

max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
t0 = time.time()
corpus = all_graphs(max_n, min_edges=1)
print(f"corpus: {len(corpus)} graphs with edges, n <= {max_n}")

bad = []
aut_candidates = []
for g in corpus:
    for name, fails in run_checks(g, ["nrecon", "vertexdeck", "polydeck", "elp-aut"]).items():
        if is_candidate(name, fails):
            aut_candidates.append(g)
        elif fails:
            bad.append((name, g))

print(f"elapsed: {time.time() - t0:.1f}s")
if bad:
    for what, g in bad:
        print(f"FAILURE ({what}): {write_graph6(g)}")
    sys.exit(1)
print("every pipeline agrees with its oracle on every graph")
if aut_candidates:
    for g in aut_candidates:
        print(f"SENSATIONAL: rigid-poset candidate {write_graph6(g)}")
else:
    print("and no edge-labelled poset admits a nontrivial automorphism")
