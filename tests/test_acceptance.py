"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every check is an exact integer comparison over an exhaustive (or seeded)
graph corpus, and each criterion carries a wall-clock budget.  The
comparisons themselves are the checks of the `reconkit.verify` registry.
"""

import json
import random
import time
from collections import Counter

from reconkit.cli import main as cli_main
from reconkit.errors import NotReconstructibleError
from reconkit.graphcore import (adjacency_masks, all_graphs, cycle, empty_graph, path,
                                write_graph6)
from reconkit.oracle import charpoly_oracle, ham_oracle
from reconkit.polydeck import build_polydeck, charpoly_from_polydeck
from reconkit.verify import CHAIN_TYPES, CHECKS, run_checks

PRISM_G6 = "E{Sw"

PRISM_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [2, 0, 1, 0, 0, 0, 0, 0, 0],
    [3, 0, 0, 1, 0, 0, 0, 0, 0],
    [3, 2, 2, 0, 1, 0, 0, 0, 0],
    [4, 1, 2, 1, 0, 1, 0, 0, 0],
    [4, 0, 4, 0, 0, 0, 1, 0, 0],
    [6, 3, 6, 1, 2, 2, 1, 1, 0],
    [9, 6, 12, 2, 6, 6, 3, 6, 1],
]

# The prism's 9x9 matrix admits exactly 13 cover relations; these are their
# multiplicity labels as drawn on the published Hasse diagram.
PRISM_COVER_LABELS = sorted([2, 1, 3, 4, 2, 2, 1, 2, 1, 1, 2, 2, 6])


def _report(num: int, desc: str, elapsed: float, budget: float, ok: bool):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {status} ({elapsed:.1f}s / budget {budget:.0f}s): {desc}",
          flush=True)
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_golden_prism(capsys):
    t0 = time.monotonic()
    code = cli_main(["build", "nmatrix", PRISM_G6])
    built = json.loads(capsys.readouterr().out)
    ok = code == 0 and built["rows"] == PRISM_MATRIX
    code = cli_main(["build", "elp", PRISM_G6])
    elp = json.loads(capsys.readouterr().out)
    ok = ok and len(elp["nodes"]) == 9
    ok = ok and len(elp["covers"]) == 13
    ok = ok and sorted(c["label"] for c in elp["covers"]) == PRISM_COVER_LABELS
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(1, "prism N-matrix and edge-labelled poset match the published"
                   " table and diagram (13 cover edges as drawn)", elapsed, 1.0, ok)


def _sweep(graphs, name, flag="counterexample:"):
    """Run one registry check on every graph and print each failure.

    Returns the number of graphs the check applies to, and the failures.
    """
    checked = 0
    failures = []
    for g in graphs:
        checked += CHECKS[name].applies(g)
        fails = run_checks(g, [name])[name]
        if fails:
            failures.append(f"{name} on {write_graph6(g)}: {fails}")
    for line in failures:
        print(flag, line)
    return checked, failures


def test_criterion_2_roundtrip():
    t0 = time.monotonic()
    graphs = all_graphs(6)
    per_order = Counter(g.n for g in graphs)
    ok = [per_order[i] for i in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    swept, failures = _sweep([g for g in graphs if g.e], "roundtrip")
    ok = ok and not failures and swept == 202  # the 208 types minus one edgeless type per order
    elapsed = time.monotonic() - t0
    _report(2, f"N-matrix <-> poset round trip exact on all {swept} graphs"
               " with edges, n <= 6", elapsed, 30.0, ok)


def test_criterion_3_nmatrix_end_to_end():
    t0 = time.monotonic()
    swept, failures = _sweep(all_graphs(6, min_edges=1), "nrecon")
    elapsed = time.monotonic() - t0
    _report(3, f"matrix reconstruction matches oracles (charpoly, psi, ham,"
               f" tr, uni) on all {swept} graphs, n <= 6", elapsed, 300.0, not failures)


def test_criterion_4_rank_polynomial():
    t0 = time.monotonic()
    pool = [g for g in all_graphs(6, min_edges=1) if g.n == 6]
    rng = random.Random(2026)
    corpus = all_graphs(5, min_edges=1) + rng.sample(pool, 50)
    swept, failures = _sweep(corpus, "rankpoly")
    elapsed = time.monotonic() - t0
    _report(4, f"rank polynomial exact on all graphs n <= 5 plus 50 sampled"
               f" 6-vertex graphs ({swept} total)", elapsed, 120.0, not failures)


def test_criterion_5_polydeck():
    t0 = time.monotonic()
    ok = True
    # n = 2 boundary: the only 2-vertex graph with a degree-1 vertex is K2,
    # and its complete polynomial deck equals that of 2K1, so no deck function
    # can recover its polynomial; the library reports NotReconstructible.
    ok = ok and sorted(build_polydeck(path(2)).polys) == \
        sorted(build_polydeck(empty_graph(2)).polys)
    try:
        charpoly_from_polydeck(build_polydeck(path(2)))
        ok = False
    except NotReconstructibleError:
        pass

    def shows_leaf(g):
        return g.n >= 3 and 1 in [m.bit_count() for m in adjacency_masks(g)]

    deg1 = [g for g in all_graphs(7) if shows_leaf(g)]
    flagged = [g for g in all_graphs(6) if g.n >= 2 and ham_oracle(g) == 0]
    # the registry's check takes the unasserted route wherever the deck shows a
    # degree-1 vertex, so the asserted route on those graphs is run here
    failures = _sweep(deg1 + [g for g in flagged if not shows_leaf(g)], "polydeck")[1]
    ok = ok and not failures
    for g in filter(shows_leaf, flagged):
        got = charpoly_from_polydeck(build_polydeck(g), assert_nonhamiltonian=True)
        if got.coeffs != charpoly_oracle(g).coeffs:
            ok = False
            print("counterexample:", write_graph6(g))
    try:
        charpoly_from_polydeck(build_polydeck(cycle(4)))
        ok = False
    except NotReconstructibleError:
        pass
    elapsed = time.monotonic() - t0
    _report(5, f"polynomial-deck reconstruction exact on {len(deg1)} degree-1 graphs"
               f" (3 <= n <= 7; the n = 2 deck is provably ambiguous) and"
               f" {len(flagged)} flagged non-hamiltonian graphs (n <= 6);"
               " C4 unflagged raises", elapsed, 300.0, ok)


def test_criterion_6_vertex_deck_and_chains():
    t0 = time.monotonic()
    swept, deck_failures = _sweep([g for g in all_graphs(6) if g.n >= 3], "vertexdeck")
    chains, chain_failures = _sweep(all_graphs(5, min_edges=1), "whitney-chain")
    pairs = chains * len(CHAIN_TYPES)
    elapsed = time.monotonic() - t0
    _report(6, f"vertex-deck charpoly exact on {swept} graphs (3 <= n <= 6);"
               f" chain sum equals recursion on {pairs} (graph, type) pairs",
            elapsed, 600.0, not deck_failures and not chain_failures)


def test_criterion_7_identity_suites():
    t0 = time.monotonic()
    failures = []
    for corpus, name in [([g for g in all_graphs(5) if g.n >= 3], "kelly"),
                         (all_graphs(5, min_edges=1), "kocay-identity"),
                         ([g for g in all_graphs(7) if g.n >= 2], "derivative"),
                         (all_graphs(6, min_edges=1), "childdeck")]:
        failures += _sweep(corpus, name)[1]
    elapsed = time.monotonic() - t0
    _report(7, "Kelly and Kocay identities exhaustive at n <= 5; derivative"
               " identity at n <= 7; child-deck extraction at n <= 6",
            elapsed, 180.0, not failures)


def test_criterion_8_elp_rigidity():
    t0 = time.monotonic()
    # a genuine candidate would disprove the reconstruction conjecture at an
    # order where it is verified, so any hit here is a search defect
    swept, candidates = _sweep([g for g in all_graphs(7, min_edges=1) if g.n >= 3],
                               "elp-aut", flag="SENSATIONAL counterexample candidate:")
    elapsed = time.monotonic() - t0
    _report(8, f"no nontrivial poset automorphism over {swept} graphs,"
               " 3 <= n <= 7", elapsed, 600.0, not candidates)
