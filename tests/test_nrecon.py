import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

import reconkit
from reconkit.combi import grouped_cover_partitions, partitions_min2
from reconkit import nrecon
from reconkit.deck import (Elp, NMatrix, canonical_nmatrix, elp_from_nmatrix, nmatrix,
                           nmatrix_from_elp, strip)
from reconkit.errors import InvalidMatrixError
from reconkit.graphcore import (all_graphs, complete, cycle, graph, parse_graph6, path,
                                write_graph6)
from reconkit.nrecon import reconstruct
from reconkit.oracle import (charpoly_oracle, ham_oracle, psi_oracle,
                             rankpoly_oracle, tr_oracle, uni_oracle)

from check_oracles import (c_oracle, con_oracle, elementary_count_oracle,
                           kedge_connected_oracle, lcompo_oracle)


def _seqs_upto(v):
    out = []

    def rec(prefix, largest, budget):
        for a in range(2, min(largest, budget) + 1):
            out.append(tuple(prefix + [a]))
            rec(prefix + [a], a, budget - a)

    rec([], v, v)
    return out


def test_reconstruct_examples(prism):
    rec = reconstruct(strip(nmatrix(prism)))
    assert rec.top.charpoly.coeffs == charpoly_oracle(prism).coeffs
    assert reconstruct(strip(nmatrix(complete(3)))).top.ham == 1
    assert reconstruct(strip(nmatrix(cycle(4)))).top.tr == 4


def test_psi_step_values(prism):
    rec = reconstruct(strip(nmatrix(prism)))
    assert rec.top.psi[3] == 2
    assert rec.top.psi[4] == 3
    assert rec.top.psi[2] == 9
    rec = reconstruct(strip(nmatrix(cycle(4))))
    assert rec.top.psi[3] == 0


def test_k2_node_conventions():
    rec = reconstruct(strip(nmatrix(path(2))))
    assert rec.top.v == 2 and rec.top.e == 1
    assert rec.top.ham == 1 and rec.top.tr == 1
    assert rec.top.charpoly.coeffs == (1, 0, -1)


def test_p_c_step_examples():
    rec = reconstruct(strip(nmatrix(cycle(4))))
    t = rec.top_index
    assert rec.p(t, (2, 2)) == 16
    assert rec.c(t, (2, 2)) == 4
    assert rec.con(t, (2, 2)) == 0
    rec3 = reconstruct(strip(nmatrix(complete(3))))
    assert rec3.con(rec3.top_index, (2, 2)) == 6
    assert rec3.con(rec3.top_index, (2, 2, 2)) == 24
    assert rec3.con(rec3.top_index, (3,)) == 1


def test_qm_tm_examples():
    rec = reconstruct(strip(nmatrix(path(2))))
    t = rec.top_index
    listing = (((2,), 2),)
    assert rec.q_m(t, 2, listing) == 1
    assert rec.t_m(t, listing) == 1
    rec4 = reconstruct(strip(nmatrix(cycle(4))))
    t4 = rec4.top_index
    listing = (((2,), 2), ((2,), 2))
    assert rec4.t_m(t4, listing) == 4
    # with m = v and b = v the subset sum collapses to a single con value
    assert rec4.q_m(t4, 4, (((4,), 4),)) == rec4.con(t4, (4,)) == 1


def _listings(v):
    """Every listing that con passes to t_m on a node of order v."""
    return [listing for seq in _seqs_upto(v) if sum(seq) >= v
            for listing, _cnt in grouped_cover_partitions(seq, v)]


@pytest.mark.parametrize("name", ["cycle5", "prism"])
def test_q_m_vanishes_below_the_largest_order_and_t_m_skips_it(name, prism):
    g = {"cycle5": cycle(5), "prism": prism}[name]
    rec = reconstruct(strip(nmatrix(g)))
    for t, node in enumerate(rec.nodes):
        for listing in _listings(node.v):
            top_b = max(b for _part, b in listing)
            assert all(rec.q_m(t, p, listing) == 0 for p in range(2, top_b))
            full = sum((-1) ** (node.v - p) * rec.q_m(t, p, listing)
                       for p in range(2, node.v + 1))
            assert rec.t_m(t, listing) == full, (t, listing)


def test_reports_do_not_leak_between_instances(prism):
    code = ("import json, sys\n"
            "from reconkit.deck import nmatrix, strip\n"
            "from reconkit.graphcore import parse_graph6\n"
            "from reconkit.nrecon import reconstruct\n"
            "g = parse_graph6(sys.argv[1])\n"
            "print(json.dumps(reconstruct(strip(nmatrix(g))).report()))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(reconkit.__file__).parent.parent))
    fresh = {}
    for g in (complete(4), prism):
        g6 = write_graph6(g)
        proc = subprocess.run([sys.executable, "-c", code, g6], capture_output=True,
                              text=True, env=env, timeout=60, check=True)
        fresh[g6] = json.loads(proc.stdout)
    # the prism after K4 in this interpreter matches the prism in a fresh one
    for g in (complete(4), prism):
        rep = reconstruct(strip(nmatrix(g))).report()
        assert json.loads(json.dumps(rep)) == fresh[write_graph6(g)]


def test_edited_results_leave_the_store_unchanged(prism):
    """The store shares each node's dicts between instances, so `families()`
    and `nodes` hand out copies: editing them changes no later reconstruction."""
    nm = strip(nmatrix(prism))
    rec = reconstruct(nm)
    report, families = rec.report(), [dict(fam) for fam in rec.families()]
    for fam in rec.families():
        fam.clear()
    for node in rec.nodes:
        node.psi.clear()
        node.uni.clear()
    fresh = reconstruct(nm)
    assert fresh.report() == report and fresh.families() == families


def test_stored_nodes_equal_computed_ones(corpus6):
    """Every graph with n <= 6 and an edge, largest first so that the lower
    nodes of the smaller graphs are read from the store, gives node by node
    what it gives with the store emptied before each graph."""
    matrices = [strip(nmatrix(g)) for g in reversed(corpus6) if g.e]

    def outputs(rec):
        return rec.nodes, rec.families(), rec.rankpoly()

    cold = []
    for nm in matrices:
        nrecon._slot.cache_clear()
        cold.append(outputs(reconstruct(nm)))
    nrecon._slot.cache_clear()
    for nm, expected in zip(matrices, cold):
        assert outputs(reconstruct(nm)) == expected
    assert nrecon._slot.cache_info().hits > 0


def test_con_on_any_order_of_a_sequence_leaves_the_store_sound(corpus5, corpus6):
    """`con` is public and writes to the memos the store shares: on every node
    of every graph with n <= 5 and an edge, every order of every sequence of
    parts >= 2 summing to at most v + 1 gives the value of the sequence sorted
    non-increasing, and afterwards every graph with n <= 6 and an edge
    reconstructs node by node as from an emptied store."""
    matrices = [strip(nmatrix(g)) for g in corpus6 if g.e]

    def outputs(rec):
        return rec.nodes, rec.families(), rec.rankpoly()

    cold = []
    for nm in matrices:
        nrecon._slot.cache_clear()
        cold.append(outputs(reconstruct(nm)))
    nrecon._slot.cache_clear()
    for g in corpus5:
        if g.e == 0:
            continue
        rec = reconstruct(strip(nmatrix(g)))
        for t, node in enumerate(rec.nodes):
            for seq in _seqs_upto(node.v + 1):
                for order in set(permutations(seq)):
                    assert rec.con(t, order) == rec.con(t, seq), (g, t, order)
    for nm, expected in zip(matrices, cold):
        assert outputs(reconstruct(nm)) == expected


def test_a_refusal_below_the_top_is_not_stored():
    """Kelly's lemma holds on the fill of a poset whose one cover label is
    raised, so the refusal comes from node 2, below the top: a second call
    refuses again with the same message, and node 2's slot stays empty."""
    elp = elp_from_nmatrix(strip(nmatrix(parse_graph6("D?C"))))
    (j, i, label), *rest = elp.covers
    nm = nmatrix_from_elp(Elp(elp.ranks, ((j, i, label + 1), *rest)))
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidMatrixError) as refusal:
            reconstruct(nm)
        messages.append(str(refusal.value))
    assert messages == 2 * ["negative spanning-subgraph count at node 2"]
    assert not all(nm.rows[2])
    assert nrecon._slot(nrecon._key(nm.rows, 2)) == []


def test_a_down_set_with_an_entry_above_255_is_keyed_by_its_tuple():
    """K5 lies in K11 462 times, so K12's K11 node is stored under the tuple
    of its down-set, and a second run that reads it from there gives what the
    run from an emptied store gave."""
    nm = strip(nmatrix(complete(12)))
    nrecon._slot.cache_clear()
    cold = reconstruct(nm)
    k11 = next(t for t, node in enumerate(cold.nodes) if node.v == 11)
    assert max(nm.rows[k11]) == 462
    key = nrecon._key(nm.rows, k11)
    assert isinstance(key, tuple) and nrecon._slot(key)
    warm = reconstruct(nm)
    assert (warm.nodes, warm.families(), warm.rankpoly()) == \
        (cold.nodes, cold.families(), cold.rankpoly())
    assert warm.top.charpoly.coeffs == charpoly_oracle(complete(12)).coeffs


def test_reconstructions_do_the_pinned_work(corpus6, monkeypatch):
    """Work pin: every graph with 3 <= n <= 6 and an edge, reconstructed in
    increasing order from an emptied store, reads 2,005 nodes from the store
    and computes 47, one per type with an edge on at most 5 vertices; the
    tops are computed and not counted.  The cover-count memos travel with the
    stored nodes, so `con` reaches `grouped_cover_partitions` 648 times (4,447
    with the memos kept per reconstruction).  A change that moves a count on
    purpose updates it here and says why, as for the cold vertex decks' pin
    in test_whitney.py."""
    calls = []
    real = nrecon.grouped_cover_partitions
    monkeypatch.setattr(nrecon, "grouped_cover_partitions",
                        lambda *args: calls.append(args) or real(*args))
    matrices = [strip(nmatrix(g)) for g in corpus6 if g.n >= 3 and g.e]
    nrecon._slot.cache_clear()
    for nm in matrices:
        reconstruct(nm)
    info = nrecon._slot.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2005, 47, 47)
    assert len(calls) == 648


def test_con_matches_oracle_on_every_node(corpus5):
    for g in corpus5:
        if g.e == 0:
            continue
        labelled = nmatrix(g)
        rec = reconstruct(strip(labelled))
        for idx, cls in enumerate(labelled.labels.classes):
            h = cls.rep
            for seq in _seqs_upto(h.n):
                assert rec.con(idx, seq) == con_oracle(h, seq), (g, h, seq)
                assert rec.c(idx, seq) == c_oracle(h, seq), (g, h, seq)


def test_elementary_counts_via_c(corpus5):
    """c(A->G) = c(A->F) <G,F> when the sequence is a partition of v(G)."""
    from math import factorial
    for g in corpus5:
        if g.e == 0 or g.n < 3:
            continue
        rec = reconstruct(strip(nmatrix(g)))
        t = rec.top_index
        for parts in partitions_min2(g.n):
            if len(parts) < 2:
                continue
            sym = 1
            for p in set(parts):
                sym *= factorial(parts.count(p))
            assert rec.c(t, parts) == sym * elementary_count_oracle(g, parts)


def test_cn_step_c4():
    rec = reconstruct(strip(nmatrix(cycle(4))))
    assert rec.top.charpoly.coeffs == (1, 0, -4, 0, 0)
    rec3 = reconstruct(strip(nmatrix(complete(3))))
    assert rec3.top.charpoly[3] == -2


def test_kedge_examples():
    rec = reconstruct(strip(nmatrix(cycle(4))))
    connected = {m: c for (l, m), c in rec.families()[rec.top_index].items() if l == 1}
    # four paths and the cycle itself; two edges never connect four vertices
    assert connected == {3: 4, 4: 1}
    rec4 = reconstruct(strip(nmatrix(complete(4))))
    assert rec4.families()[rec4.top_index][1, 6] == 1
    assert rec4.families()[rec4.top_index][1, 3] == 16


def test_kedge_matches_oracle(corpus6):
    for g in corpus6:
        if g.e == 0:
            continue
        labelled = nmatrix(g)
        families = reconstruct(strip(labelled)).families()
        for cls, fam in zip(labelled.labels.classes, families):
            h = cls.rep
            assert {m for l, m in fam if l == 1} <= set(range(h.n - 1, h.e + 1)), (g, h)
            for k in range(h.n - 1, h.e + 1):
                assert fam.get((1, k), 0) == kedge_connected_oracle(h, k), (g, h, k)


def test_lcompo_examples():
    # the two-matchings of C4 and K4: two components, two edges
    rec = reconstruct(strip(nmatrix(cycle(4))))
    assert rec.families()[rec.top_index] == {(2, 2): 2, (1, 3): 4, (1, 4): 1}
    rec = reconstruct(strip(nmatrix(complete(4))))
    assert rec.families()[rec.top_index][2, 2] == 3


def _lcompo_by_oracle(h):
    """(l, m) -> lcompo_oracle summed over every l >= 2 component profile of h with m edges."""
    specs = set()
    for parts in partitions_min2(h.n):
        if len(parts) > 1:
            sizes = [range(n - 1, n * (n - 1) // 2 + 1) for n in parts]
            for edges in product(*sizes):
                specs.add(tuple(sorted(zip(parts, edges), reverse=True)))
    out = {}
    for spec in specs:
        count = lcompo_oracle(h, spec)
        if count:
            key = len(spec), sum(m for _n, m in spec)
            out[key] = out.get(key, 0) + count
    return out


def test_lcompo_matches_oracle(corpus6):
    expected = {}
    for g in corpus6:
        if g.e == 0:
            continue
        labelled = nmatrix(g)
        families = reconstruct(strip(labelled)).families()
        for cls, fam in zip(labelled.labels.classes, families):
            if cls.code not in expected:
                expected[cls.code] = _lcompo_by_oracle(cls.rep)
            split = {key: c for key, c in fam.items() if key[0] > 1}
            assert split == expected[cls.code], (g, cls.rep)


def test_rankpoly_small(corpus6):
    for g in corpus6:
        if g.e == 0:
            continue
        assert reconstruct(strip(nmatrix(g))).rankpoly() == rankpoly_oracle(g), g


def test_permutation_invariance(prism):
    nm = strip(nmatrix(prism))
    perm = [0, 3, 1, 2, 6, 4, 5, 7, 8]  # reorder within ranks
    rows = tuple(tuple(nm.rows[perm[i]][perm[j]] for j in range(9))
                 for i in range(9))
    shuffled = NMatrix(rows, None)
    a = reconstruct(canonical_nmatrix(nm))
    b = reconstruct(canonical_nmatrix(shuffled))
    assert a.top.charpoly.coeffs == b.top.charpoly.coeffs
    assert a.top.ham == b.top.ham and a.top.tr == b.top.tr
    # reconstruct also accepts the shuffled matrix directly
    c = reconstruct(shuffled)
    assert c.top.charpoly.coeffs == a.top.charpoly.coeffs


def _corruptions(graphs):
    """(tried, refused, accepted) over every single-entry +-1 change of each graph's matrix.

    `accepted` lists [graph6, i, j, delta, report] for each change that
    `reconstruct` reads without refusing it.
    """
    tried, refused, accepted = 0, 0, []
    for g in graphs:
        rows = nmatrix(g).rows
        for i, j, delta in product(range(len(rows)), range(len(rows)), (1, -1)):
            if rows[i][j] + delta < 0:
                continue
            bad = [list(r) for r in rows]
            bad[i][j] += delta
            tried += 1
            try:
                report = reconstruct(NMatrix(tuple(map(tuple, bad)))).report()
            except InvalidMatrixError:
                refused += 1
            else:
                accepted.append([write_graph6(g), i, j, delta, report])
    return tried, refused, accepted


def test_every_corruption_of_a_small_matrix_is_refused():
    """Kelly's lemma, the divisions and the sign checks refuse every +-1 change at n = 4, 5.

    Hand-run over every graph with n <= 6, printing the tried and refused
    counts and the SHA-1 of the accepted reports, and exiting non-zero unless
    they are CORRUPTIONS6: `PYTHONPATH=src python tests/test_nrecon.py corruptions6`.
    """
    graphs = [g for g in all_graphs(5, min_edges=1) if g.n >= 4]
    tried, refused, accepted = _corruptions(graphs)
    assert tried == 2543 and refused == tried, accepted


def test_report_shape(prism):
    rep = reconstruct(strip(nmatrix(prism))).report()
    assert rep["charpoly"] == list(charpoly_oracle(prism).coeffs)
    assert rep["tr"] == tr_oracle(prism)
    assert rep["ham"] == ham_oracle(prism)
    assert rep["psi"]["3"] == psi_oracle(prism, 3)
    assert rep["uni"]["6"] == uni_oracle(prism, 6)
    got = {(d["r"], d["s"]): d["count"] for d in rep["rankpoly"]}
    assert got == rankpoly_oracle(prism)


def _n9():
    """Hand-run measurement at n = 9: `PYTHONPATH=src python tests/test_nrecon.py n9`.

    The 40 seeded G(9, p) graphs: `rng = random.Random(9)`, and graph k, for
    k = 0..39, keeps each pair of `combinations(range(9), 2)` in turn when
    `rng.random() < 0.2 + 0.6 * k / 39` (the graphs of
    `test_deck._seeded9_posets`).  Their stripped matrices are built first;
    then `reconstruct(nm).report()` on each, in order, in one process, is
    timed.  Prints those seconds, `nrecon._slot.cache_info()`, the peak RSS
    in MB and the SHA-1 of the reports, as compact sorted-key JSON.
    """
    rng = random.Random(9)
    pairs = list(combinations(range(9), 2))
    graphs = [graph(9, [e for e in pairs if rng.random() < 0.2 + 0.6 * k / 39])
              for k in range(40)]
    matrices = [strip(nmatrix(g)) for g in graphs]
    start = time.perf_counter()
    reports = [reconstruct(nm).report() for nm in matrices]
    seconds = time.perf_counter() - start
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    print("seconds %.3f" % seconds)
    print(nrecon._slot.cache_info())
    print("peak_rss_mb %.1f" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    print("reports", hashlib.sha1(text.encode()).hexdigest())


# tried, refused and the SHA-1 of the accepted reports, over every graph with n <= 6
CORRUPTIONS6 = (39047, 39043, "bd133557f56676e31c32891b96d5ef5343b94c85")

if __name__ == "__main__" and sys.argv[1:] == ["corruptions6"]:
    tried, refused, accepted = _corruptions(all_graphs(6, min_edges=1))
    text = json.dumps(accepted, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(text.encode()).hexdigest()
    print("tried", tried, "refused", refused, "accepted", digest)
    if (tried, refused, digest) != CORRUPTIONS6:
        sys.exit("expected tried %d refused %d accepted %s" % CORRUPTIONS6)

if __name__ == "__main__" and sys.argv[1:] == ["n9"]:
    _n9()
