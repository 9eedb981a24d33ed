from itertools import product

import pytest

from reconkit.combi import (card_sum_coeffs, exact_div, grouped_cover_partitions,
                            labeled_partition_count, multiset_partitions,
                            multiset_symmetry, partitions_min2, sachs_constant)
from reconkit.errors import ConsistencyError, InconsistentDeckError, InvalidMatrixError
from reconkit.graphcore import path, vertex_deck
from reconkit.oracle import charpoly_oracle

from check_oracles import elementary_count_oracle


def test_partitions_min2():
    assert partitions_min2(2) == ((2,),)
    assert partitions_min2(3) == ((3,),)
    assert set(partitions_min2(6)) == {(6,), (4, 2), (3, 3), (2, 2, 2)}
    assert set(partitions_min2(7)) == {(7,), (5, 2), (4, 3), (3, 2, 2)}


def test_multiset_partitions_are_distinct():
    for ms in [(2, 2, 2, 2), (3, 2, 2), (4, 3, 2), (2, 2)]:
        seen = list(multiset_partitions(ms))
        canon = [tuple(sorted(p, reverse=True)) for p in seen]
        assert len(canon) == len(set(canon))
        # every partition must be generated: compare against brute force
        assert set(canon) == _brute_multiset_partitions(ms)


def _brute_multiset_partitions(ms):
    """Partitions of an index set, projected to value multisets."""
    n = len(ms)
    out = set()
    for assignment in product(range(n), repeat=n):
        parts = {}
        for idx, part in enumerate(assignment):
            parts.setdefault(part, []).append(ms[idx])
        canon = tuple(sorted((tuple(sorted(p, reverse=True)) for p in parts.values()),
                             reverse=True))
        out.add(canon)
    return out


def test_grouped_cover_partitions_counts_match_brute_force():
    """Signature counts must equal direct enumeration of labelled set partitions."""
    for values, v in [((2, 2, 2), 6), ((2, 2, 2, 2), 4), ((3, 2, 2), 7), ((2, 2), 4)]:
        got = {}
        for listing, cnt in grouped_cover_partitions(values, v):
            key = tuple(sorted(listing))
            assert key not in got, "duplicate signature"
            got[key] = cnt
        want = _brute_labeled_partitions(values, v)
        assert got == want, (values, v, got, want)


def _brute_labeled_partitions(values, v):
    """Enumerate set partitions of indices (restricted growth strings) with a
    size label per part; count signatures of (part value multiset, label)."""
    n = len(values)
    out = {}
    for assignment in product(range(n), repeat=n):
        # restricted growth: each partition of the index set appears once
        top = -1
        ok = True
        for a in assignment:
            if a > top + 1:
                ok = False
                break
            top = max(top, a)
        if not ok:
            continue
        blocks = {}
        for idx, part in enumerate(assignment):
            blocks.setdefault(part, []).append(idx)
        parts = list(blocks.values())
        if len(parts) < 2:
            continue
        lows = [max(2, max(values[i] for i in p)) for p in parts]
        for bs in product(*[range(lo, v + 1) for lo in lows]):
            if sum(bs) != v:
                continue
            key = tuple(sorted(((tuple(sorted((values[i] for i in p), reverse=True)), b)
                                for p, b in zip(parts, bs))))
            out[key] = out.get(key, 0) + 1
    return out


def test_labeled_partition_count_basics():
    assert labeled_partition_count((2, 2), (((2,), 2), ((2,), 2))) == 1
    assert labeled_partition_count((2, 2, 2), (((2, 2), 4), ((2,), 2))) == 3
    assert labeled_partition_count((2, 2, 2, 2), (((2, 2), 2), ((2, 2), 2))) == 3


def test_multiset_symmetry():
    assert multiset_symmetry(()) == 1
    assert multiset_symmetry((4, 3, 2)) == 1
    assert multiset_symmetry((3, 2, 2)) == 2
    assert multiset_symmetry((2, 2, 2, 3, 3)) == 12
    assert multiset_symmetry(((2,), (2,), (2, 2))) == 2


def test_sachs_constant_matches_the_oracle_charpoly(corpus6):
    assert len(corpus6) == 208
    for g in corpus6:
        got = sachs_constant(g.n, lambda parts: elementary_count_oracle(g, parts))
        assert got == charpoly_oracle(g).coeffs[g.n], g


def test_card_sum_coeffs():
    g = path(4)
    cards = [charpoly_oracle(c) for c in vertex_deck(g)]
    assert card_sum_coeffs(cards, g.n) == charpoly_oracle(g).coeffs[:g.n]
    with pytest.raises(InconsistentDeckError):
        card_sum_coeffs([(1, 0), (0, 0)], 2)  # c_0 sums to 1, not divisible by 2


def test_exact_div_names_the_refusal():
    assert exact_div(-12, 4) == -3
    with pytest.raises(InvalidMatrixError, match="value: 7 is not divisible by 2"):
        exact_div(7, 2)
    for error in (InconsistentDeckError, ConsistencyError):
        with pytest.raises(error, match="hamiltonian count: 7 is not divisible by 2"):
            exact_div(7, 2, "hamiltonian count", error)
