"""The verification registry: every per-graph check of the sweep, and `golden`.

Each check takes a graph to which it applies (see `CHECKS`) and returns its
failure strings; an empty list means the graph passed.  `run_checks` runs
named checks on one graph, and `golden` compares the prism with the published
table and diagram.  The `reconkit sweep` command, the acceptance suite and the
sweep demo all run their checks from here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import prod
from typing import Callable, NamedTuple

from . import deck as deckmod
from . import polydeck as pdmod
from .errors import ConsistencyError, NotReconstructibleError, ReconkitError
from .graphcore import (Graph, all_graphs, complete, cycle, empty_graph,
                        induced_subgraph, parse_graph6, path, vertex_deck)
from .isotype import (canonical_code, code_graph, count_induced, count_subgraphs,
                      kelly_count, subgraph_type_table, subset_table)
from .nrecon import reconstruct
from .oracle import (charpoly_oracle, cover_count_oracle, ham_oracle, psi_oracle,
                     rankpoly_oracle, tr_oracle, uni_oracle)
from .whitney import charpoly_from_vertex_deck, count_type, covers_of_type, type_key


def _block_types(pool: tuple, sizes: tuple) -> tuple:
    """Every multiset of `pool` members with a size in `sizes`, smallest first."""
    return tuple(fams for r in sizes for fams in combinations_with_replacement(pool, r))


# the block types of the whitney-chain check and the factor lists of the Kocay check
CHAIN_TYPES = _block_types((path(2), complete(3), cycle(4)), (1, 2, 3))
_KOCAY_TYPES = _block_types((path(2), path(3), complete(3), cycle(4)), (2, 3))


def _check_roundtrip(g: Graph) -> list:
    nm = deckmod.strip(deckmod.nmatrix(g))
    rt = deckmod.nmatrix_from_elp(deckmod.elp_from_nmatrix(nm))
    return [] if rt.rows == nm.rows else ["nmatrix/elp round trip changed entries"]


def _check_nrecon(g: Graph) -> list:
    fails = []
    rec = reconstruct(deckmod.strip(deckmod.nmatrix(g)))
    tp = rec.top
    if tp.charpoly.coeffs != charpoly_oracle(g).coeffs:
        fails.append("charpoly mismatch")
    if tp.ham != ham_oracle(g):
        fails.append("ham mismatch")
    if tp.tr != tr_oracle(g):
        fails.append("tr mismatch")
    for i in range(2, g.n + 1):
        if tp.psi.get(i, 0) != psi_oracle(g, i):
            fails.append(f"psi_{i} mismatch")
    for r in range(3, g.n + 1):
        if tp.uni.get(r, 0) != uni_oracle(g, r):
            fails.append(f"uni_{r} mismatch")
    return fails


def _check_rankpoly(g: Graph) -> list:
    rec = reconstruct(deckmod.strip(deckmod.nmatrix(g)))
    return [] if rec.rankpoly() == rankpoly_oracle(g) else ["rank polynomial mismatch"]


def _check_polydeck(g: Graph) -> list:
    d = pdmod.build_polydeck(g)
    want = charpoly_oracle(g).coeffs
    degs = pdmod.degree_sequence(d)
    if degs is not None and 1 in degs:
        got = pdmod.charpoly_from_polydeck(d)
        return [] if got.coeffs == want else ["degree-1 polydeck charpoly mismatch"]
    if ham_oracle(g) == 0:
        got = pdmod.charpoly_from_polydeck(d, assert_nonhamiltonian=True)
        return [] if got.coeffs == want else ["asserted polydeck charpoly mismatch"]
    try:
        pdmod.charpoly_from_polydeck(d)
        return ["hamiltonian graph without degree-1 vertex was not rejected"]
    except NotReconstructibleError:
        return []


def _check_vertexdeck(g: Graph) -> list:
    got = charpoly_from_vertex_deck(vertex_deck(g))
    return [] if got.coeffs == charpoly_oracle(g).coeffs else ["vertex deck charpoly mismatch"]


def count_type_chain(g: Graph, members) -> int:
    """`whitney.count_type` as the chain sum of Kocay's identity; exponential.

    The identity, solved for <G, S0> and substituted into itself, sums over
    the chains of distinct types S0 -> ... -> T, so the `whitney-chain` check
    compares it with the memoised recursion.
    """
    total = Fraction(0)

    def walk(root, q, acc):
        nonlocal total
        table = covers_of_type(root, g.n)
        p = prod(count_subgraphs(g, code_graph(code)) for code in root)
        total += Fraction((-1) ** q * p, table.self_cover) * acc
        for tk, c in table.by_type.items():
            if tk != root:
                walk(tk, q + 1, acc * Fraction(c, table.self_cover))

    walk(type_key(members), 0, Fraction(1))
    if total.denominator != 1:
        raise ConsistencyError("chain sum is not integral")
    return int(total)


def _check_whitney_chain(g: Graph) -> list:
    return [f"chain sum != recursion for {len(fams)}-block type" for fams in CHAIN_TYPES
            if count_type(g, fams) != count_type_chain(g, fams)]


@lru_cache(maxsize=16)  # orders 1..8, with and without isolated vertices
def _small_types(max_n: int, with_isolated: bool) -> tuple:
    return tuple(h for h in all_graphs(max_n)
                 if with_isolated or not h.has_isolated_vertex())


def _check_kelly(g: Graph) -> list:
    fails = []
    d = vertex_deck(g)
    for f in _small_types(g.n - 1, with_isolated=False):
        if f.e == 0:
            continue
        if kelly_count(d, f) != count_subgraphs(g, f):
            fails.append("kelly subgraph count mismatch")
    for f in _small_types(g.n - 1, with_isolated=True):
        if kelly_count(d, f, induced=True) != count_induced(g, f):
            fails.append("kelly induced count mismatch")
    return fails


@lru_cache(maxsize=1024)
def _kocay_covers(code: bytes) -> tuple:
    """The covers of the type with this canonical code by each factor list of _KOCAY_TYPES."""
    return tuple(cover_count_oracle(list(fams), code_graph(code)) for fams in _KOCAY_TYPES)


def _check_kocay(g: Graph) -> list:
    fails = []
    counts = {}
    for m in range(1, g.e + 1):
        for code, cnt in subgraph_type_table(g, m).items():
            counts[code] = counts.get(code, 0) + cnt
    for i, fams in enumerate(_KOCAY_TYPES):
        lhs = 1
        for f in fams:
            lhs *= counts.get(canonical_code(f), 0)
        rhs = sum(_kocay_covers(code)[i] * cnt for code, cnt in counts.items())
        if lhs != rhs:
            fails.append(f"kocay identity violated for {len(fams)} factors")
    return fails


def _check_derivative(g: Graph) -> list:
    lhs = charpoly_oracle(g).derivative()
    total = None
    for card in vertex_deck(g):
        p = charpoly_oracle(card)
        total = p if total is None else total.add(p)
    return [] if lhs.coeffs == total.coeffs else ["derivative identity violated"]


def _check_childdeck(g: Graph) -> list:
    nm = deckmod.strip(deckmod.nmatrix(g))
    got = {tuple(sub.rows): mult for sub, mult in deckmod.child_nmatrices(nm)}
    want = {}
    for u in range(g.n):
        card = induced_subgraph(g, set(range(g.n)) - {u})
        if card.e == 0:
            continue
        key = deckmod.canonical_nmatrix(deckmod.strip(deckmod.nmatrix(card))).rows
        want[key] = want.get(key, 0) + 1
    return [] if got == want else ["child matrices disagree with direct computation"]


@lru_cache(maxsize=16)
def _eq1_rows(n: int) -> tuple:
    """The side of eq1 that does not depend on g, for graphs of order n.

    One row (f, ((code of h, s(f, h)), ...)) per type f without isolated
    vertices and v(f) <= n, over the types h with v(h) = v(f) and
    s(f, h) > 0.  The copies of such an f in h span h, and the counts come
    from the edge decks of the types of each order, taken in increasing e:
    a copy of f survives in exactly e(h) - e(f) of the cards h - x, so
    s(h, h) = 1 and s(f, h) = sum_x s(f, h - x) / (e(h) - e(f)).  A card with
    an isolated vertex holds no spanning f and adds nothing.
    """
    types = [(h, canonical_code(h)) for h in _small_types(n, with_isolated=False)]
    s = {}  # code of h -> {code of f: s(f, h)}
    for h, hc in sorted(types, key=lambda t: (t[0].n, t[0].e)):
        total = {}
        for x in h.edges:
            card = Graph(h.n, h.edges - {x})
            if not card.has_isolated_vertex():
                for fc, cnt in s[canonical_code(card)].items():
                    total[fc] = total.get(fc, 0) + cnt
        s[hc] = {hc: 1}
        for fc, cnt in total.items():
            q, r = divmod(cnt, h.e - code_graph(fc).e)
            if r:
                raise ConsistencyError(f"edge-deck counts of type {fc.hex()} in {h} "
                                       f"sum to {cnt}, not a multiple of e(h) - e(f)")
            s[hc][fc] = q
    return tuple((f, tuple((hc, s[hc][fc]) for h, hc in types if h.n == f.n and fc in s[hc]))
                 for f, fc in types)


def _check_eq1(g: Graph) -> list:
    counts = subset_table(g).counts
    for f, row in _eq1_rows(g.n):
        if count_subgraphs(g, f) != sum(counts.get(code, 0) * s for code, s in row):
            return ["subgraph/induced relation violated"]
    return []


def _check_emptycount(g: Graph) -> list:
    nm = deckmod.strip(deckmod.nmatrix(g))
    for r in range(2, g.n + 1):
        if deckmod.count_empty_induced(nm, r) != count_induced(g, empty_graph(r)):
            return [f"empty-subgraph count mismatch at r={r}"]
    return []


def _check_elp_aut(g: Graph) -> list:
    elp = deckmod.elp_from_nmatrix(deckmod.nmatrix(g))
    auts = deckmod.elp_automorphisms(elp)
    return [f"nontrivial ELP automorphism {a}" for a in auts]


def _always(g: Graph) -> bool:
    return True


def _small(g: Graph) -> bool:
    return g.n <= 5


class Check(NamedTuple):
    """A registry entry: which graphs the check applies to, and the check."""

    applies: Callable[[Graph], bool]
    run: Callable[[Graph], list]


CHECKS = {
    "roundtrip": Check(_always, _check_roundtrip),
    "nrecon": Check(_always, _check_nrecon),
    "rankpoly": Check(_always, _check_rankpoly),
    "polydeck": Check(_always, _check_polydeck),
    "vertexdeck": Check(lambda g: g.n >= 3, _check_vertexdeck),
    "whitney-chain": Check(_small, _check_whitney_chain),
    "kelly": Check(lambda g: 3 <= g.n <= 5, _check_kelly),
    "kocay-identity": Check(_small, _check_kocay),
    "derivative": Check(_always, _check_derivative),
    "childdeck": Check(_always, _check_childdeck),
    "eq1": Check(_always, _check_eq1),
    "emptycount": Check(_always, _check_emptycount),
    "elp-aut": Check(_always, _check_elp_aut),
}

# elp-aut reports candidates, never failures
CANDIDATES = {"elp-aut"}


class _Raised(str):
    """The failure text of a check that raised: a failure even for a candidate check."""


def is_candidate(name: str, fails: list) -> bool:
    """Whether a check's nonempty result is counterexample candidates rather than failures."""
    return bool(fails) and name in CANDIDATES and not isinstance(fails[0], _Raised)


def run_checks(g: Graph, names) -> dict:
    """name -> failures of each named check on g; a check that does not apply gives []."""
    out = {}
    for name in names:
        check = CHECKS[name]
        try:
            out[name] = check.run(g) if check.applies(g) else []
        except ReconkitError as exc:
            out[name] = [_Raised(f"{type(exc).__name__}: {exc}")]
    return out


def golden() -> list:
    """Failures of the prism's N-matrix and poset against the published table and diagram."""
    prism = parse_graph6("E{Sw")
    nm = deckmod.nmatrix(prism)
    expected = (
        (1, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0, 0, 0),
        (2, 0, 1, 0, 0, 0, 0, 0, 0),
        (3, 0, 0, 1, 0, 0, 0, 0, 0),
        (3, 2, 2, 0, 1, 0, 0, 0, 0),
        (4, 1, 2, 1, 0, 1, 0, 0, 0),
        (4, 0, 4, 0, 0, 0, 1, 0, 0),
        (6, 3, 6, 1, 2, 2, 1, 1, 0),
        (9, 6, 12, 2, 6, 6, 3, 6, 1),
    )
    fails = []
    if nm.rows != expected:
        fails.append("prism N-matrix differs from the published table")
    elp = deckmod.elp_from_nmatrix(nm)
    if elp.size != 9 or len(elp.covers) != 13:
        fails.append("prism poset shape differs from the published diagram")
    if sorted(lab for _j, _i, lab in elp.covers) != [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 4, 6]:
        fails.append("prism cover labels differ from the published diagram")
    return fails
