"""The verification registry: every per-graph check of the sweep, and `golden`.

Each check takes the subject of a graph to which it applies (see `CHECKS`)
and returns its failure strings; an empty list means the graph passed.
`run_checks` runs named checks on one graph, and `golden` compares the prism
with the published table and diagram.  The `reconkit sweep` command, the
acceptance suite and the sweep demo all run their checks from here.

The subject holds the work per graph: g's stripped N-matrix, its poset, the
reconstruction from it, the vertex deck, the oracle charpoly and ham, and
the subgraph counts by type, each built on first use, read-only, and dropped
when `run_checks` returns.  The work per type is done once per process, in
bounded caches that take no graph: the chain weights of each type and
order, the Kocay covers of each subgraph type, the canonical matrix of each
card type, and eq1's rows of each order.  No check compares one shared
value with another: `nrecon` and `rankpoly` hold the reconstruction against
oracles, `roundtrip` the matrix against the one it refills from the poset,
`kocay-identity` and `eq1` the counts against `cover_count_oracle` and the
subset table.  `whitney-chain` holds `count_type`, which reads the rows of
each root with at most one block besides K2 in closed form, against the
chain sum over the tables that `covers_of_type` glues, those roots' included.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import lcm, prod
from typing import Callable, NamedTuple

from . import deck as deckmod
from . import polydeck as pdmod
from .combi import card_sum_coeffs, exact_div, multiset_symmetry
from .errors import ConsistencyError, NotReconstructibleError, ReconkitError
from .graphcore import (Graph, all_graphs, complete, cycle, empty_graph,
                        parse_graph6, path, vertex_deck)
from .isotype import (canonical_code, code_graph, count_induced, count_subgraphs,
                      kelly_count, subset_table)
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
# their type keys and factor codes, canonicalised once per process
_CHAIN_KEYS = tuple(type_key(fams) for fams in CHAIN_TYPES)
_KOCAY_CODES = tuple(tuple(canonical_code(f) for f in fams) for fams in _KOCAY_TYPES)


class _Subject:
    """One graph's shared artifacts for one `run_checks` call; see the module docstring."""

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def matrix(self):
        return deckmod.strip(deckmod.nmatrix(self.g))

    @cached_property
    def poset(self):
        return deckmod.elp_from_nmatrix(self.matrix)

    @cached_property
    def reconstruction(self):
        return reconstruct(self.matrix)

    @cached_property
    def deck(self):
        return vertex_deck(self.g)

    @cached_property
    def charpoly(self):
        return charpoly_oracle(self.g)

    @cached_property
    def ham(self):
        return ham_oracle(self.g)

    @cached_property
    def subgraph_counts(self):
        """code -> copies in g, over the types without isolated vertices and v <= n."""
        return {code: count_subgraphs(self.g, f) for f, code in _small_codes(self.g.n)}


def _check_roundtrip(s: _Subject) -> list:
    rt = deckmod.nmatrix_from_elp(s.poset)
    return [] if rt.rows == s.matrix.rows else ["nmatrix/elp round trip changed entries"]


def _check_nrecon(s: _Subject) -> list:
    g, fails = s.g, []
    tp = s.reconstruction.top
    if tp.charpoly.coeffs != s.charpoly.coeffs:
        fails.append("charpoly mismatch")
    if tp.ham != s.ham:
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


def _check_rankpoly(s: _Subject) -> list:
    ok = s.reconstruction.rankpoly() == rankpoly_oracle(s.g)
    return [] if ok else ["rank polynomial mismatch"]


def _check_polydeck(s: _Subject) -> list:
    d = pdmod.build_polydeck(s.g)
    want = s.charpoly.coeffs
    degs = pdmod.degree_sequence(d)
    if degs is not None and 1 in degs:
        got = pdmod.charpoly_from_polydeck(d)
        return [] if got.coeffs == want else ["degree-1 polydeck charpoly mismatch"]
    if s.ham == 0:
        got = pdmod.charpoly_from_polydeck(d, assert_nonhamiltonian=True)
        return [] if got.coeffs == want else ["asserted polydeck charpoly mismatch"]
    try:
        pdmod.charpoly_from_polydeck(d)
        return ["hamiltonian graph without degree-1 vertex was not rejected"]
    except NotReconstructibleError:
        return []


def _check_vertexdeck(s: _Subject) -> list:
    got = charpoly_from_vertex_deck(s.deck)
    return [] if got.coeffs == s.charpoly.coeffs else ["vertex deck charpoly mismatch"]


# One entry per chain type and order: 19 x 4 = 76 in any sweep, since
# `whitney-chain` runs on graphs with 2 to 5 vertices.
@lru_cache(maxsize=128)
def _chain_weights(root: tuple, n: int) -> tuple:
    """The chain sum's coefficients for a type key and graphs of order n.

    Kocay's identity, solved for <G, S0> and substituted into itself, gives
    <G, S0> as a sum over the chains S0 -> S1 -> ... -> Sq = T of distinct
    types, each weighing prod <G, block of T> by
    (-1)^q / c(T, T) * prod_{i<q} c(S_i, S_{i+1}) / c(S_i, S_i), where
    c(S, S) is S's block symmetry, `multiset_symmetry(S)`.
    Every chain is enumerated once per key, and the weights are summed per
    T: the result is ((T, weight), ...) as integers over one denominator,
    and that denominator.
    """
    weights = {}

    def walk(tk, q, acc):
        sym = multiset_symmetry(tk)
        weights[tk] = weights.get(tk, 0) + (-1) ** q * acc / sym
        for sub, c in covers_of_type(tk, n).by_type.items():
            if sub != tk:
                walk(sub, q + 1, acc * Fraction(c, sym))

    walk(root, 0, Fraction(1))
    den = lcm(*(w.denominator for w in weights.values()))
    return tuple((tk, w.numerator * (den // w.denominator))
                 for tk, w in weights.items() if w), den


def count_type_chain(g: Graph, key: tuple) -> int:
    """`whitney.count_type` as the chain sum of Kocay's identity.

    The weights of `_chain_weights` depend on the type key and g.n only, so
    the `whitney-chain` check compares this sum with the plan's evaluation.
    """
    weights, den = _chain_weights(key, g.n)
    total = sum(w * prod(count_subgraphs(g, code_graph(code)) for code in tk)
                for tk, w in weights)
    return exact_div(total, den, "chain sum", ConsistencyError)


def _check_whitney_chain(s: _Subject) -> list:
    return [f"chain sum != recursion for {len(key)}-block type" for key in _CHAIN_KEYS
            if count_type(s.g, key) != count_type_chain(s.g, key)]


@lru_cache(maxsize=16)  # orders 1..8, with and without isolated vertices
def _small_types(max_n: int, with_isolated: bool) -> tuple:
    return tuple(h for h in all_graphs(max_n)
                 if with_isolated or not h.has_isolated_vertex())


@lru_cache(maxsize=8)  # orders 1..8
def _small_codes(max_n: int) -> tuple:
    """(f, code of f) for the types of `_small_types(max_n, False)`, in its order."""
    return tuple((f, canonical_code(f)) for f in _small_types(max_n, with_isolated=False))


def _check_kelly(s: _Subject) -> list:
    g, fails = s.g, []
    cards = tuple(Counter(s.deck).items())
    for f in _small_types(g.n - 1, with_isolated=False):
        if kelly_count(cards, f) != count_subgraphs(g, f):
            fails.append("kelly subgraph count mismatch")
    for f in _small_types(g.n - 1, with_isolated=True):
        if kelly_count(cards, f, induced=True) != count_induced(g, f):
            fails.append("kelly induced count mismatch")
    return fails


@lru_cache(maxsize=1024)
def _kocay_covers(code: bytes) -> tuple:
    """The covers of the type with this canonical code by each factor list of _KOCAY_TYPES."""
    return tuple(cover_count_oracle(list(fams), code_graph(code)) for fams in _KOCAY_TYPES)


def _check_kocay(s: _Subject) -> list:
    fails = []
    counts = s.subgraph_counts
    for i, fams in enumerate(_KOCAY_CODES):
        lhs = prod(counts.get(code, 0) for code in fams)
        rhs = sum(_kocay_covers(code)[i] * cnt for code, cnt in counts.items() if cnt)
        if lhs != rhs:
            fails.append(f"kocay identity violated for {len(fams)} factors")
    return fails


def _check_derivative(s: _Subject) -> list:
    got = card_sum_coeffs([charpoly_oracle(card) for card in s.deck], s.g.n)
    return [] if got == s.charpoly.coeffs[:-1] else ["derivative identity violated"]


# One entry per card type with an edge: 202 in a whole n <= 7 sweep, 1,245 at n <= 8.
@lru_cache(maxsize=2048)
def _card_matrix(code: bytes) -> tuple:
    """The rows of the canonical stripped N-matrix of the card a code spells."""
    return deckmod.canonical_nmatrix(deckmod.strip(deckmod.nmatrix(code_graph(code)))).rows


def _check_childdeck(s: _Subject) -> list:
    got = {tuple(sub.rows): mult for sub, mult in deckmod.child_nmatrices(s.matrix)}
    want = {}
    for card in s.deck:
        if card.e == 0:
            continue
        key = _card_matrix(canonical_code(card))
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
    types = _small_codes(n)
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
            s[hc][fc] = exact_div(cnt, h.e - code_graph(fc).e,
                                  f"edge-deck counts of type {fc.hex()} in {h}", ConsistencyError)
    return tuple((f, tuple((hc, s[hc][fc]) for h, hc in types if h.n == f.n and fc in s[hc]))
                 for f, fc in types)


def _check_eq1(s: _Subject) -> list:
    induced = subset_table(s.g).counts
    # both list the types of `_small_types(n, False)` in its order
    for copies, (_f, row) in zip(s.subgraph_counts.values(), _eq1_rows(s.g.n)):
        if copies != sum(induced.get(code, 0) * k for code, k in row):
            return ["subgraph/induced relation violated"]
    return []


def _check_emptycount(s: _Subject) -> list:
    for r in range(2, s.g.n + 1):
        if deckmod.count_empty_induced(s.matrix, r) != count_induced(s.g, empty_graph(r)):
            return [f"empty-subgraph count mismatch at r={r}"]
    return []


def _check_elp_aut(s: _Subject) -> list:
    return [f"nontrivial ELP automorphism {a}" for a in deckmod.elp_automorphisms(s.poset)]


def _always(g: Graph) -> bool:
    return True


def _small(g: Graph) -> bool:
    return g.n <= 5


class Check(NamedTuple):
    """A registry entry: which graphs the check applies to, and the check on a graph's subject."""

    applies: Callable[[Graph], bool]
    run: Callable[[_Subject], list]


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
    """name -> failures of each named check on g; a check that does not apply gives [].

    The checks share one subject of g.  An artifact that raises is not kept,
    so each check that reads it records its own error.
    """
    subject, out = _Subject(g), {}
    for name in names:
        check = CHECKS[name]
        try:
            out[name] = check.run(subject) if check.applies(g) else []
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
