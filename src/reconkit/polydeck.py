"""Characteristic polynomial from the complete polynomial deck.

The deck holds P(G_Y) for every nonempty proper vertex subset Y.  Low
coefficients follow from the derivative identity.  For the constant term,
the signed cover sum c(lambda -> G) of a partition lambda of n sums the
product of Sachs weights over the tuples of elementary subgraphs of G with
orders lambda_1, .., lambda_k; it is Moebius-computable from the deck alone
whenever k >= 2.  The exponential formula (Stanley, EC2 5.1) then gives

    c_n = (-1)^n * sum over partitions lambda of n into k >= 2 parts >= 2 of
              (-1)^k (k - 1)! c(lambda -> G) / prod of m_i!,

where m_i are the multiplicities of the parts of lambda.

* The division is exact.  The parts sum to n, so the members of each tuple
  are vertex-disjoint, and swapping equal parts permutes the tuples without
  fixed points.
* The sum is right.  A spanning elementary subgraph with c components is
  split into k ordered nonempty groups of components in k! S(c, k) ways, and
  sum over k of (-1)^(k - 1) (k - 1)! S(c, k) is 1 if c = 1, else 0.  So the
  sum over all k >= 1 keeps only the connected, hamiltonian term.  Its
  k = 1 term is (-1)^n c_n itself, and moving it across gives the formula
  above plus that hamiltonian term.

The hamiltonian term is out of reach, so the method applies when a degree-1
vertex is recognised in the deck, or when the caller asserts
non-hamiltonicity; either sets that term to 0.

The deck itself is built in one pass over the vertex subsets of G.  By
Sachs' theorem, coefficient k of P(G[S]) is (-1)^k times the sum of E(T)
over the k-subsets T of S, where E(T) is the sum, over the spanning
elementary subgraphs H of G[T] (vertex-disjoint edges and cycles covering
T), of (-1)^(|T| - components of H) * 2^(cycles of H).  The component of
such an H that holds v = min T is an edge {v, u} or a cycle C through v, so

    E(T) = - sum over u in N(v) & T of E(T - {u, v})
           + sum over C with v in C, C in T, |C| >= 3 of
                 2 (-1)^(|C| - 1) hc(C) E(T - C),

with E(empty) = 1, where hc(C) is the number of hamiltonian cycles of G[C],
read from `graphcore.cycles_on_sets`.  The recursion shares no code with
`oracle.charpoly_oracle`, which counts no cycles and stays its witness.

The sums over T in S, one per size, are a subset-sum transform of the E
table, done on packed rows: the row of S is the one int sum over k of
r_k 2^(W k), so one int addition adds all n + 1 fields, and since packing is
linear over the integers the packed transform is exactly the transform of
the fields.  E(T) = det A[T], a sum of |T|! terms of 0 or +-1, so
|E(T)| <= |T|!; every field, partial sums included, is a signed sum of at
most C(n, k) such E(T) with |T| = k, so |r_k| <= C(n, k) k! <= n!.  W is the
narrowest signed struct field, of 1, 2, 4 or 8 bytes, with 2^(W - 1) > n!,
which caps n at 20.  Adding 2^(W - 1) to every field of the empty set's row
adds it once to every row, since the empty set lies in every S, and puts
each field in [0, 2^W): the base-2^W digits of a row are then its biased
fields, with no borrow between them.  Flipping the top bit of each digit
leaves the W-bit two's complement of each field, which `struct` reads back.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, factorial
from struct import Struct, calcsize

from .combi import (Polynomial, card_sum_coeffs, exact_div, json_int, multiset_symmetry,
                    partitions_min2)
from .errors import DomainError, InconsistentDeckError, NotReconstructibleError
from .graphcore import Graph, adjacency_masks, cycles_on_sets

__all__ = [
    "PolyDeck",
    "build_polydeck",
    "charpoly",
    "low_coeffs",
    "c_lambda",
    "charpoly_from_polydeck",
    "polydeck_to_json",
    "polydeck_from_json",
]


@dataclass(frozen=True)
class PolyDeck:
    """Multiset of P(G - S) over nonempty proper S, with the order of G."""

    n: int
    polys: tuple  # tuple of coefficient tuples c_0..c_d

    def __post_init__(self):
        # n comes from untrusted JSON: bound it by the entry count before 2^n is formed
        size = len(self.polys) + 2
        if self.n < 2 or self.n > size.bit_length() or size != 1 << self.n:
            raise InconsistentDeckError(
                f"expected 2^n - 2 entries for n={self.n}, got {len(self.polys)}")
        # an entry of degree k is P(G[S]) for one of the C(n, k) k-sets S
        degs = Counter(len(p) - 1 for p in self.polys)
        for k in range(1, self.n):
            if degs[k] != comb(self.n, k):
                raise InconsistentDeckError(
                    f"expected {comb(self.n, k)} entries of degree {k}, got {degs[k]}")
        for p in self.polys:
            if p[0] != 1:
                raise InconsistentDeckError("every entry must be monic")
            if len(p) == 2 and tuple(p) != (1, 0):
                raise InconsistentDeckError("single-vertex entries must equal lambda")

    def entries_of_degree(self, d: int) -> list:
        return [p for p in self.polys if len(p) - 1 == d]

    @cached_property
    def low(self) -> tuple:
        """`low_coeffs(self)`, computed once per deck."""
        return low_coeffs(self)


def _elementary_sums(g: Graph) -> list:
    """E(T) for every vertex mask T of g, by the recursion of the module docstring."""
    masks = adjacency_masks(g)
    cycles = [[] for _ in range(g.n)]  # per vertex v, (C, 2 (-1)^(|C| - 1) hc(C)), min C = v
    for c, hc in cycles_on_sets(g).items():
        cycles[(c & -c).bit_length() - 1].append((c, 2 * hc if c.bit_count() % 2 else -2 * hc))
    e = [0] * (1 << g.n)
    e[0] = 1
    for t in range(1, 1 << g.n):
        low = t & -t
        v = low.bit_length() - 1
        rest = t ^ low
        total = 0
        nbrs = masks[v] & rest
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            total -= e[rest ^ b]
        for c, w in cycles[v]:
            if c & t == c:
                total += w * e[t ^ c]
        e[t] = total
    return e


def charpoly(g: Graph) -> Polynomial:
    """P(G): coefficient k is (-1)^k times the sum of E(T) over the k-sets T."""
    acc = [0] * (g.n + 1)
    for t, val in enumerate(_elementary_sums(g)):
        acc[t.bit_count()] += val
    return Polynomial(tuple(-c if k % 2 else c for k, c in enumerate(acc)))


def _field_code(n: int) -> str:
    """The narrowest signed struct code whose field holds every value in [-n!, n!]."""
    bits = factorial(n).bit_length()
    for code in "bhiq":
        if 8 * calcsize("<" + code) > bits:
            return code
    raise DomainError(f"polynomial deck of {n} vertices: its fields need more than 64 bits")


def build_polydeck(g: Graph) -> PolyDeck:
    """P(G_Y) for every nonempty proper subset Y of the vertex set, for 2 <= n <= 20.

    Entries come by size, then in the lexicographic order of the subsets.
    The row of S is one int with field k at bit W k, and starts as
    (-1)^k E(S) in field k = |S|.  Adding, for one vertex at a time, the row
    of S without that vertex to each S that holds it leaves the sum of
    (-1)^k E(T) over the k-sets T in S in field k: coefficient k of P(G[S]).
    No field, partial sums included, exceeds n! in magnitude, and a field of
    W bits with 2^(W - 1) > n! holds each one exactly; the bias 2^(W - 1) per
    field, added to the empty set's row, reaches every row once, so the
    fields read back from the row's digits with no borrow (module docstring).
    """
    n = g.n
    if n < 2:
        raise DomainError("polynomial deck needs at least 2 vertices")
    code = _field_code(n)
    width = 8 * calcsize("<" + code)
    rows = []
    for t, val in enumerate(_elementary_sums(g)):
        k = t.bit_count()
        rows.append((-val if k % 2 else val) << (width * k))
    bias = sum(1 << (width * k + width - 1) for k in range(n + 1))
    rows[0] += bias
    for i in range(n):
        bit = 1 << i
        for s in range(1 << n):
            if s & bit:
                rows[s] += rows[s ^ bit]
    polys = []
    bits = [1 << v for v in range(n)]
    for size in range(1, n):
        # fields above |S| are 0 once the bias is flipped off, so size + 1 fields hold the row
        nbytes = (size + 1) * width // 8
        polys += Struct(f"<{size + 1}{code}").iter_unpack(b"".join(
            [(rows[sum(c)] ^ bias).to_bytes(nbytes, "little") for c in combinations(bits, size)]))
    return PolyDeck(n, tuple(polys))


def low_coeffs(d: PolyDeck) -> tuple:
    """c_0 .. c_{n-1} of G from the degree-(n-1) deck entries (derivative identity)."""
    return card_sum_coeffs(d.entries_of_degree(d.n - 1), d.n)


def _p_value(coeffs, parts) -> int:
    """Sum over tuples of elementary subgraphs: prod of (-1)^a * c_a readings.

    Every part must be below len(coeffs).
    """
    val = 1
    for a in parts:
        val *= (-1) ** a * coeffs[a]
        if val == 0:
            return 0
    return val


def c_lambda(d: PolyDeck, parts) -> int:
    """Signed spanning cover sum c(parts -> G), Moebius-inverted over the deck.

    Every part must be at most n-1: the subset sum needs the product of low
    coefficients on the full vertex set, and c_n(G) is exactly what the deck
    withholds.  Entries of degree below the largest part are skipped: their
    reading of that coefficient is 0, and so is their product.
    """
    parts = tuple(sorted(parts, reverse=True))
    if not parts or parts[-1] < 2:
        raise DomainError("parts must be >= 2")
    top = parts[0]
    if top >= d.n:
        raise DomainError(f"part {top} >= n={d.n} is not computable from the deck")
    total = _p_value(d.low, parts)
    for p in d.polys:
        if len(p) > top:
            total += (-1) ** (d.n - len(p) + 1) * _p_value(p, parts)
    return total


def degree_sequence(d: PolyDeck) -> tuple | None:
    """Vertex degrees recovered from c_2 differences, or None when n = 2.

    c_2 counts edges up to sign, so each degree-(n-1) entry reveals the degree
    of its deleted vertex.  At n = 2 the deck determines no edge count at all:
    K2 and 2K1 have identical decks.
    """
    if d.n < 3:
        return None
    e_total = -d.low[2]
    degs = []
    for p in d.entries_of_degree(d.n - 1):
        degs.append(e_total + p[2])
    return tuple(sorted(degs))


def charpoly_from_polydeck(d: PolyDeck, assert_nonhamiltonian: bool = False) -> Polynomial:
    """P(G) from the complete polynomial deck.

    c_0 .. c_{n-1} are the derivative identity's, and c_n is the alternating
    sum of the module docstring.  Requires a recognised degree-1 vertex,
    which rules out hamiltonian cycles, or an explicit assertion that
    ham(G) = 0.  Otherwise raises NotReconstructibleError rather than
    guessing.  A deck no graph has raises InconsistentDeckError: degree-(n-1)
    entries that fail the derivative identity (`combi.card_sum_coeffs`), or a
    symmetry division with a remainder.
    """
    degs = degree_sequence(d)
    if not assert_nonhamiltonian:
        if degs is None:
            raise NotReconstructibleError(
                "n = 2 decks carry no edge information; pass the assertion flag "
                "only if the graph is known non-hamiltonian")
        if 1 not in degs:
            raise NotReconstructibleError(
                "no degree-1 vertex recognised and non-hamiltonicity not asserted")
    total = 0
    for parts in partitions_min2(d.n):
        k = len(parts)
        if k < 2:
            continue  # the hamiltonian term, zero by premise
        q = exact_div(c_lambda(d, parts), multiset_symmetry(parts),
                      f"c({parts} -> G) over its symmetry", InconsistentDeckError)
        total += (-1) ** k * factorial(k - 1) * q
    return Polynomial(d.low + ((-1) ** d.n * total,))


def polydeck_to_json(d: PolyDeck) -> dict:
    return {"n": d.n, "polys": [list(p) for p in d.polys]}


def polydeck_from_json(obj: dict) -> PolyDeck:
    try:
        n = json_int(obj["n"])
        polys = tuple(tuple(json_int(c) for c in p) for p in obj["polys"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InconsistentDeckError(f"bad polynomial deck JSON: {exc}") from exc
    return PolyDeck(n, polys)
