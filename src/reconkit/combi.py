"""Small exact-arithmetic helpers shared by the reconstruction pipelines and the oracles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from math import factorial

from .errors import InconsistentDeckError, InvalidMatrixError

__all__ = [
    "Polynomial",
    "json_int",
    "exact_div",
    "multiset_symmetry",
    "sachs_constant",
    "sachs_weight",
    "card_sum_coeffs",
    "partitions_min2",
    "multiset_partitions",
    "labeled_partition_count",
    "grouped_cover_partitions",
]


def json_int(x) -> int:
    """x if it is a JSON integer, else TypeError: 1.9, "1" and true are not read as 1."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def exact_div(a: int, b: int, what: str = "value", error=InvalidMatrixError) -> int:
    """a // b, or `error` naming `what` when b does not divide a.

    A remainder proves that no graph has the data; the caller's `error` says
    whether a matrix or poset, a deck, or an internal table was refused.
    """
    q, r = divmod(a, b)
    if r:
        raise error(f"{what}: {a} is not divisible by {b}")
    return q


def multiset_symmetry(items) -> int:
    """Product of m! over the multiplicities m of a multiset given as a sequence."""
    sym = 1
    for x in set(items):
        sym *= factorial(items.count(x))
    return sym


@dataclass(frozen=True)
class Polynomial:
    """Characteristic polynomial sum(c_i * lambda^(n-i)), stored as c_0..c_n."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __str__(self):
        n = self.degree
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            p = n - i
            lam = "" if p == 0 else ("x" if p == 1 else f"x^{p}")
            terms.append(f"{c:+d}{lam}")
        return " ".join(terms) or "0"


def sachs_constant(n: int, count) -> int:
    """c_n = (-1)^n * sum over lambda of sachs_weight(lambda) * count(lambda).

    lambda runs over the partitions of n into parts >= 2 (the one-part,
    hamiltonian partition first); `count(lambda)` is the number of spanning
    elementary subgraphs with one K2 per part 2 and one C_r per part r >= 3.
    """
    return (-1) ** n * sum(sachs_weight(parts) * count(parts)
                           for parts in partitions_min2(n))


def sachs_weight(parts) -> int:
    """(-1)^(n - len) * 2^cycles: the Sachs weight of the elementary graph of `parts`.

    n is the sum of the parts, and every part r >= 3 is a cycle C_r.
    """
    cycles = sum(1 for p in parts if p >= 3)
    return (-1) ** (sum(parts) - len(parts)) * 2 ** cycles


def card_sum_coeffs(cards, n: int) -> tuple:
    """c_0 .. c_{n-1} of an n-vertex graph from the polynomials of its n vertex-deleted cards.

    Derivative identity: P'(G) is the sum of the card polynomials, so c_i(G)
    is the sum of the cards' c_i divided by n - i, and a remainder refuses
    the cards.  For n >= 3 the cards are refused too when some card's
    deleted vertex has a degree e(G) - e(card) = c_2(card) - c_2(G) outside
    0..n-1, since c_2 = -e.  The index-2 division is the edge count's: each
    edge lies in the n - 2 cards that keep both its ends.
    """
    out = tuple(exact_div(sum(p[i] for p in cards), n - i,
                          f"card coefficient sum at index {i}", InconsistentDeckError)
                for i in range(n))
    if n >= 3:
        for p in cards:
            if not 0 <= p[2] - out[2] <= n - 1:
                raise InconsistentDeckError(f"a card with c_2 = {p[2]} leaves its vertex "
                                            f"degree {p[2] - out[2]}, outside 0..{n - 1}")
    return out


@lru_cache(maxsize=128)
def partitions_min2(n: int, largest: int | None = None) -> tuple:
    """Partitions of n into non-increasing parts >= 2, as tuples."""
    if largest is None:
        largest = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, largest), 1, -1):
        if n - first == 1:
            continue
        for rest in partitions_min2(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def _sub_multisets(ms: tuple):
    """All distinct sub-multisets of a sorted multiset."""
    if not ms:
        yield ()
        return
    val = ms[0]
    mult = sum(1 for x in ms if x == val)
    rest = ms[mult:]
    for tail in _sub_multisets(rest):
        for take in range(mult + 1):
            yield (val,) * take + tail


def _multiset_minus(ms: tuple, sub: tuple) -> tuple:
    out = list(ms)
    for x in sub:
        out.remove(x)
    return tuple(out)


def multiset_partitions(ms: tuple, bound: tuple | None = None):
    """All partitions of a sorted (descending) multiset into unordered parts.

    Parts are produced in non-increasing tuple order, which makes each
    partition appear exactly once even when the multiset has repeats.
    """
    if not ms:
        yield ()
        return
    first, rest = ms[0], ms[1:]
    for sub in _sub_multisets(rest):
        part = tuple(sorted((first,) + sub, reverse=True))
        if bound is not None and part > bound:
            continue
        remaining = _multiset_minus(rest, sub)
        for tail in multiset_partitions(remaining, part):
            yield (part,) + tail


def labeled_partition_count(values: tuple, listing: tuple) -> int:
    """Number of (set partition, size label) pairs realising a given signature.

    `values` is the multiset being partitioned; `listing` is a tuple of
    (part multiset, label) pairs.  Counts partitions of the *index set* of
    `values` whose parts, read as value multisets with their labels, form
    exactly this multiset of pairs.
    """
    den = multiset_symmetry(listing)
    for part, _b in listing:
        den *= multiset_symmetry(part)
    return exact_div(multiset_symmetry(values), den, "labelled partition count")


@lru_cache(maxsize=4096)
def grouped_cover_partitions(values: tuple, v: int) -> tuple:
    """Signatures (listing, count) of labelled partitions with >= 2 parts.

    Enumerates multisets of (sub-multiset of `values`, size b) pairs where the
    sub-multisets partition `values`, every b >= max(2, max of its part), and
    the b values sum to `v`.  `count` is the number of labelled set partitions
    realising the signature.  The result is a cached tuple: the key space is
    the partitions of at most `v`, and callers share each entry.
    """
    values = tuple(sorted(values, reverse=True))
    out = []
    for parts in multiset_partitions(values):
        q = len(parts)
        if q < 2:
            continue
        # assign b per part; identical parts get non-increasing b to avoid duplicates
        groups = [(part, len(list(run)), max(2, part[0]))
                  for part, run in groupby(parts)]
        if sum(cnt * low for _part, cnt, low in groups) > v:
            continue

        def assign(gi, budget, acc):
            if gi == len(groups):
                if budget == 0:
                    yield tuple(acc)
                return
            part, cnt, low = groups[gi]
            remaining_low = sum(g[1] * g[2] for g in groups[gi + 1:])
            hi = budget - remaining_low
            for bs in combinations_with_replacement(range(low, hi + 1), cnt):
                s = sum(bs)
                if s <= budget and budget - s >= remaining_low:
                    yield from assign(gi + 1, budget - s,
                                      acc + [(part, b) for b in sorted(bs, reverse=True)])

        out += [(listing, labeled_partition_count(values, listing))
                for listing in assign(0, v, [])]
    return tuple(out)
