"""Brute-force oracles that only the tests call.

Each enumerates explicitly, like `reconkit.oracle`, and reads that module's
shared enumerations: the cycles, the elementary subgraphs by order and the
unions of tuples.  No pipeline calls these, so they live with the tests.
"""

from itertools import combinations

from reconkit.errors import DomainError
from reconkit.graphcore import Graph
from reconkit.oracle import (_component_profile, _cycle_items, _elementary_by_order,
                             _endpoint_mask, _unions, psi_oracle)


def elementary_count_oracle(g: Graph, parts) -> int:
    """Subgraphs isomorphic to the elementary graph with the given part profile."""
    profile = tuple(sorted(parts, reverse=True))
    if any(p < 2 for p in profile):
        raise DomainError("elementary parts must be >= 2")
    order = sum(profile)
    return sum(1 for _vm, _em, _w, prof in _elementary_by_order(g).get(order, ())
               if prof == profile)


def p_oracle(g: Graph, seq) -> int:
    """Product of cycle counts for the sequence (number of cycle tuples)."""
    total = 1
    for a in seq:
        total *= psi_oracle(g, a)
    return total


def c_oracle(g: Graph, seq) -> int:
    """Cycle tuples whose vertex sets jointly cover V(g)."""
    unions = _unions([(vm, 1) for vm, _em in _cycle_items(g, a)] for a in seq)
    return unions.get((1 << g.n) - 1, 0)


def signed_c_oracle(g: Graph, seq) -> int:
    """Spanning tuples of elementary subgraphs, weighted by (-1)^rank 2^corank.

    Entry a_j of the sequence ranges over *all* elementary subgraphs with a_j
    vertices, not just cycles; this is the polynomial-deck flavour of the
    cycle-cover sum.
    """
    by_order = _elementary_by_order(g)
    unions = _unions([(vm, w) for vm, _em, w, _prof in by_order.get(a, ())] for a in seq)
    return unions.get((1 << g.n) - 1, 0)


def lcompo_oracle(g: Graph, spec) -> int:
    """Spanning subgraphs whose component (order, size) multiset equals `spec`."""
    spec = tuple(sorted(spec, reverse=True))
    if sum(n for n, _m in spec) != g.n:
        raise DomainError("component orders must sum to v(g)")
    full = (1 << g.n) - 1
    return sum(1 for subset in combinations(g.sorted_edges(), sum(m for _n, m in spec))
               if _endpoint_mask(subset) == full and _component_profile(subset) == spec)
