"""Invariant reconstruction from an unlabelled N-matrix.

A single bottom-up pass over the poset ranks computes, per node: cycle counts
by length, spanning-tree / unicyclic / hamiltonian counts, and the full
characteristic polynomial.  Connected-spanning-cover counts and the
subset-aggregated quantities Q_m and T_m drive the tree, unicyclic and
hamiltonian counts; the spanning-subgraph families behind the rank polynomial
are counted on demand by inclusion-exclusion over a node's rows (Tutte).

Memos on the `Reconstruction` instance hold the hot quantities: `con` per
(node, sequence) and the inner sums of `q_m` per (row, sequence, order) and
of `lcompo` per (row, order, size), so nothing is shared between matrices.
The rows below each node are bucketed by order, so each scan visits only the
rows of the order it needs.

Every division is exact on a valid matrix; a remainder or a negative count is
raised as proof of matrix invalidity.  All arithmetic is arbitrary-precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .combi import (Polynomial, edge_profiles, exact_div, grouped_cover_partitions,
                    multiset_symmetry, partitions_min2, sachs_constant)
from .deck import NMatrix, _top_row, infer_v_e
from .errors import DomainError, InvalidMatrixError

__all__ = ["NodeInvariants", "Reconstruction", "reconstruct"]


@dataclass(frozen=True)
class NodeInvariants:
    """Reconstructed invariants of one poset node."""

    v: int
    e: int
    psi: dict
    tr: int
    ham: int
    uni: dict
    charpoly: Polynomial


class Reconstruction:
    """Per-node invariants plus query access to the intermediate quantities."""

    def __init__(self, nm: NMatrix):
        self._rows = nm.rows
        self._ve = infer_v_e(nm)
        self._size = nm.size
        self._top = _top_row(nm)
        self._by_order = []
        for row in self._rows:
            buckets = {}
            for j, entry in enumerate(row):
                if entry:
                    buckets.setdefault(self._ve[j][0], []).append(j)
            self._by_order.append({v: tuple(js) for v, js in buckets.items()})
        self._psi = [dict() for _ in range(self._size)]
        self._tr = [0] * self._size
        self._ham = [0] * self._size
        self._uni = [dict() for _ in range(self._size)]
        self._poly = [None] * self._size
        self._con_memo = {}
        self._inner_memo = {}
        self._kedge_memo = {}
        self._lcompo_memo = {}
        self._component_memo = {}
        for t in sorted(range(self._size), key=lambda i: self._ve[i][0]):
            self._process(t)
        self.nodes = [NodeInvariants(self._ve[i][0], self._ve[i][1],
                                     dict(self._psi[i]), self._tr[i], self._ham[i],
                                     dict(self._uni[i]), self._poly[i])
                      for i in range(self._size)]

    @property
    def top(self) -> NodeInvariants:
        return self.nodes[self._top]

    @property
    def top_index(self) -> int:
        return self._top

    # -- the bottom-up pass -------------------------------------------------

    def _children(self, t: int) -> tuple:
        return self._by_order[t].get(self._ve[t][0] - 1, ())

    def _process(self, t: int):
        v, e = self._ve[t]
        self._psi[t][2] = e
        for i in range(3, v):
            tot = sum(self._rows[t][j] * self._psi[j].get(i, 0)
                      for j in self._children(t))
            self._psi[t][i] = exact_div(tot, v - i, f"psi_{i} at node {t}")
        if v == 2:
            # the K2 node: one edge, one spanning tree, ham by the C2 convention
            self._tr[t] = 1
            self._ham[t] = e
        else:
            self._tr[t] = exact_div(self.con(t, (2,) * (v - 1)), factorial(v - 1),
                                    f"tree count at node {t}")
            for r in range(3, v):
                self._uni[t][r] = exact_div(self.con(t, (r,) + (2,) * (v - r)),
                                            factorial(v - r), f"uni_{r} at node {t}")
            rhs = self.con(t, (2,) * v)
            # (v - 1)! S(v, v - 1) v-tuples map onto a tree's edges; S(v, v - 1) = C(v, 2)
            rhs -= factorial(v - 1) * comb(v, 2) * self._tr[t]
            rhs -= sum(factorial(v) * self._uni[t][r] for r in range(3, v))
            ham = exact_div(rhs, factorial(v), f"ham count at node {t}")
            if ham < 0:
                raise InvalidMatrixError(f"negative hamiltonian count at node {t}")
            self._ham[t] = ham
            self._psi[t][v] = ham
            self._uni[t][v] = ham
        self._poly[t] = self._charpoly(t)

    def _charpoly(self, t: int) -> Polynomial:
        v = self._ve[t][0]
        coeffs = [1, 0]
        for i in range(2, v):
            tot = sum(self._rows[t][j] * self._poly[j][i] for j in self._children(t))
            coeffs.append(exact_div(tot, v - i, f"c_{i} at node {t}"))

        def count(parts):
            if len(parts) == 1:
                return self._ham[t]
            return exact_div(self.c(t, parts), multiset_symmetry(parts),
                             f"elementary count {parts} at node {t}")

        coeffs.append(sachs_constant(v, count))
        return Polynomial(tuple(coeffs))

    # -- cycle-cover machinery ----------------------------------------------

    def p(self, t: int, seq) -> int:
        """Product of per-length cycle counts: the number of cycle tuples."""
        out = 1
        for a in seq:
            out *= self._psi[t].get(a, 0)
            if out == 0:
                return 0
        return out

    def c(self, t: int, seq) -> int:
        """Spanning cycle covers, by inclusion-exclusion over the node's rows.

        Rows of edgeless vertex subsets are absent from the matrix, but their
        cycle-tuple products vanish (every sequence entry is >= 2), so the sum
        over matrix rows is the full subset sum.  The product also vanishes
        on rows of order below max(seq), so only the orders from there up are
        scanned.
        """
        v_t = self._ve[t][0]
        low = max(seq, default=0)
        total = 0
        for order, js in self._by_order[t].items():
            if order < low:
                continue
            for j in js:
                pj = self.p(j, seq)
                if pj:
                    total += (-1) ** (v_t - order) * self._rows[t][j] * pj
        return total

    def con(self, t: int, seq) -> int:
        """Connected spanning cycle covers for a non-increasing tuple, memoised.

        The callers build `seq` non-increasing: the tree, unicyclic and
        hamiltonian sequences, and the parts of `multiset_partitions`.
        """
        key = (t, seq)
        if key in self._con_memo:
            return self._con_memo[key]
        v_t = self._ve[t][0]
        if not seq or seq[0] > v_t or sum(seq) < v_t:
            val = 0
        elif seq == (v_t,):
            val = self._ham[t]
        else:
            val = self.c(t, seq)
            for listing, cnt in grouped_cover_partitions(seq, v_t):
                val -= cnt * self.t_m(t, listing)
            if val < 0:
                raise InvalidMatrixError(
                    f"negative connected cover count for {seq} at node {t}")
        self._con_memo[key] = val
        return val

    def q_m(self, t: int, m: int, listing) -> int:
        """Subset-aggregated cover products over m-vertex induced subgraphs.

        `listing` pairs each cycle sequence with the order of the subset it
        must span: Q sums, over rows of order m, the product of per-sequence
        row-weighted connected cover counts.  Each inner sum depends only on
        (row, sequence, order), not on t, and is memoised on that key.
        """
        total = 0
        for s in self._by_order[t].get(m, ()):
            term = self._rows[t][s]
            for part, b in listing:
                key = (s, part, b)
                inner = self._inner_memo.get(key)
                if inner is None:
                    inner = sum(self._rows[s][j] * self.con(j, part)
                                for j in self._by_order[s].get(b, ()))
                    self._inner_memo[key] = inner
                term *= inner
                if term == 0:
                    break
            total += term
        return total

    def t_m(self, t: int, listing) -> int:
        """Exactly-v_t-vertex variant of q_m, by inclusion-exclusion over the orders.

        T = sum over p of (-1)^(v_t - p) q_m(t, p, listing).  q_m vanishes for
        every p below the largest order b in the listing, since a row of order
        p < b has no row of order b below it, so the sum starts there.  The
        listing is sorted first: q_m stops at its first zero factor, and in
        sorted order it tends to reach one sooner.
        """
        listing = tuple(sorted(listing))
        v_t = self._ve[t][0]
        total = 0
        for p in range(max((b for _part, b in listing), default=2), v_t + 1):
            qp = self.q_m(t, p, listing)
            if qp:
                total += (-1) ** (v_t - p) * qp
        return total

    # -- spanning-subgraph families ------------------------------------------

    def kedge(self, t: int, k: int) -> int:
        """Connected spanning subgraphs of the node with exactly k edges.

        sum_s (-1)^(v_t - v_s) N[t][s] C(e_s, k) counts the k-edge sets touching
        every vertex (edgeless subsets have no row, and C(0, k) = 0); lcompo's
        families of two or more parts are the disconnected ones among them.
        """
        v_t, e_t = self._ve[t]
        if k < v_t - 1 or k > e_t:
            return 0
        if k == v_t - 1:
            return self._tr[t]
        key = (t, k)
        if key in self._kedge_memo:
            return self._kedge_memo[key]
        val = sum((-1) ** (v_t - order) * self._rows[t][s] * comb(self._ve[s][1], k)
                  for order, ss in self._by_order[t].items() for s in ss)
        for nparts in partitions_min2(v_t)[1:]:  # [0] is the one part (v_t,)
            val -= sum(self.lcompo(t, spec) for spec in edge_profiles(nparts, k)
                       if sum(m for _n, m in spec) == k)
        if val < 0:
            raise InvalidMatrixError(f"negative {k}-edge count at node {t}")
        self._kedge_memo[key] = val
        return val

    def lcompo(self, t: int, spec) -> int:
        """Spanning subgraphs whose component (order, size) multiset is `spec`.

        With two or more parts, sum_s (-1)^(v_t - v_s) N[t][s] prod_i sum_{j <= s,
        v_j = n_i} N[s][j] kedge(j, m_i) counts each family once per ordering of
        its parts: connected parts whose orders sum to v_t cover t only if disjoint.
        """
        spec = tuple(sorted(spec, reverse=True))
        v_t = self._ve[t][0]
        if sum(n for n, _m in spec) != v_t:
            raise DomainError("component orders must sum to the node order")
        if any(n < 2 or m < n - 1 or m > comb(n, 2) for n, m in spec):
            return 0
        if len(spec) == 1:
            return self.kedge(t, spec[0][1])
        key = (t, spec)
        if key in self._lcompo_memo:
            return self._lcompo_memo[key]
        val = 0
        for order, ss in self._by_order[t].items():
            for s in ss:
                term = (-1) ** (v_t - order) * self._rows[t][s]
                for n, m in spec:
                    if (s, n, m) not in self._component_memo:
                        self._component_memo[s, n, m] = sum(
                            self._rows[s][j] * self.kedge(j, m)
                            for j in self._by_order[s].get(n, ()))
                    term *= self._component_memo[s, n, m]
                val += term
        val = exact_div(val, multiset_symmetry(spec), f"family count {spec} at node {t}")
        if val < 0:
            raise InvalidMatrixError(f"negative family count {spec} at node {t}")
        self._lcompo_memo[key] = val
        return val

    def rankpoly(self) -> dict:
        """(rank, corank) -> subgraph count for the top node.

        Every nonempty no-isolated-vertex subgraph is a spanning subgraph of
        the induced subgraph on its own vertex set, so summing family counts
        row by row with top-row multiplicities covers them all exactly once.
        """
        rho = {(0, 0): 1}
        for j in range(self._size):
            v_j, e_j = self._ve[j]
            mult = self._rows[self._top][j]
            for nparts in partitions_min2(v_j):
                for spec in edge_profiles(nparts, e_j):
                    cnt = self.lcompo(j, spec)
                    if cnt:
                        l = len(spec)
                        m = sum(q for _n, q in spec)
                        r = v_j - l
                        rho[(r, m - r)] = rho.get((r, m - r), 0) + mult * cnt
        return rho

    def report(self) -> dict:
        """The InvariantReport for the top node, JSON-shaped."""
        tp = self.top
        return {
            "charpoly": list(tp.charpoly.coeffs),
            "tr": tp.tr,
            "ham": tp.ham,
            "psi": {str(i): tp.psi[i] for i in sorted(tp.psi)},
            "uni": {str(r): tp.uni[r] for r in sorted(tp.uni)},
            "rankpoly": [{"r": r, "s": s, "count": c}
                         for (r, s), c in sorted(self.rankpoly().items())],
        }


def reconstruct(nm: NMatrix) -> Reconstruction:
    """Run the full bottom-up reconstruction over an unlabelled N-matrix."""
    return Reconstruction(nm)
