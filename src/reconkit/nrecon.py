"""Invariant reconstruction from an unlabelled N-matrix.

A single bottom-up pass over the poset ranks computes, per node: cycle counts
by length, spanning-tree / unicyclic / hamiltonian counts, and the full
characteristic polynomial.  Connected-spanning-cover counts and the
subset-aggregated quantities Q_m and T_m drive the tree, unicyclic and
hamiltonian counts.  The rank polynomial (Tutte) needs only each node's
spanning subgraphs by number of components and edges; `families` counts them
for every node in one more bottom-up pass, by inclusion-exclusion over the
node's rows.

Memos on the `Reconstruction` instance hold the hot quantities: `con` per
(node, sequence) and the inner sums of `q_m` per (row, sequence, order), so
nothing is shared between matrices.  The rows below each node are bucketed by
order, so each scan visits only the rows of the order it needs.

Every division is exact on a valid matrix; a remainder or a negative count is
raised as proof of matrix invalidity.  All arithmetic is arbitrary-precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .combi import (Polynomial, exact_div, grouped_cover_partitions, multiset_symmetry,
                    sachs_constant)
from .deck import NMatrix, _top_row, infer_v_e
from .errors import InvalidMatrixError

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

    def families(self) -> list:
        """Per row t, (l, m) -> spanning subgraphs of node t with l components and m edges.

        No counted subgraph has an isolated vertex, and zero counts are left
        out.  Rows are taken in increasing order, so the connected counts
        F[j][1, m] of every smaller row j are known when t needs them.  Summed
        over the rows s under t with sign (-1)^(v_t - v_s) and weight N[t][s]:
        - C(e_s, m) counts the m-edge sets touching every vertex of t;
        - the x^(v_t) y^m coefficient of W_s^l, where W_s sums N[s][j] x^(v_j)
          y^m F[j][1, m] over the rows j under s of order 2 to v_t - 2, counts
          the ordered l-tuples of connected parts that cover t.  Parts whose
          orders sum to v_t cover t only if disjoint, so each family of
          l >= 2 components is counted l! times.
        The connected m-edge sets are the touching ones less the families of
        two or more components.
        """
        ve, rows = self._ve, self._rows
        out = [None] * self._size
        tops = {}  # (s, a) -> per l >= 2, m -> x^a y^m coefficient of W_s^l

        def top_coeffs(s: int, a: int) -> list:
            if (s, a) not in tops:
                w = {}
                for order in range(2, a - 1):
                    for j in self._by_order[s].get(order, ()):
                        for (l, m), c in out[j].items():
                            if l == 1:
                                w[order, m] = w.get((order, m), 0) + rows[s][j] * c
                power, coeffs = w, []
                for _l in range(2, a // 2 + 1):
                    nxt = {}
                    for (b, m), c in power.items():
                        for (b2, m2), c2 in w.items():
                            if b + b2 <= a:
                                nxt[b + b2, m + m2] = nxt.get((b + b2, m + m2), 0) + c * c2
                    power = nxt
                    coeffs.append({m: c for (b, m), c in power.items() if b == a})
                tops[s, a] = coeffs
            return tops[s, a]

        for t in sorted(range(self._size), key=lambda i: ve[i][0]):
            v_t, e_t = ve[t]
            under = [(s, (-1) ** (v_t - order) * rows[t][s])
                     for order, ss in self._by_order[t].items() for s in ss]
            fam = {}
            for s, sign in under:
                for l, coeffs in enumerate(top_coeffs(s, v_t), 2):
                    for m, c in coeffs.items():
                        fam[l, m] = fam.get((l, m), 0) + sign * c
            for (l, m), total in fam.items():
                fam[l, m] = exact_div(total, factorial(l),
                                      f"{l}-component {m}-edge count at node {t}")
            for m in range(1, e_t + 1):
                fam[1, m] = sum(sign * comb(ve[s][1], m) for s, sign in under) - \
                    sum(fam.get((l, m), 0) for l in range(2, v_t // 2 + 1))
            if any(c < 0 for c in fam.values()):
                raise InvalidMatrixError(f"negative spanning-subgraph count at node {t}")
            out[t] = {key: c for key, c in fam.items() if c}
        return out

    def rankpoly(self) -> dict:
        """(rank, corank) -> subgraph count for the top node.

        Every nonempty no-isolated-vertex subgraph is a spanning subgraph of
        the induced subgraph on its own vertex set, so summing family counts
        row by row with top-row multiplicities covers them all exactly once.
        A family of l components and m edges on a row of order v has rank
        v - l.
        """
        rho = {(0, 0): 1}
        for j, fam in enumerate(self.families()):
            v_j = self._ve[j][0]
            mult = self._rows[self._top][j]
            for (l, m), cnt in fam.items():
                r = v_j - l
                rho[r, m - r] = rho.get((r, m - r), 0) + mult * cnt
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
