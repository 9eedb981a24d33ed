"""Invariant reconstruction from an unlabelled N-matrix.

One bottom-up pass takes the nodes in increasing order and reads each count
off the node's row once, from the counts of the smaller rows:
- psi_i for i < v sums ham over the rows of order i, since an i-cycle is a
  hamiltonian cycle of the subgraph it induces; by Sachs, c_i for i < v sums
  the constant terms of the rows of order i;
- the spanning subgraphs by components and edges (`families`) come by
  inclusion-exclusion over the rows; the connected ones with v - 1 edges are
  the spanning trees, and those with v edges are the unicyclic ones;
- connected-spanning-cover counts (`con`), through the subset sums Q_m and
  T_m, give only the unicyclic counts uni_r for r < v, and ham is the
  unicyclic family less them.
The rank polynomial (Tutte) folds the top row's families.

The matrix is first checked against Kelly's lemma: a copy of row k lies in
v_t - v_k of the (v_t - 1)-vertex induced subgraphs of node t (an edgeless
one has no row and contains no row).  Those with a row are the rows t
covers, so the lemma on every node says that the matrix is the fill of its
own poset, `deck.nmatrix_from_elp`, and a matrix that is not is refused.  A
failed check, a remainder in a division or a negative count proves the
matrix invalid.

By Kelly's lemma the rows under a node are the N-matrix of the subgraph the
node stands for, and every count the pass reads off the node comes from
those rows alone: (v, e) are its rank down to the K2 row and its K2 entry,
both inside its down-set.  So the counts of every node but the top are kept
in one bounded store per process, keyed by the node's down-set submatrix in
matrix order, and equal keys give equal counts, for labelled and stripped
matrices alike.  A node whose computation refuses the matrix stores
nothing.  The top is computed and not stored: it is no lower node of its own
matrix, so the store holds nodes of at most the second-largest order.

Each node also has one memo: `con` per sequence, `q_m`'s inner sums per
(sequence, order) and the family powers per order.  Its entries read only
the node's down-set too, so a lower node's memo is stored with its counts and
every matrix holding the node sees what any of them writes there; the top's
memo is its instance's own.  The rows below each node are bucketed by order.
All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .combi import (Polynomial, exact_div, grouped_cover_partitions, multiset_symmetry,
                    sachs_constant)
from .deck import Elp, NMatrix, _flatten, _poset, _top_row, nmatrix_from_elp
from .errors import InvalidMatrixError

__all__ = ["NodeInvariants", "Reconstruction", "invariant_report", "reconstruct"]


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


# The store of every node but the top, keyed by its down-set submatrix.  The
# graphs with 3 <= n <= 6 and an edge, in increasing order from an emptied
# store, read 2,005 nodes from it and compute 47 (pinned in test_nrecon.py);
# those with n <= 7 read 27,132 and compute 202, one per type with an edge on
# at most 6 vertices; a seed-1 `recon` bench pass reads 576 and computes 140.
# At 2048 the lower nodes of every graph the sweep takes, the 1,245 types
# with an edge on at most 7 vertices, stay.  An entry ends with the node's
# memo, which later nodes keep filling.  Its keys are orders and sequences
# whose parts fit in the node, sub-multisets of (r, 2, ..., 2) of at most the
# top's order, so it stays small: at most 162 entries at n = 9 and 10.  An
# entry is mostly its memo, since the key is packed into bytes (tracemalloc,
# the drop on emptying the store): 0.89 MB for the 202 above,
# 4.4 KB each; 13.1 MB for the 1,069 of the 40 seeded G(9, p) graphs (`n9`
# in test_nrecon.py), 12.3 KB each.  At the bound, about 30 MB.
@lru_cache(maxsize=2048)
def _slot(key: bytes | tuple) -> list:
    """A down-set submatrix's slot: empty until a node with that submatrix is
    computed without a refusal, then (psi, tr, ham, uni, charpoly, families, memo)."""
    return []


def _key(rows, t: int):
    """Node t's down-set submatrix in matrix order: bytes when every entry is
    in 0..255, else the tuple, which never equals a bytes key."""
    flat = _flatten(rows, [j for j, x in enumerate(rows[t]) if x])
    try:
        return bytes(flat)
    except ValueError:
        return flat


class Reconstruction:
    """Per-node invariants plus query access to the intermediate quantities."""

    def __init__(self, nm: NMatrix):
        self._rows = nm.rows
        self._ve, covers = _poset(nm)
        fill = nmatrix_from_elp(Elp(tuple(v for v, _e in self._ve), covers)).rows
        if fill != nm.rows:
            t = next(i for i, row in enumerate(nm.rows) if row != fill[i])
            raise InvalidMatrixError(f"Kelly's lemma fails at node {t}: its row is not the "
                                     "fill of the rows it covers")
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
        self._fam = [None] * self._size
        self._memo = [{} for _ in range(self._size)]
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

    def _process(self, t: int):
        """Node t's invariants: the top's are computed, every other node's are
        read from the store, or computed and stored on a miss."""
        if t == self._top:
            self._compute(t)
            return
        slot = _slot(_key(self._rows, t))
        if slot:
            (self._psi[t], self._tr[t], self._ham[t], self._uni[t], self._poly[t],
             self._fam[t], self._memo[t]) = slot[0]
        else:
            self._compute(t)
            slot.append((self._psi[t], self._tr[t], self._ham[t], self._uni[t],
                         self._poly[t], self._fam[t], self._memo[t]))

    def _compute(self, t: int):
        v, e = self._ve[t]
        row, below = self._rows[t], self._by_order[t]
        fam = self._fam[t] = self._families_at(t)
        psi, uni = self._psi[t], self._uni[t]
        psi[2] = e
        coeffs = [1, 0]
        for i in range(2, v):
            js = below.get(i, ())
            if i > 2:
                psi[i] = sum(row[j] * self._ham[j] for j in js)
            coeffs.append(sum(row[j] * self._poly[j][i] for j in js))
        if v == 2:
            # the K2 node: one edge, one spanning tree, ham by the C2 convention
            self._tr[t], self._ham[t] = 1, e
        else:
            self._tr[t] = fam.get((1, v - 1), 0)
            for r in range(3, v):
                uni[r] = exact_div(self.con(t, (r,) + (v - r) * (2,)),
                                   factorial(v - r), f"uni_{r} at node {t}")
            ham = fam.get((1, v), 0) - sum(uni.values())
            if ham < 0:
                raise InvalidMatrixError(f"negative hamiltonian count at node {t}")
            self._ham[t] = psi[v] = uni[v] = ham

        def count(parts):
            if len(parts) == 1:
                return self._ham[t]
            return exact_div(self.c(t, parts), multiset_symmetry(parts),
                             f"elementary count {parts} at node {t}")

        self._poly[t] = Polynomial(tuple(coeffs) + (sachs_constant(v, count),))

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

        The callers build `seq` non-increasing: the unicyclic sequences
        (r, 2, ..., 2), and the parts of `multiset_partitions`.
        """
        memo = self._memo[t]
        if seq in memo:
            return memo[seq]
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
        memo[seq] = val
        return val

    def q_m(self, t: int, m: int, listing) -> int:
        """Subset-aggregated cover products over m-vertex induced subgraphs.

        `listing` pairs each cycle sequence with the order of the subset it
        must span: Q sums, over rows of order m, the product of per-sequence
        row-weighted connected cover counts.  Each inner sum depends only on
        the row s and the (sequence, order) pair, not on t, and is memoised in
        s's memo under the listing's own pair.
        """
        total = 0
        for s in self._by_order[t].get(m, ()):
            term = self._rows[t][s]
            memo = self._memo[s]
            for pair in listing:
                inner = memo.get(pair)
                if inner is None:
                    part, b = pair
                    inner = memo[pair] = sum(self._rows[s][j] * self.con(j, part)
                                             for j in self._by_order[s].get(b, ()))
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
        """Per row t, (l, m) -> spanning subgraphs of node t with l components and
        m edges, none with an isolated vertex; zero counts are left out.  The
        dicts are copies, since the store shares a node's own between instances."""
        return [dict(fam) for fam in self._fam]

    def _families_at(self, t: int) -> dict:
        """The spanning-subgraph families of node t, from those of the smaller rows.

        Summed over the rows s under t with sign (-1)^(v_t - v_s) and weight
        N[t][s]:
        - C(e_s, m) counts the m-edge sets touching every vertex of t;
        - the x^(v_t) y^m coefficient of W_s^l, where W_s sums N[s][j] x^(v_j)
          y^m F[j][1, m] over the rows j under s of order 2 to v_t - 2, counts
          the ordered l-tuples of connected parts that cover t.  Parts whose
          orders sum to v_t cover t only if disjoint, so each family of
          l >= 2 components is counted l! times.
        The connected m-edge sets are the touching ones less the families of
        two or more components.
        """
        v_t, e_t = self._ve[t]
        under = [(s, (-1) ** (v_t - order) * self._rows[t][s])
                 for order, ss in self._by_order[t].items() for s in ss]
        fam = {}
        for s, sign in under:
            for l, coeffs in enumerate(self._top_coeffs(s, v_t), 2):
                for m, c in coeffs.items():
                    fam[l, m] = fam.get((l, m), 0) + sign * c
        for (l, m), total in fam.items():
            fam[l, m] = exact_div(total, factorial(l),
                                  f"{l}-component {m}-edge count at node {t}")
        for m in range(1, e_t + 1):
            fam[1, m] = sum(sign * comb(self._ve[s][1], m) for s, sign in under) - \
                sum(fam.get((l, m), 0) for l in range(2, v_t // 2 + 1))
        if any(c < 0 for c in fam.values()):
            raise InvalidMatrixError(f"negative spanning-subgraph count at node {t}")
        return {key: c for key, c in fam.items() if c}

    def _top_coeffs(self, s: int, a: int) -> list:
        """Per l >= 2, m -> the x^a y^m coefficient of W_s^l, memoised in s's memo per a."""
        memo = self._memo[s]
        if a not in memo:
            w = {}
            for order in range(2, a - 1):
                for j in self._by_order[s].get(order, ()):
                    for (l, m), c in self._fam[j].items():
                        if l == 1:
                            w[order, m] = w.get((order, m), 0) + self._rows[s][j] * c
            power, coeffs = w, []
            for _l in range(2, a // 2 + 1):
                nxt = {}
                for (b, m), c in power.items():
                    for (b2, m2), c2 in w.items():
                        if b + b2 <= a:
                            nxt[b + b2, m + m2] = nxt.get((b + b2, m + m2), 0) + c * c2
                power = nxt
                coeffs.append({m: c for (b, m), c in power.items() if b == a})
            memo[a] = coeffs
        return memo[a]

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
        return invariant_report(tp.charpoly, tp.tr, tp.ham, tp.psi, tp.uni, self.rankpoly())


def invariant_report(charpoly: Polynomial, tr: int, ham: int, psi, uni, rankpoly) -> dict:
    """The InvariantReport, JSON-shaped, of invariants however they were found:
    psi and uni map orders to counts, rankpoly maps (r, s) to counts."""
    return {"charpoly": list(charpoly.coeffs), "tr": tr, "ham": ham,
            "psi": {str(i): psi[i] for i in sorted(psi)},
            "uni": {str(r): uni[r] for r in sorted(uni)},
            "rankpoly": [{"r": r, "s": s, "count": c} for (r, s), c in sorted(rankpoly.items())]}


def reconstruct(nm: NMatrix) -> Reconstruction:
    """Run the full bottom-up reconstruction over an unlabelled N-matrix."""
    return Reconstruction(nm)
