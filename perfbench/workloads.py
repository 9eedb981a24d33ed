"""The four benchmark workloads: seeded inputs, the timed operation, and its check.

Inputs are made with stdlib `random` from the seed alone and handed to the
program as graph6 text, so nothing about an input depends on the code under
test.  Each workload defines

* `inputs(seed, chunk, count)`: the graph6 strings of one pass, in order; the
  passes of one run take chunks 0, 1, 2, ... of the seed's inputs;
* `op(g6)`: the timed call chain for one input, returning a JSON-shaped result;
* `check(g6, result)`: problems found by an independent check (empty when the
  result is right), used for inputs that have no stored digest.

Every call goes through a module attribute (`deck.nmatrix`, not a name
imported from it), so the tracer's rebinding sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import combinations

from reconkit import cli, deck, graphcore, nrecon, oracle, polydeck, whitney

# ---------------------------------------------------------------------------
# graph6 encoding and random graphs (benchmark-side, independent of reconkit)
# ---------------------------------------------------------------------------


def to_graph6(n: int, edges) -> str:
    """Standard graph6 for n <= 62: upper triangle in column order, 6 bits a byte."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def _relabel(rng: random.Random, n: int, edges) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _gnm(rng: random.Random, n: int, m: int) -> list:
    return rng.sample(list(combinations(range(n), 2)), m)


def _round_robin(cells: list, count: int) -> list:
    """`count` cells, cycling through `cells` in their fixed order.

    Every seed gets the same number of inputs of each kind, in the same
    order, so the work of a pass and its cache warm-up vary with the seed only
    within a kind, not through the mix or the order.
    """
    return [cells[i % len(cells)] for i in range(count)]


def digest(result) -> str:
    """SHA-1 of the canonical JSON form of one operation's result."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# recon: parse_graph6 -> nmatrix -> strip -> reconstruct -> report()
# ---------------------------------------------------------------------------

RECON_N = 7
# m <= 14 keeps every rank polynomial within the oracle's edge limit.
RECON_EDGES = list(range(6, 15))


def recon_inputs(seed: int, chunk: int, count: int) -> list:
    rng = random.Random(f"recon/{seed}/{chunk}")
    return [to_graph6(RECON_N, _gnm(rng, RECON_N, m))
            for m in _round_robin(RECON_EDGES, count)]


def recon_op(g6: str):
    g = graphcore.parse_graph6(g6)
    rec = nrecon.reconstruct(deck.strip(deck.nmatrix(g)))
    return rec.report()


def recon_check(g6: str, result) -> list:
    g = graphcore.parse_graph6(g6)
    want = {
        "charpoly": list(oracle.charpoly_oracle(g).coeffs),
        "tr": oracle.tr_oracle(g),
        "ham": oracle.ham_oracle(g),
        "psi": {str(i): oracle.psi_oracle(g, i) for i in range(2, g.n + 1)},
        "uni": {str(r): oracle.uni_oracle(g, r) for r in range(3, g.n + 1)},
        "rankpoly": [{"r": r, "s": s, "count": c}
                     for (r, s), c in sorted(oracle.rankpoly_oracle(g).items())],
    }
    return [f"{key} differs from the oracle"
            for key in sorted(want) if result.get(key) != want[key]]


# ---------------------------------------------------------------------------
# build: nmatrix -> elp_from_nmatrix -> canonical_nmatrix(strip(nm))
# ---------------------------------------------------------------------------

PRISM_G6 = "E{Sw"
PRISM_ROWS = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [2, 0, 1, 0, 0, 0, 0, 0, 0],
    [3, 0, 0, 1, 0, 0, 0, 0, 0],
    [3, 2, 2, 0, 1, 0, 0, 0, 0],
    [4, 1, 2, 1, 0, 1, 0, 0, 0],
    [4, 0, 4, 0, 0, 0, 1, 0, 0],
    [6, 3, 6, 1, 2, 2, 1, 1, 0],
    [9, 6, 12, 2, 6, 6, 3, 6, 1],
]
PRISM_COVER_LABELS = [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 4, 6]

# Sparse and dense G(n, m) have few automorphisms; complete multipartite graphs
# and K_n minus a matching or a star have many, which is where the
# canonical-labelling search spends its time.  The cost of one symmetric graph
# ranges from 50 ms to 3 s with its shape, so the shapes are a fixed list,
# taken in turn, and the seed draws the G(n, m) graphs and relabels every
# graph.  K_9 minus one edge, the most symmetric and most expensive shape
# (about 1.7 s), is in every pass exactly once, so that the canonical search
# on it shows in wall_s without deciding the percentiles.  The other
# expensive shapes (K_{1,8}, K_{1,1,7}, K_{2,7}, K_9 minus two or three edges,
# at 0.4 to 3 s each) are left out, so that no other single input decides the
# time of a pass.  Fourteen shapes have 8 vertices and eight have 9, so the
# median operation lies inside the 8-vertex cost cluster rather than in the
# gap between the two clusters.
BUILD_HEAVY_SHAPE = ("matching", 9, 1)
BUILD_SHAPES = (
    [("sparse", n) for n in (8, 9)] + [("dense", n) for n in (8, 9)]
    + [("multipartite", sizes) for sizes in
       ((4, 4), (2, 2, 2, 2), (1, 1, 1, 5), (2, 3, 3), (1, 2, 5),
        (3, 3, 3), (2, 2, 5), (1, 4, 4), (4, 5), (2, 2, 2, 3))]
    + [("matching", n, k) for n, k in ((8, 1), (8, 2), (8, 3), (8, 4), (9, 4))]
    + [("star", 8, k) for k in (2, 3, 4)]
)


def _build_graph(rng: random.Random, shape: tuple):
    kind, *params = shape
    if kind in ("sparse", "dense"):
        n = params[0]
        size = n * (n - 1) // 2
        m = rng.randint(n - 2, n + 2) if kind == "sparse" else rng.randint(size - n - 6, size - n - 2)
        return n, _gnm(rng, n, m)
    if kind == "multipartite":
        side = [part for part, size in enumerate(params[0]) for _ in range(size)]
        n = len(side)
        return n, [(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]]
    n, k = params
    missing = {(2 * i, 2 * i + 1) for i in range(k)} if kind == "matching" else \
        {(0, i + 1) for i in range(k)}
    return n, [p for p in combinations(range(n), 2) if p not in missing]


def build_inputs(seed: int, chunk: int, count: int) -> list:
    """The golden prism, then `count - 1` relabelled graphs on 8 or 9 vertices.

    The first of them is K_9 minus one edge, the others take BUILD_SHAPES in turn.
    """
    rng = random.Random(f"build/{seed}/{chunk}")
    out = [PRISM_G6]
    for shape in [BUILD_HEAVY_SHAPE] + _round_robin(BUILD_SHAPES, count - 2):
        n, edges = _build_graph(rng, shape)
        out.append(to_graph6(n, _relabel(rng, n, edges)))
    return out


def build_op(g6: str):
    g = graphcore.parse_graph6(g6)
    nm = deck.nmatrix(g)
    elp = deck.elp_from_nmatrix(nm)
    canon = deck.canonical_nmatrix(deck.strip(nm))
    return {"ranks": list(elp.ranks),
            "covers": [list(c) for c in elp.covers],
            "canonical": [list(r) for r in canon.rows]}


def build_check(g6: str, result) -> list:
    """The poset must rebuild the matrix, and matrix and canonical form must not
    depend on the labelling; the prism must match the published table.

    A second labelling of the graph, drawn from a seed made of its graph6,
    must give the same N-matrix, and a shuffle of the rows of equal (v, e),
    an admissible reordering, must give the same canonical matrix.
    """
    g = graphcore.parse_graph6(g6)
    nm = deck.nmatrix(g)
    elp = deck.Elp(tuple(result["ranks"]), tuple(tuple(c) for c in result["covers"]))
    rows = deck.nmatrix_from_elp(elp).rows
    problems = []
    if rows != nm.rows:
        problems.append("ELP -> matrix round trip changed entries")
    rng = random.Random(f"build-check/{g6}")
    other = graphcore.parse_graph6(to_graph6(g.n, _relabel(rng, g.n, g.edges)))
    if deck.nmatrix(other).rows != nm.rows:
        problems.append("N-matrix of a relabelled copy differs")
    ve = [(c.v, c.e) for c in nm.labels.classes]
    order = sorted(range(len(ve)), key=lambda i: (ve[i], rng.random()))
    shuffled = tuple(tuple(nm.rows[i][j] for j in order) for i in order)
    if [list(r) for r in deck.canonical_nmatrix(deck.NMatrix(shuffled)).rows] \
            != result["canonical"]:
        problems.append("canonical matrix of a reordered copy differs")
    if g6 == PRISM_G6:
        if [list(r) for r in rows] != PRISM_ROWS:
            problems.append("prism N-matrix differs from the published table")
        if sorted(c[2] for c in result["covers"]) != PRISM_COVER_LABELS:
            problems.append("prism cover labels differ from the published diagram")
    return problems


# ---------------------------------------------------------------------------
# decks: vertex-deck and polynomial-deck reconstruction of the charpoly
# ---------------------------------------------------------------------------

DECKS_N = 7
# edge counts of the connected 6-vertex core; the pendant vertex adds one more
DECKS_CORE_EDGES = list(range(5, 13))


def _connected(rng: random.Random, n: int, m: int) -> list:
    """A random spanning tree on n vertices plus m - n + 1 further random edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    rest = [p for p in combinations(range(n), 2) if p not in edges]
    return sorted(edges) + rng.sample(rest, m - (n - 1))


def decks_inputs(seed: int, chunk: int, count: int) -> list:
    """Connected 7-vertex graphs with a pendant vertex, so the polydeck path applies."""
    rng = random.Random(f"decks/{seed}/{chunk}")
    out = []
    for m in _round_robin(DECKS_CORE_EDGES, count):
        core = _connected(rng, DECKS_N - 1, m)
        edges = core + [(rng.randrange(DECKS_N - 1), DECKS_N - 1)]
        out.append(to_graph6(DECKS_N, _relabel(rng, DECKS_N, edges)))
    return out


def decks_op(g6: str):
    g = graphcore.parse_graph6(g6)
    by_vertices = whitney.charpoly_from_vertex_deck(graphcore.vertex_deck(g))
    by_subsets = polydeck.charpoly_from_polydeck(polydeck.build_polydeck(g))
    return {"vertexdeck": list(by_vertices.coeffs), "polydeck": list(by_subsets.coeffs)}


def decks_check(g6: str, result) -> list:
    want = list(oracle.charpoly_oracle(graphcore.parse_graph6(g6)).coeffs)
    return [f"{key} charpoly differs from the oracle"
            for key in ("vertexdeck", "polydeck") if result[key] != want]


# ---------------------------------------------------------------------------
# sweep: one `reconkit sweep` call; an operation is one graph of the sweep
# ---------------------------------------------------------------------------

def sweep_pass(on_graph, max_n: int):
    """Run `reconkit sweep --max-n max_n --checks all --jobs 1`.

    `on_graph(g6, run)` is called for each per-graph job of the sweep; `run()`
    performs the job and returns its per-check failure lists, which on_graph
    returns, or None if the job raised.  A job that raised fails every check
    of its graph, so the sweep goes on and reports it.  The sweep is
    exhaustive, so it takes no seed.  Returns the exit code and the report.
    """
    argv = ["sweep", "--max-n", str(max_n), "--checks", "all", "--jobs", "1"]
    original = cli._run_graph

    def job(work):
        g6, names = work
        fails = on_graph(g6, lambda: original(work)[1])
        if fails is None:
            fails = {name: ["the check raised"] for name in names}
        return g6, fails

    cli._run_graph = job
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        cli._run_graph = original
    return code, json.loads(out.getvalue())


def sweep_check(g6: str, result) -> list:
    """A graph passes when no check other than the candidate probe failed on it."""
    return [f"{name}: {'; '.join(fails)}" for name, fails in sorted(result.items())
            if fails and name not in cli._CANDIDATE_CHECKS]


def sweep_report_check(code: int, report: dict) -> list:
    problems = [] if code == 0 else [f"sweep exited with code {code}"]
    if report.get("ok") is not True:
        problems.append("sweep report is not ok")
    if report.get("checks", {}).get("golden", {}).get("failures"):
        problems.append("golden prism check failed")
    return problems


WORKLOADS = {
    "recon": (recon_inputs, recon_op, recon_check),
    "build": (build_inputs, build_op, build_check),
    "decks": (decks_inputs, decks_op, decks_check),
    "sweep": (None, None, sweep_check),
}
