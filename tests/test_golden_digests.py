"""Pinned SHA-1 digests of the library's outputs on fixed exhaustive corpora.

The oracle tests check values; these pins also catch a change of order or
shape that no oracle sees, such as N-matrix row order or the order of a
report's entries.  The order of a cover table's members shows in no output,
because every consumer sums over them, so `tests/test_whitney.py` checks it.
Each digest is the SHA-1 of the compact JSON of its output, keys sorted.
A change that alters a pinned output on purpose updates the pin and says why
in CHANGES.md; that is the only way to change one.

Every pin is reproduced by `PYTHONPATH=src python tests/test_golden_digests.py
NAME`, where NAME is the pin's key below; without a NAME it prints them all.

Two heavier digests stay hand-run, outside the suite, by the same command:
- `graph6_8`, `write_graph6` over `all_graphs(8)`:
  329c044e7566ece97955fede6ae512b7ce23c058;
- `sweep6`, the `sweep --max-n 6 --checks all` report without
  `elapsed_seconds`: 57617b6ca69e1731af5fba5d3851039f97abd39c;
- `vertexdeck8`, `charpoly_from_vertex_deck` of every graph on 8 vertices,
  hashed as `vertexdeck` is, and its mismatches against `charpoly_oracle`:
  71ad7c867cfba5a03b7a8c9b0a5bf7f58e850bf7, 12346 graphs, 0 mismatches.
"""

import contextlib
import hashlib
import io
import json
import sys

from reconkit.cli import main
from reconkit.deck import (canonical_nmatrix, child_nmatrices, elp_from_nmatrix, elp_to_json,
                           nmatrix, nmatrix_to_json, strip)
from reconkit.graphcore import all_graphs, vertex_deck, write_graph6
from reconkit.nrecon import reconstruct
from reconkit.oracle import charpoly_oracle
from reconkit.polydeck import build_polydeck, polydeck_to_json
from reconkit.whitney import charpoly_from_vertex_deck

PINS = {
    "graph6": "90bbfd5d16d685add4c5633537424eeebbc82153",
    "matrices": "5b6cfae200c837d54ef72fa8be339787d7bbf4e4",
    "reports": "9f8bbe25da93eb223304297481053a391a013c45",
    "polydecks": "38d27d5b2cc0bcfb7feb15c229b804d78f481714",
    "vertexdeck": "c2b324c59a66f40f5e51449c66e9e06bced01fc8",
    "sweep": "c66a7f29bdfd2b430c2f6c6123512bdf9d61780f",
    "canonical": "9604ddd90ac2eb94b01a9129a04c86e25339ac64",
    "direct": "df3ba89e23440dd26874e6a558f1607b7697e6ca",
}


def _sha1(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def _graphs6():
    """Every graph with at most 6 vertices and at least one edge."""
    return all_graphs(6, min_edges=1)


def graph6_digest(max_n=7) -> str:
    """`write_graph6` of every graph in `all_graphs(max_n)`, in its order."""
    return _sha1([write_graph6(g) for g in all_graphs(max_n)])


def matrices_digest() -> str:
    """`nmatrix_to_json` and `elp_to_json` of every graph with n <= 6 and an edge."""
    out = []
    for g in _graphs6():
        nm = nmatrix(g)
        out.append([write_graph6(g), nmatrix_to_json(nm), elp_to_json(elp_from_nmatrix(nm))])
    return _sha1(out)


def reports_digest() -> str:
    """`reconstruct(nmatrix(g)).report()` of every graph with n <= 6 and an edge."""
    return _sha1([[write_graph6(g), reconstruct(nmatrix(g)).report()] for g in _graphs6()])


def polydecks_digest() -> str:
    """`polydeck_to_json(build_polydeck(g))` of every graph with n <= 6 and an edge."""
    return _sha1([[write_graph6(g), polydeck_to_json(build_polydeck(g))] for g in _graphs6()])


def vertexdeck_digest() -> str:
    """`charpoly_from_vertex_deck` coefficients of every graph with 3 <= n <= 7."""
    return _sha1([[write_graph6(g), list(charpoly_from_vertex_deck(vertex_deck(g)).coeffs)]
                  for g in all_graphs(7) if g.n >= 3])


def vertexdeck8_digest() -> str:
    """`vertexdeck_digest` over the graphs of `all_graphs(8)` with n = 8, then
    the number of graphs and of those whose polynomial is not the oracle's."""
    out, mismatches = [], 0
    for g in all_graphs(8):
        if g.n == 8:
            coeffs = list(charpoly_from_vertex_deck(vertex_deck(g)).coeffs)
            mismatches += coeffs != list(charpoly_oracle(g).coeffs)
            out.append([write_graph6(g), coeffs])
    return f"{_sha1(out)} graphs {len(out)} mismatches {mismatches}"


def canonical_digest() -> str:
    """`canonical_nmatrix` and `child_nmatrices` of every graph with n <= 6 and an edge."""
    out = []
    for g in _graphs6():
        nm = strip(nmatrix(g))
        out.append([write_graph6(g), canonical_nmatrix(nm).rows,
                    [[child.rows, mult] for child, mult in child_nmatrices(nm)]])
    return _sha1(out)


def direct_digest() -> str:
    """The `reconkit recon --source direct` JSON of every graph with n <= 6 and an edge."""
    out = []
    for g in _graphs6():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(["recon", "--source", "direct", write_graph6(g)])
        out.append([write_graph6(g), code, json.loads(text.getvalue())])
    return _sha1(out)


def sweep_digest(max_n=5) -> str:
    """The `reconkit sweep --max-n MAX_N --checks all` report without `elapsed_seconds`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "--max-n", str(max_n), "--checks", "all"])
    report = json.loads(out.getvalue())
    del report["elapsed_seconds"]
    return _sha1([code, report])


DIGESTS = {"graph6": graph6_digest, "matrices": matrices_digest,
           "reports": reports_digest, "polydecks": polydecks_digest,
           "vertexdeck": vertexdeck_digest, "sweep": sweep_digest,
           "canonical": canonical_digest, "direct": direct_digest,
           "graph6_8": lambda: graph6_digest(8), "sweep6": lambda: sweep_digest(6),
           "vertexdeck8": vertexdeck8_digest}


def test_graph6_digest():
    """Reproduce: PYTHONPATH=src python tests/test_golden_digests.py graph6"""
    assert graph6_digest() == PINS["graph6"]


def test_matrices_digest():
    """Reproduce: PYTHONPATH=src python tests/test_golden_digests.py matrices"""
    assert matrices_digest() == PINS["matrices"]


def test_reports_digest():
    """Reproduce: PYTHONPATH=src python tests/test_golden_digests.py reports"""
    assert reports_digest() == PINS["reports"]


def test_polydecks_digest():
    """Reproduce: PYTHONPATH=src python tests/test_golden_digests.py polydecks"""
    assert polydecks_digest() == PINS["polydecks"]


def test_vertexdeck_digest():
    """Reproduce: PYTHONPATH=src python tests/test_golden_digests.py vertexdeck"""
    assert vertexdeck_digest() == PINS["vertexdeck"]


def test_sweep_digest():
    """Reproduce: PYTHONPATH=src python tests/test_golden_digests.py sweep"""
    assert sweep_digest() == PINS["sweep"]



def test_canonical_digest():
    """Reproduce: PYTHONPATH=src python tests/test_golden_digests.py canonical"""
    assert canonical_digest() == PINS["canonical"]


def test_direct_digest():
    """Reproduce: PYTHONPATH=src python tests/test_golden_digests.py direct"""
    assert direct_digest() == PINS["direct"]


if __name__ == "__main__":
    for name in sys.argv[1:] or DIGESTS:
        print(name, DIGESTS[name]())
