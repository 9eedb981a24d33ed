"""Derandomised fuzzing of the graph6 and JSON readers.

Each reader may refuse its input only with the errors it documents, and what
it accepts must read back unchanged: an accepted matrix, poset or deck holds
exactly the integers of its JSON, so a reader that rounds 1.9 or turns "1"
or true into 1 fails here.  An accepted poset must also fill as the dense
witness of `tests/check_oracles.py` fills it.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from reconkit.deck import (elp_from_json, elp_from_nmatrix, elp_to_json,
                           infer_v_e, nmatrix, nmatrix_from_elp, nmatrix_from_json,
                           nmatrix_to_json)
from reconkit.errors import (Graph6ParseError, InconsistentDeckError,
                             InvalidMatrixError)
from reconkit.graphcore import all_graphs, parse_graph6, write_graph6
from reconkit.polydeck import build_polydeck, polydeck_from_json, polydeck_to_json

from check_oracles import dense_fill

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

_GRAPHS = [g for g in all_graphs(4) if g.e]
_G6 = [write_graph6(g) for g in all_graphs(5)]
_MATRICES = [nmatrix_to_json(nmatrix(g)) for g in _GRAPHS]
_POSETS = [elp_to_json(elp_from_nmatrix(nmatrix(g))) for g in _GRAPHS]
_DECKS = [polydeck_to_json(build_polydeck(g)) for g in all_graphs(4) if g.n >= 2]

# values a JSON reader might meet where it wants an integer
_VALUE = st.one_of(st.integers(-2, 4), st.sampled_from([0.0, 1.0, 1.9, -1.5, "1", "", True,
                                                        False, None, [], {}, [1]]))
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4)
                     | st.text(max_size=3),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["rows", "labels", "n", "polys", "nodes",
                                                        "covers", "rank", "from", "to",
                                                        "label"]), inner, max_size=3),
                     max_leaves=8)


def _mutate(draw, d, paths):
    """d with up to two values, at paths drawn from `paths`, replaced by _VALUE draws."""
    d = json.loads(json.dumps(d))
    for _ in range(draw(st.integers(0, 2))):
        *head, last = draw(st.sampled_from(paths))
        box = d
        for key in head:
            box = box[key]
        box[last] = draw(_VALUE)
    return d


@st.composite
def _matrix_json(draw):
    d = draw(st.sampled_from(_MATRICES))
    size = len(d["rows"])
    paths = [("rows", i, j) for i in range(size) for j in range(size)]
    d = _mutate(draw, d, paths)
    choice = draw(st.integers(0, 3))
    if choice == 0:
        del d["labels"]
    elif choice == 1:
        d["labels"][draw(st.integers(0, size - 1))] = draw(st.sampled_from(_G6 + ["", "~"]))
    return d


@st.composite
def _poset_json(draw):
    d = draw(st.sampled_from(_POSETS))
    paths = [("nodes", i, "rank") for i in range(len(d["nodes"]))]
    paths += [("covers", i, key) for i in range(len(d["covers"]))
              for key in ("from", "to", "label")]
    return _mutate(draw, d, paths)


@st.composite
def _deck_json(draw):
    d = draw(st.sampled_from(_DECKS))
    paths = [("n",)] + [("polys", i, k) for i, p in enumerate(d["polys"])
                        for k in range(len(p))]
    return _mutate(draw, d, paths)


@FUZZ
@given(st.one_of(st.sampled_from(_G6), st.text(max_size=6),
                 st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=130),
                         min_size=1, max_size=6)))
def test_graph6_reader_raises_only_parse_errors(text):
    try:
        g = parse_graph6(text)
    except Graph6ParseError:
        return
    body = text.strip()
    if body.startswith(">>graph6<<"):
        body = body[len(">>graph6<<"):]
    assert write_graph6(g) == body


@FUZZ
@given(st.one_of(_matrix_json(), _JSON))
def test_matrix_reader_raises_only_matrix_and_label_errors(d):
    try:
        nm = nmatrix_from_json(d)
    except (InvalidMatrixError, Graph6ParseError):
        return
    # compared as JSON text, which tells 1 from 1.0, "1" and true
    assert json.dumps([list(r) for r in nm.rows]) == json.dumps(d["rows"])
    if nm.labels is not None:
        assert [(c.v, c.e) for c in nm.labels.classes] == list(infer_v_e(nm))


@FUZZ
@given(st.one_of(_poset_json(), _JSON))
def test_poset_reader_raises_only_matrix_errors(d):
    try:
        elp = elp_from_json(d)
    except InvalidMatrixError:
        return
    assert json.dumps(list(elp.ranks)) == json.dumps([nd["rank"] for nd in d["nodes"]])
    covers = sorted([c["from"], c["to"], c["label"]] for c in d["covers"])
    assert json.dumps([list(c) for c in elp.covers]) == json.dumps(covers)


@FUZZ
@given(_poset_json())
def test_the_fill_of_an_admitted_poset_matches_its_dense_witness(d):
    """Same rows, or a refusal from both, on every poset the reader admits."""
    try:
        elp = elp_from_json(d)
    except InvalidMatrixError:
        return
    try:
        want = dense_fill(elp).rows
    except InvalidMatrixError:
        with pytest.raises(InvalidMatrixError):
            nmatrix_from_elp(elp)
        return
    assert nmatrix_from_elp(elp).rows == want


@FUZZ
@given(st.one_of(_deck_json(), _JSON))
def test_deck_reader_raises_only_deck_errors(d):
    try:
        deck = polydeck_from_json(d)
    except InconsistentDeckError:
        return
    assert json.dumps(deck.n) == json.dumps(d["n"])
    assert json.dumps([list(p) for p in deck.polys]) == json.dumps(d["polys"])
