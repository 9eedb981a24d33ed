"""The verification registry's per-graph subject: what it builds, and that
sharing it changes no check's verdict."""

from collections import Counter

import pytest

from reconkit import deck as deckmod
from reconkit import isotype, verify
from reconkit.errors import ConsistencyError
from reconkit.graphcore import all_graphs, graph, vertex_deck, write_graph6
from reconkit.verify import CHECKS, run_checks

STAR5 = graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # one card without an edge


def _counted(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends its first argument to the returned list."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("which", ["star5", "prism"])
def test_each_artifact_is_built_once_per_call(which, prism, monkeypatch):
    g = STAR5 if which == "star5" else prism
    nmatrices = _counted(monkeypatch, deckmod, "nmatrix")
    recons = _counted(monkeypatch, verify, "reconstruct")
    decks = _counted(monkeypatch, verify, "vertex_deck")
    charpolys = _counted(monkeypatch, verify, "charpoly_oracle")
    hams = _counted(monkeypatch, verify, "ham_oracle")
    tables = _counted(monkeypatch, isotype, "subgraph_type_table")
    out = run_checks(g, sorted(CHECKS))
    assert all(not fails for name, fails in out.items() if name != "elp-aut")
    # once on g, and once on each card with an edge for `childdeck`
    cards = [card for card in vertex_deck(g) if card.e]
    assert Counter(nmatrices) == Counter([g] + cards)
    assert len(recons) == 1
    assert decks == [g]
    assert charpolys.count(g) == 1
    assert hams == [g]
    assert tables == []


def test_sharing_changes_no_verdict():
    names = sorted(CHECKS)
    for g in all_graphs(4):
        alone = {name: run_checks(g, [name])[name] for name in names}
        assert run_checks(g, names) == alone, write_graph6(g)
        assert run_checks(g, names[::-1]) == alone, write_graph6(g)


def test_a_failed_artifact_is_each_readers_own_error(paw, bowtie, monkeypatch):
    """An artifact that raises is not kept: each check that reads it records the error."""
    names = sorted(CHECKS)
    want = {g: run_checks(g, names) for g in (paw, bowtie)}
    bad = deckmod.strip(deckmod.nmatrix(paw)).rows
    real, tried = verify.reconstruct, []

    def broken(nm):
        if nm.rows != bad:
            return real(nm)
        tried.append(nm)
        raise ConsistencyError("boom")

    monkeypatch.setattr(verify, "reconstruct", broken)
    got = run_checks(paw, names)
    assert len(tried) == 2
    for name in ("nrecon", "rankpoly"):
        assert got[name] == ["ConsistencyError: boom"]
        assert isinstance(got[name][0], verify._Raised)
        got[name] = want[paw][name]
    assert got == want[paw]
    assert run_checks(bowtie, names) == want[bowtie]
