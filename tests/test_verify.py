"""The verification registry's per-graph subject: what it builds, and that
sharing it changes no check's verdict; the per-type caches, and that the
checks reading them still fail on a wrong count."""

import sys
from collections import Counter
from types import MappingProxyType

import pytest

from reconkit import deck as deckmod
from reconkit import graphcore, isotype, oracle, verify, whitney
from reconkit.combi import Polynomial
from reconkit.errors import ConsistencyError
from reconkit.graphcore import all_graphs, graph, vertex_deck, write_graph6
from reconkit.isotype import canonical_code, code_graph
from reconkit.verify import CHAIN_TYPES, CHECKS, run_checks
from reconkit.whitney import type_key

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
    verify._card_matrix.cache_clear()
    out = run_checks(g, sorted(CHECKS))
    assert all(not fails for name, fails in out.items() if name != "elp-aut")
    # once on g, and for `childdeck` once per card type with an edge, on its canonical form
    types = {canonical_code(card) for card in vertex_deck(g) if card.e}
    assert Counter(nmatrices) == Counter([g] + [code_graph(code) for code in types])
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


def test_chain_weights_are_kept_once_per_type_and_order():
    verify._chain_weights.cache_clear()
    for g in all_graphs(5, min_edges=1):
        assert run_checks(g, ["whitney-chain"]) == {"whitney-chain": []}
    info = verify._chain_weights.cache_info()
    # orders 2..5, so nothing is evicted
    assert info.currsize <= len(CHAIN_TYPES) * 4 <= info.maxsize


def test_whitney_chain_fails_on_a_recursion_off_by_one(bowtie, monkeypatch):
    verify._chain_weights.cache_clear()
    whitney.covers_of_type.cache_clear()
    wrong, real = CHAIN_TYPES[4], verify.count_type
    monkeypatch.setattr(verify, "count_type",
                        lambda g, fams: real(g, fams) + (type_key(fams) == type_key(wrong)))
    want = [f"chain sum != recursion for {len(wrong)}-block type"]
    assert run_checks(bowtie, ["whitney-chain"]) == {"whitney-chain": want}


def test_childdeck_fails_when_a_child_is_dropped(bowtie, monkeypatch):
    verify._card_matrix.cache_clear()
    real = deckmod.child_nmatrices

    def one_fewer(nm):
        (sub, mult), *rest = real(nm)
        return [(sub, mult - 1)] * (mult > 1) + rest

    monkeypatch.setattr(deckmod, "child_nmatrices", one_fewer)
    want = ["child matrices disagree with direct computation"]
    assert run_checks(bowtie, ["childdeck"]) == {"childdeck": want}


def test_kocay_identity_fails_on_a_count_off_by_one(bowtie):
    """The bowtie's count of itself enters only the covers' side of the identity."""
    verify._kocay_covers.cache_clear()
    s = verify._Subject(bowtie)
    assert verify._check_kocay(s) == []
    s.subgraph_counts[canonical_code(bowtie)] += 1
    fails = verify._check_kocay(s)
    assert fails and all(f.startswith("kocay identity violated") for f in fails)


def test_eq1_and_kocay_fail_on_a_guarded_count_off_by_one(bowtie, monkeypatch):
    """The diamond K4 - e has two vertices of degree 3 and the bowtie one, so
    `count_subgraphs`' degree guard answers 0 with no backtrack; read as 1,
    both checks that compare subgraph counts fail."""
    diamond = graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    isotype._pattern(diamond)  # the pattern's own orbit searches, before the spy
    backtracks = _counted(monkeypatch, isotype, "_embedding_count")
    assert isotype.count_subgraphs.__wrapped__(bowtie, diamond) == 0 and backtracks == []
    names = ["eq1", "kocay-identity"]
    assert run_checks(bowtie, names) == {"eq1": [], "kocay-identity": []}
    real, planted = verify.count_subgraphs, canonical_code(diamond)
    monkeypatch.setattr(verify, "count_subgraphs",
                        lambda g, f: real(g, f) + (g == bowtie and canonical_code(f) == planted))
    got = run_checks(bowtie, names)
    assert got["eq1"] == ["subgraph/induced relation violated"]
    assert got["kocay-identity"] and all(f.startswith("kocay identity violated")
                                         for f in got["kocay-identity"])


def test_derivative_fails_on_one_planted_card_polynomial(paw, monkeypatch):
    """One card's c_3 moved by 1, which n - 3 = 1 divides, rebuilds a wrong c_3
    of g; its c_2 moved by 1 leaves a remainder over n - 2 = 2, and
    `card_sum_coeffs` refuses the cards.  g's own polynomial stays right."""
    assert run_checks(paw, ["derivative"]) == {"derivative": []}
    real = verify.charpoly_oracle

    def plant(i):
        faulted = []

        def oracle(h):
            p = real(h)
            if h.n == paw.n - 1 and not faulted:
                faulted.append(h)
                p = Polynomial(p.coeffs[:i] + (p[i] + 1,) + p.coeffs[i + 1:])
            return p

        monkeypatch.setattr(verify, "charpoly_oracle", oracle)
        return faulted

    faulted = plant(3)
    assert run_checks(paw, ["derivative"]) == {"derivative": ["derivative identity violated"]}
    assert len(faulted) == 1
    faulted = plant(2)
    [fail] = run_checks(paw, ["derivative"])["derivative"]
    assert fail.startswith("InconsistentDeckError: card coefficient sum at index 2")
    assert len(faulted) == 1


def test_a_planted_cycle_count_fails_the_checks_that_read_it(bowtie, monkeypatch):
    """The oracles' cycle counts and `polydeck`'s subset recursion read one
    table, `graphcore.cycles_on_sets`, so no check may compare two values
    that both come from it.  With the hamiltonian count of one triangle of
    the bowtie off by one in every module that holds the table, `nrecon`
    finds psi_3 against the N-matrix reconstruction, and `polydeck` finds
    its charpoly against Berkowitz's."""
    names = ["nrecon", "polydeck"]
    assert run_checks(bowtie, names) == {name: [] for name in names}
    real = graphcore.cycles_on_sets
    triangle = min(mask for mask in real(bowtie) if mask.bit_count() == 3)

    def planted(g):
        table = dict(real(g))
        if g == bowtie:
            table[triangle] += 1
        return MappingProxyType(table)

    holders = [mod for name, mod in sys.modules.items()
               if name.startswith("reconkit.") and getattr(mod, "cycles_on_sets", None) is real]
    assert {mod.__name__ for mod in holders} >= {"reconkit.graphcore", "reconkit.oracle",
                                                  "reconkit.polydeck"}
    oracle._unicyclic_by_length.cache_clear()  # the one cache that reads the table
    try:
        for mod in holders:
            monkeypatch.setattr(mod, "cycles_on_sets", planted)
        got = run_checks(bowtie, names)
    finally:
        monkeypatch.undo()
        oracle._unicyclic_by_length.cache_clear()
    assert "psi_3 mismatch" in got["nrecon"]
    assert got["polydeck"] == ["asserted polydeck charpoly mismatch"]
