import json
import multiprocessing
import os
import re
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import pytest

import reconkit
from reconkit import cli, verify
from reconkit.cli import main
from reconkit.errors import ConsistencyError
from reconkit.graphcore import cycle, path, vertex_deck, write_graph6
from reconkit.oracle import charpoly_oracle

PRISM_G6 = "E{Sw"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _run_process(argv):
    """Run the CLI in a fresh interpreter, so that a traceback would show on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(reconkit.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "reconkit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_build_nmatrix_prism(capsys):
    code, out = _run(capsys, ["build", "nmatrix", PRISM_G6])
    assert code == 0
    assert out["size"] == 9
    assert out["rows"][8] == [9, 6, 12, 2, 6, 6, 3, 6, 1]
    assert out["ve"][8] == [6, 9]
    assert out["labels"][0] == "A_"


def test_build_elp(capsys):
    code, out = _run(capsys, ["build", "elp", "A_"])
    assert code == 0
    assert out == {"nodes": [{"rank": 2}], "covers": []}
    code, out = _run(capsys, ["build", "elp", PRISM_G6])
    assert len(out["nodes"]) == 9 and len(out["covers"]) == 13


def test_build_polydeck(capsys):
    code, out = _run(capsys, ["build", "polydeck", write_graph6(path(3))])
    assert code == 0
    assert out["n"] == 3 and len(out["polys"]) == 6


def test_build_parse_error(capsys):
    code, out = _run(capsys, ["build", "nmatrix", "~~~"])
    assert code == 2 and out["error"] == "parse"


def test_build_domain_error(capsys):
    code, out = _run(capsys, ["build", "nmatrix", "A?"])  # edgeless
    assert code == 3 and out["error"] == "domain"


def test_recon_nmatrix_roundtrip(tmp_path, capsys):
    code, built = _run(capsys, ["build", "nmatrix", write_graph6(cycle(4))])
    f = tmp_path / "c4.json"
    f.write_text(json.dumps(built))
    code, out = _run(capsys, ["recon", "--source", "nmatrix", str(f)])
    assert code == 0
    assert out["ham"] == 1 and out["tr"] == 4
    assert out["charpoly"] == [1, 0, -4, 0, 0]


def test_recon_polydeck(tmp_path, capsys):
    code, built = _run(capsys, ["build", "polydeck", write_graph6(path(4))])
    f = tmp_path / "p4.json"
    f.write_text(json.dumps(built))
    code, out = _run(capsys, ["recon", "--source", "polydeck", str(f)])
    assert code == 0
    assert out["charpoly"] == [1, 0, -3, 0, 1]


def test_recon_polydeck_not_reconstructible(tmp_path, capsys):
    code, built = _run(capsys, ["build", "polydeck", write_graph6(cycle(4))])
    f = tmp_path / "c4deck.json"
    f.write_text(json.dumps(built))
    code, out = _run(capsys, ["recon", "--source", "polydeck", str(f)])
    assert code == 4 and out["error"] == "not-reconstructible"
    code, out = _run(capsys, ["recon", "--source", "polydeck",
                              "--assert-nonhamiltonian", str(f)])
    assert code == 0  # the flag overrides; C4 is hamiltonian so this is a lie,
    # but the tool honours the caller's assertion


def test_recon_polydeck_huge_n_is_refused_before_any_work(tmp_path):
    f = tmp_path / "huge.json"
    f.write_text('{"n": 100000000, "polys": []}')
    proc = _run_process(["recon", "--source", "polydeck", str(f)])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] == "domain"
    assert "\n" not in out["reason"] and "n=100000000" in out["reason"]


def test_recon_polydeck_no_graph_has_is_refused(tmp_path, capsys):
    """Each degree k needs C(n, k) entries: before, this deck's degree-6 entry
    stood for a sixth degree-2 one, and the charpoly came out [1, 0, -3, 2, 0.0]."""
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 4, "polys": [
        [1, 0], [1, 0], [1, 0], [1, 0], [1, 0, -1], [1, 0, -1], [1, 0, -1], [1, 0, 0],
        [1, 0, 0], [1, 0, 0, 0, 0, 0, 0], [1, 0, -3, 2], [1, 0, -1, 0], [1, 0, -1, 0],
        [1, 0, -1, 0]]}))
    code, out = _run(capsys, ["recon", "--source", "polydeck", "--assert-nonhamiltonian", str(f)])
    assert code == 3 and out["error"] == "domain" and "degree 2" in out["reason"], out


def test_recon_polydeck_card_degree_no_graph_has_is_refused(tmp_path, capsys):
    """P4's deck with the c_2 of its degree-2 entries moved by -2 and +2:
    the implied degrees are (0, 1, 1, 4).  Before, this printed x^4 - 3x^2 - 3."""
    code, built = _run(capsys, ["build", "polydeck", write_graph6(path(4))])
    polys = built["polys"]
    polys[polys.index([1, 0, -1, 0])] = [1, 0, -3, 0]
    polys[polys.index([1, 0, -1, 0])] = [1, 0, 1, 0]
    f = tmp_path / "p4-moved.json"
    f.write_text(json.dumps(built))
    code, out = _run(capsys, ["recon", "--source", "polydeck", str(f)])
    assert code == 3 and out["error"] == "domain" and "degree 4" in out["reason"], out


@pytest.mark.parametrize("source", ["nmatrix", "polydeck"])
@pytest.mark.parametrize("text", ['{"n": ' + "9" * 5000 + ', "polys": []}', "[" * 100000],
                         ids=["long-integer", "deep-nesting"])
def test_recon_json_that_json_loads_refuses_otherwise_is_a_parse_error(tmp_path, source, text):
    # neither int()'s 4300-digit limit nor the decoder's recursion limit raises JSONDecodeError
    f = tmp_path / "input.json"
    f.write_text(text)
    proc = _run_process(["recon", "--source", source, str(f)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "parse"


@pytest.mark.parametrize("argv", [["build", "nmatrix"], ["build", "polydeck"],
                                  ["recon", "--source", "direct"],
                                  ["recon", "--source", "vertexdeck"]])
def test_a_graph_over_the_vertex_limit_is_refused_before_any_work(tmp_path, argv):
    from reconkit.cli import VERTEX_LIMIT
    from reconkit.graphcore import complete
    if argv[-1] == "vertexdeck":
        # VERTEX_LIMIT + 1 cards of a (VERTEX_LIMIT + 1)-vertex graph
        deck = vertex_deck(complete(VERTEX_LIMIT + 1))
        target = tmp_path / "deck.g6"
        target.write_text("\n".join(write_graph6(c) for c in deck) + "\n")
        target = str(target)
    else:
        target = write_graph6(complete(62))  # the largest graph6 accepts
    proc = _run_process(argv + [target])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] == "domain" and f"limit of {VERTEX_LIMIT}" in out["reason"]


def test_matrix_json_over_the_row_limit_is_refused_before_it_is_read(tmp_path, capsys,
                                                                     monkeypatch):
    from reconkit import cli
    limit = 2 ** cli.VERTEX_LIMIT
    read = []
    json_int = cli.deckmod.json_int

    def reading(x):
        read.append(x)
        return json_int(x)

    monkeypatch.setattr(cli.deckmod, "json_int", reading)
    f = tmp_path / "matrix.json"
    f.write_text(json.dumps({"rows": [[1]] * (limit + 1)}))
    code, out = _run(capsys, ["recon", "--source", "nmatrix", str(f)])
    assert code == 3 and out["error"] == "domain"
    assert f"limit of {limit}" in out["reason"] and read == []
    f.write_text(json.dumps({"rows": [[1]] * limit}))
    code, out = _run(capsys, ["recon", "--source", "nmatrix", str(f)])
    assert code == 3 and out["reason"] == "matrix is not square" and read == [1] * limit


def test_matrix_labels_of_another_length_are_refused_before_any_is_parsed(tmp_path, capsys,
                                                                          monkeypatch):
    from reconkit.graphcore import complete
    parsed = []
    parse = cli.deckmod.parse_graph6

    def parsing(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(cli.deckmod, "parse_graph6", parsing)
    f = tmp_path / "matrix.json"
    big = [write_graph6(complete(62))] * 300
    for labels in (big, [], ["A_"] * 2, "A_"):
        f.write_text(json.dumps({"rows": [[1]], "labels": labels}))
        code, out = _run(capsys, ["recon", "--source", "nmatrix", str(f)])
        assert code == 3 and out["error"] == "domain", labels
        assert "one label per row" in out["reason"] and parsed == []
    # one label per row is read as before: the matrix of K3, labelled K2 and K3
    f.write_text(json.dumps({"rows": [[1, 0], [3, 1]], "labels": ["A_", "Bw"]}))
    code, out = _run(capsys, ["recon", "--source", "nmatrix", str(f)])
    assert code == 0 and parsed == ["A_", "Bw"]


@pytest.mark.parametrize("source,d", [
    ("nmatrix", {"rows": [[1.9]]}),
    ("nmatrix", {"rows": [["1"]]}),
    ("nmatrix", {"rows": [[True]]}),
    ("nmatrix", {"rows": ["1"]}),
    ("nmatrix", {"rows": [[1, 0], [3, 1]], "labels": ["A_", "Bg"]}),
    ("polydeck", {"n": 2.5, "polys": [[1, 0], [1, 0]]}),
    ("polydeck", {"n": 2, "polys": [[1, 0], [1.0, 0]]}),
    ("polydeck", {"n": 2, "polys": ["10", [1, 0]]}),
], ids=["float-entry", "string-entry", "bool-entry", "string-row", "label-of-another-type",
        "float-n", "float-coefficient", "string-poly"])
def test_json_that_is_not_all_integers_or_mislabelled_is_refused(tmp_path, capsys, source, d):
    """Before, int() read 1.9, "1" and true as 1, and a P3 label sat on the K3
    row: each of these reconstructed with exit 0."""
    f = tmp_path / "input.json"
    f.write_text(json.dumps(d))
    code, out = _run(capsys, ["recon", "--source", source, "--assert-nonhamiltonian", str(f)])
    assert code == 3 and out["error"] == "domain", out


def test_a_graph_at_the_vertex_limit_is_accepted(capsys):
    from reconkit.cli import VERTEX_LIMIT
    code, out = _run(capsys, ["build", "nmatrix", write_graph6(cycle(VERTEX_LIMIT))])
    assert code == 0 and out["ve"][-1] == [VERTEX_LIMIT, VERTEX_LIMIT]


def test_recon_vertexdeck(tmp_path, capsys):
    from reconkit.graphcore import complete
    deck = vertex_deck(complete(4))
    f = tmp_path / "k4.g6"
    f.write_text("\n".join(write_graph6(c) for c in deck) + "\n")
    code, out = _run(capsys, ["recon", "--source", "vertexdeck", str(f)])
    assert code == 0
    assert out["charpoly"] == [1, 0, -6, -8, -3]


def test_recon_vertexdeck_no_graph_has_is_refused(tmp_path, capsys):
    """The cards hold 2 edges, each in n - 2 = 2 cards, so G would have 1 edge
    and the BW card's vertex degree -1.  Before, this printed [1, 0, -1, 0, -1]."""
    f = tmp_path / "fake.g6"
    f.write_text("B?\nB?\nB?\nBW\n")
    code, out = _run(capsys, ["recon", "--source", "vertexdeck", str(f)])
    assert code == 3 and out["error"] == "domain" and "degree -1" in out["reason"], out


def test_recon_direct(capsys):
    code, out = _run(capsys, ["recon", "--source", "direct", PRISM_G6])
    assert code == 0
    prism_poly = list(charpoly_oracle(
        __import__("reconkit.graphcore", fromlist=["parse_graph6"]).parse_graph6(PRISM_G6)).coeffs)
    assert out["charpoly"] == prism_poly
    assert out["tr"] == 75 and out["ham"] == 3


@pytest.mark.parametrize("g6", ["?", "@"])
def test_recon_direct_refuses_fewer_than_two_vertices(capsys, g6):
    code, out = _run(capsys, ["recon", "--source", "direct", g6])
    assert code == 3 and out["error"] == "domain"
    assert "at least 2 vertices" in out["reason"], out


def test_recon_direct_reports_the_rank_polynomial_past_sixteen_edges(capsys):
    from reconkit.graphcore import complete
    code, out = _run(capsys, ["recon", "--source", "direct", write_graph6(complete(7))])
    assert code == 0 and sum(d["count"] for d in out["rankpoly"]) == 2 ** 21


def test_recon_direct_on_k10_matches_the_closed_forms(capsys):
    """K10 is the largest graph the CLI admits.  Its charpoly is
    (x - 9)(x + 1)^9 and tr is 10^8 (Cayley).  There are C(10, r)(r - 1)!/2
    r-cycles, and each lies on r * 10^(9 - r) spanning unicyclic subgraphs:
    the forests of K10 rooted at its r vertices."""
    from reconkit.graphcore import complete
    code, out = _run(capsys, ["recon", "--source", "direct", write_graph6(complete(10))])
    assert code == 0
    poly = [1, -9]
    for _ in range(9):
        poly = [a + b for a, b in zip(poly + [0], [0] + poly)]  # times x + 1
    assert out["charpoly"] == poly
    assert out["tr"] == 10 ** 8
    assert out["ham"] == factorial(9) // 2
    psi = {r: comb(10, r) * factorial(r - 1) // 2 for r in range(3, 11)}
    assert out["psi"] == {"2": 45, **{str(r): c for r, c in psi.items()}}
    assert out["uni"] == {**{str(r): psi[r] * r * 10 ** (9 - r) for r in range(3, 10)},
                          "10": out["ham"]}


def test_sweep_small(capsys):
    code, out = _run(capsys, ["sweep", "--max-n", "4",
                              "--checks", "roundtrip,nrecon,golden,elp-aut"])
    assert code == 0 and out["ok"] is True
    assert out["graphs"] == 14
    assert out["checks"]["golden"]["failures"] == []
    assert out["candidates"] == [] and out["unparsed"] == []


def test_sweep_corpus_file_and_jobs(tmp_path, capsys):
    f = tmp_path / "corpus.g6"
    f.write_text("Bw\nA_\nA?\n")  # edgeless entry must be dropped
    code, out = _run(capsys, ["sweep", "--max-n", "6", "--checks", "nrecon",
                              "--jobs", "2", "--corpus", str(f)])
    assert code == 0
    assert out["graphs"] == 2


def test_sweep_corpus_skips_graphs_beyond_max_n_without_a_record(tmp_path, capsys):
    """Corpus graphs with more than `--max-n` vertices, or with no edge, are
    skipped, as the README says: K9 and the prism at `--max-n 5` sweep no
    graph, and the report is ok."""
    f = tmp_path / "corpus.g6"
    f.write_text("H~~~~~~\nE{Sw\n")
    code, out = _run(capsys, ["sweep", "--max-n", "5", "--checks", "roundtrip",
                              "--corpus", str(f)])
    assert code == 0 and out["ok"] is True
    assert out["graphs"] == 0 and out["checks"]["roundtrip"] == {"graphs": 0, "failures": []}
    assert out["unparsed"] == [] and out["candidates"] == []


def test_sweep_jobs_is_checked_and_capped(capsys, monkeypatch):
    code, out = _run(capsys, ["sweep", "--max-n", "3", "--jobs", "0"])
    assert code == 3 and out["error"] == "domain"
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return list(map(fn, work))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, out = _run(capsys, ["sweep", "--max-n", "4", "--checks", "nrecon",
                              "--jobs", str(10 ** 9)])
    assert code == 0 and out["graphs"] == 14
    assert sizes == [3]


def test_sweep_corpus_reports_an_unparsable_line_and_sweeps_the_rest(tmp_path, capsys):
    f = tmp_path / "corpus.g6"
    f.write_text("Bw\n~~~\nCF\n")
    code, out = _run(capsys, ["sweep", "--max-n", "4", "--checks", "nrecon",
                              "--corpus", str(f)])
    assert code == 1 and out["ok"] is False
    assert out["graphs"] == 2 and out["checks"]["nrecon"]["failures"] == []
    [record] = out["unparsed"]
    assert record["line"] == 2 and record["graph6"] == "~~~"
    assert record["detail"][0].startswith("Graph6ParseError: ")


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_an_input_that_cannot_be_read_is_a_parse_error(tmp_path, case):
    """Exit 2 with a JSON reason, not a traceback and exit 1, the sweep-failure code."""
    bad = tmp_path / "not-utf8.g6"
    bad.write_bytes(b"Bw\n\xff\xfe\n")
    target = {"missing": tmp_path / "no" / "such" / "file", "directory": tmp_path,
              "not-utf8": bad}[case]
    argvs = [["sweep", "--max-n", "3", "--corpus", str(target)]]
    if case == "not-utf8":
        argvs.append(["recon", "--source", "nmatrix", str(target)])
    for argv in argvs:
        proc = _run_process(argv)
        assert proc.returncode == 2, argv
        assert "Traceback" not in proc.stderr
        out = json.loads(proc.stdout)
        assert out["error"] == "parse" and out["reason"].startswith("cannot read "), argv


def test_sweep_counts_only_the_graphs_a_check_applies_to(capsys):
    code, out = _run(capsys, ["sweep", "--max-n", "4",
                              "--checks", "kelly,vertexdeck,whitney-chain"])
    assert code == 0 and out["graphs"] == 14
    assert {name: c["graphs"] for name, c in out["checks"].items()} == {
        "kelly": 13, "vertexdeck": 13, "whitney-chain": 14}


def test_sweep_records_a_check_error_and_goes_on(capsys, monkeypatch):
    def broken(subject):
        if write_graph6(subject.g) == "Bw":
            raise ConsistencyError("boom")
        return []

    # the candidate probe too: an error is a failure, never a candidate
    for name in ("roundtrip", "elp-aut"):
        monkeypatch.setitem(verify.CHECKS, name, verify.CHECKS[name]._replace(run=broken))
    code, out = _run(capsys, ["sweep", "--max-n", "3", "--checks",
                              "roundtrip,elp-aut", "--jobs", "1"])
    assert code == 1 and out["ok"] is False
    assert out["candidates"] == []
    for name in ("roundtrip", "elp-aut"):
        assert out["checks"][name] == {
            "graphs": 4,
            "failures": [{"graph6": "Bw", "detail": ["ConsistencyError: boom"]}]}


def test_sweep_runs_a_repeated_check_once(capsys, monkeypatch):
    """`--checks roundtrip,roundtrip` reports what `--checks roundtrip` does,
    with one call per graph."""
    calls = []
    check = verify.CHECKS["roundtrip"]

    def counting(subject):
        calls.append(write_graph6(subject.g))
        return check.run(subject)

    monkeypatch.setitem(verify.CHECKS, "roundtrip", check._replace(run=counting))
    reports = []
    for checks in ("roundtrip,roundtrip", "roundtrip"):
        calls.clear()
        code, out = _run(capsys, ["sweep", "--max-n", "3", "--checks", checks])
        assert code == 0 and out["graphs"] == 4
        assert len(calls) == len(set(calls)) == out["graphs"] == 4, checks
        del out["elapsed_seconds"]
        reports.append(out)
    assert reports[0] == reports[1]


def test_sweep_all_runs_every_registry_check_and_the_readme_lists_them(capsys):
    names = set(verify.CHECKS) | {"golden"}
    code, out = _run(capsys, ["sweep", "--max-n", "3", "--checks", "all"])
    assert code == 0 and set(out["checks"]) == names
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = readme.split("Available sweep checks:")[1].split(".")[0]
    assert set(re.findall(r"`([^`]+)`", listed)) == names


def test_sweep_rejects_unknown_check(capsys):
    code, out = _run(capsys, ["sweep", "--max-n", "3", "--checks", "nope"])
    assert code == 3


def test_output_is_deterministic(capsys):
    main(["build", "nmatrix", PRISM_G6])
    first = capsys.readouterr().out
    main(["build", "nmatrix", PRISM_G6])
    second = capsys.readouterr().out
    assert first == second
