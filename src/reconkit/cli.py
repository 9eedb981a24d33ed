"""Command-line front end: build artifacts, run reconstructions, sweep verifications.

Exit codes: 0 success, 1 sweep check failure, 2 parse error, 3 domain error,
4 not reconstructible from the given data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache
from itertools import combinations_with_replacement

from . import deck as deckmod
from . import polydeck as pdmod
from .errors import (DomainError, Graph6ParseError, InconsistentDeckError,
                     InvalidMatrixError, NotReconstructibleError, ReconkitError)
from .graphcore import (Graph, all_graphs, complete, cycle, induced_subgraph,
                        parse_graph6, path, vertex_deck, write_graph6)
from .isotype import canonical_code, count_induced, count_subgraphs, kelly_count
from .nrecon import reconstruct
from .oracle import (RANKPOLY_EDGE_LIMIT, charpoly_oracle, cover_count_oracle,
                     ham_oracle, psi_oracle, rankpoly_oracle, tr_oracle,
                     uni_oracle)
from .whitney import charpoly_from_vertex_deck, count_type, count_type_chain

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NOT_RECONSTRUCTIBLE = 4


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read()
    return arg


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    g = parse_graph6(args.graph6)
    if args.what == "polydeck":
        _emit(pdmod.polydeck_to_json(pdmod.build_polydeck(g)))
        return EXIT_OK
    nm = deckmod.nmatrix(g)
    if args.what == "nmatrix":
        _emit(deckmod.nmatrix_to_json(nm))
    else:
        _emit(deckmod.elp_to_json(deckmod.elp_from_nmatrix(nm)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# recon
# ---------------------------------------------------------------------------

def _direct_report(g: Graph) -> dict:
    out = {
        "charpoly": list(charpoly_oracle(g).coeffs),
        "tr": tr_oracle(g),
        "ham": ham_oracle(g),
        "psi": {str(i): psi_oracle(g, i) for i in range(2, g.n + 1)},
        "uni": {str(r): uni_oracle(g, r) for r in range(3, g.n + 1)},
    }
    if g.e <= RANKPOLY_EDGE_LIMIT:
        out["rankpoly"] = [{"r": r, "s": s, "count": c}
                           for (r, s), c in sorted(rankpoly_oracle(g).items())]
    return out


def _cmd_recon(args) -> int:
    text = _read_input(args.input)
    if args.source == "nmatrix":
        nm = deckmod.nmatrix_from_json(json.loads(text))
        _emit(reconstruct(nm).report())
    elif args.source == "polydeck":
        d = pdmod.polydeck_from_json(json.loads(text))
        poly = pdmod.charpoly_from_polydeck(
            d, assert_nonhamiltonian=args.assert_nonhamiltonian)
        _emit({"charpoly": list(poly.coeffs)})
    elif args.source == "vertexdeck":
        cards = [parse_graph6(line) for line in text.splitlines() if line.strip()]
        poly = charpoly_from_vertex_deck(cards)
        _emit({"charpoly": list(poly.coeffs)})
    else:
        _emit(_direct_report(parse_graph6(text.strip())))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep checks: each takes a graph with e >= 1 to which it applies (see
# _CHECKS) and returns failure strings
# ---------------------------------------------------------------------------

def _check_roundtrip(g: Graph) -> list:
    nm = deckmod.strip(deckmod.nmatrix(g))
    rt = deckmod.nmatrix_from_elp(deckmod.elp_from_nmatrix(nm))
    return [] if rt.rows == nm.rows else ["nmatrix/elp round trip changed entries"]


def _check_nrecon(g: Graph) -> list:
    fails = []
    rec = reconstruct(deckmod.strip(deckmod.nmatrix(g)))
    tp = rec.top
    if tp.charpoly.coeffs != charpoly_oracle(g).coeffs:
        fails.append("charpoly mismatch")
    if tp.ham != ham_oracle(g):
        fails.append("ham mismatch")
    if tp.tr != tr_oracle(g):
        fails.append("tr mismatch")
    for i in range(2, g.n + 1):
        if tp.psi.get(i, 0) != psi_oracle(g, i):
            fails.append(f"psi_{i} mismatch")
    for r in range(3, g.n + 1):
        if tp.uni.get(r, 0) != uni_oracle(g, r):
            fails.append(f"uni_{r} mismatch")
    return fails


def _check_rankpoly(g: Graph) -> list:
    rec = reconstruct(deckmod.strip(deckmod.nmatrix(g)))
    return [] if rec.rankpoly() == rankpoly_oracle(g) else ["rank polynomial mismatch"]


def _check_polydeck(g: Graph) -> list:
    d = pdmod.build_polydeck(g)
    want = charpoly_oracle(g).coeffs
    degs = pdmod.degree_sequence(d)
    if degs is not None and 1 in degs:
        got = pdmod.charpoly_from_polydeck(d)
        return [] if got.coeffs == want else ["degree-1 polydeck charpoly mismatch"]
    if ham_oracle(g) == 0:
        got = pdmod.charpoly_from_polydeck(d, assert_nonhamiltonian=True)
        return [] if got.coeffs == want else ["asserted polydeck charpoly mismatch"]
    try:
        pdmod.charpoly_from_polydeck(d)
        return ["hamiltonian graph without degree-1 vertex was not rejected"]
    except NotReconstructibleError:
        return []


def _check_vertexdeck(g: Graph) -> list:
    got = charpoly_from_vertex_deck(vertex_deck(g))
    return [] if got.coeffs == charpoly_oracle(g).coeffs else ["vertex deck charpoly mismatch"]


def _check_whitney_chain(g: Graph) -> list:
    fails = []
    pool = [path(2), complete(3), cycle(4)]
    for r in (1, 2, 3):
        for fams in combinations_with_replacement(pool, r):
            a = count_type(g, fams)
            b = count_type_chain(g, fams)
            if a != b:
                fails.append(f"chain sum != recursion for {r}-block type")
    return fails


@lru_cache(maxsize=None)
def _small_types(max_n: int, with_isolated: bool) -> tuple:
    out = []
    for h in all_graphs(max_n):
        if not with_isolated and any(h.degree(v) == 0 for v in range(h.n)):
            continue
        out.append(h)
    return tuple(out)


def _check_kelly(g: Graph) -> list:
    fails = []
    d = vertex_deck(g)
    for f in _small_types(g.n - 1, with_isolated=False):
        if f.e == 0:
            continue
        if kelly_count(d, f, g.n) != count_subgraphs(g, f):
            fails.append("kelly subgraph count mismatch")
    for f in _small_types(g.n - 1, with_isolated=True):
        if kelly_count(d, f, g.n, induced=True) != count_induced(g, f):
            fails.append("kelly induced count mismatch")
    return fails


def _check_kocay(g: Graph) -> list:
    from .isotype import subgraph_type_table
    fails = []
    pool = [path(2), path(3), complete(3), cycle(4)]
    counts = {}
    for m in range(1, g.e + 1):
        for code, cnt in subgraph_type_table(g, m).items():
            counts[code] = counts.get(code, 0) + cnt
    for r in (2, 3):
        for fams in combinations_with_replacement(pool, r):
            lhs = 1
            for f in fams:
                lhs *= count_subgraphs(g, f)
            rhs = 0
            for code, cnt in counts.items():
                x = _rep_of(code)
                c = cover_count_oracle(list(fams), x)
                rhs += c * cnt
            if lhs != rhs:
                fails.append(f"kocay identity violated for {r} factors")
    return fails


_REP_CACHE: dict = {}


def _rep_of(code: bytes) -> Graph:
    if code not in _REP_CACHE:
        for h in all_graphs(code[0], min_edges=0):
            _REP_CACHE.setdefault(canonical_code(h), h)
    return _REP_CACHE[code]


def _check_derivative(g: Graph) -> list:
    lhs = charpoly_oracle(g).derivative()
    total = None
    for card in vertex_deck(g):
        p = charpoly_oracle(card)
        total = p if total is None else total.add(p)
    return [] if lhs.coeffs == total.coeffs else ["derivative identity violated"]


def _check_childdeck(g: Graph) -> list:
    nm = deckmod.strip(deckmod.nmatrix(g))
    got = {tuple(sub.rows): mult for sub, mult in deckmod.child_nmatrices(nm)}
    want = {}
    for u in range(g.n):
        card = induced_subgraph(g, set(range(g.n)) - {u})
        if card.e == 0:
            continue
        key = deckmod.canonical_nmatrix(deckmod.strip(deckmod.nmatrix(card))).rows
        want[key] = want.get(key, 0) + 1
    return [] if got == want else ["child matrices disagree with direct computation"]


def _check_eq1(g: Graph) -> list:
    for f in _small_types(g.n, with_isolated=False):
        if f.e == 0:
            continue
        direct = count_subgraphs(g, f)
        via = 0
        for h in _small_types(f.n, with_isolated=True):
            if h.n == f.n and h.e >= f.e:
                via += count_induced(g, h) * count_subgraphs(h, f)
        if direct != via:
            return ["subgraph/induced relation violated"]
    return []


def _check_emptycount(g: Graph) -> list:
    from .graphcore import empty_graph
    nm = deckmod.strip(deckmod.nmatrix(g))
    for r in range(2, g.n + 1):
        if deckmod.count_empty_induced(nm, r) != count_induced(g, empty_graph(r)):
            return [f"empty-subgraph count mismatch at r={r}"]
    return []


def _check_elp_aut(g: Graph) -> list:
    elp = deckmod.elp_from_nmatrix(deckmod.nmatrix(g))
    auts = deckmod.elp_automorphisms(elp)
    return [f"nontrivial ELP automorphism {a}" for a in auts]


def _always(g: Graph) -> bool:
    return True


def _small(g: Graph) -> bool:
    return g.n <= 5


# name -> (applies to the graph, check)
_CHECKS = {
    "roundtrip": (_always, _check_roundtrip),
    "nrecon": (_always, _check_nrecon),
    "rankpoly": (lambda g: g.e <= RANKPOLY_EDGE_LIMIT, _check_rankpoly),
    "polydeck": (_always, _check_polydeck),
    "vertexdeck": (lambda g: g.n >= 3, _check_vertexdeck),
    "whitney-chain": (_small, _check_whitney_chain),
    "kelly": (lambda g: 3 <= g.n <= 5, _check_kelly),
    "kocay-identity": (_small, _check_kocay),
    "derivative": (_always, _check_derivative),
    "childdeck": (_always, _check_childdeck),
    "eq1": (_always, _check_eq1),
    "emptycount": (_always, _check_emptycount),
    "elp-aut": (_always, _check_elp_aut),
}

# elp-aut reports candidates, never failures
_CANDIDATE_CHECKS = {"elp-aut"}


class _Raised(str):
    """The failure text of a check that raised: a failure even for a candidate check."""


def _run_graph(job) -> tuple:
    """Run the named checks on one graph6; a check that does not apply gives []."""
    g6, names = job
    g = parse_graph6(g6)
    out = {}
    for name in names:
        applies, check = _CHECKS[name]
        try:
            out[name] = check(g) if applies(g) else []
        except ReconkitError as exc:
            out[name] = [_Raised(f"{type(exc).__name__}: {exc}")]
    return g6, out


def _golden_check() -> list:
    prism = parse_graph6("E{Sw")
    nm = deckmod.nmatrix(prism)
    expected = (
        (1, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0, 0, 0),
        (2, 0, 1, 0, 0, 0, 0, 0, 0),
        (3, 0, 0, 1, 0, 0, 0, 0, 0),
        (3, 2, 2, 0, 1, 0, 0, 0, 0),
        (4, 1, 2, 1, 0, 1, 0, 0, 0),
        (4, 0, 4, 0, 0, 0, 1, 0, 0),
        (6, 3, 6, 1, 2, 2, 1, 1, 0),
        (9, 6, 12, 2, 6, 6, 3, 6, 1),
    )
    fails = []
    if nm.rows != expected:
        fails.append("prism N-matrix differs from the published table")
    elp = deckmod.elp_from_nmatrix(nm)
    if elp.size != 9 or len(elp.covers) != 13:
        fails.append("prism poset shape differs from the published diagram")
    if sorted(lab for _j, _i, lab in elp.covers) != [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 4, 6]:
        fails.append("prism cover labels differ from the published diagram")
    return fails


def _cmd_sweep(args) -> int:
    t0 = time.time()
    if not (2 <= args.max_n <= 8):
        raise DomainError("max-n must be between 2 and 8")
    names = sorted(_CHECKS) if args.checks == "all" else args.checks.split(",")
    for name in names:
        if name not in _CHECKS and name != "golden":
            raise DomainError(f"unknown check '{name}'")
    run_golden = args.checks == "all" or "golden" in names
    names = [n for n in names if n != "golden"]
    if args.corpus:
        with open(args.corpus) as fh:
            corpus = [(ln.strip(), parse_graph6(ln.strip())) for ln in fh if ln.strip()]
        corpus = [(s, g) for s, g in corpus if g.e >= 1 and g.n <= args.max_n]
    else:
        corpus = [(write_graph6(g), g) for g in all_graphs(args.max_n, min_edges=1)]
    jobs = args.jobs or int(os.environ.get("RECONKIT_JOBS", "1"))
    results = {name: {"graphs": sum(1 for _s, g in corpus if _CHECKS[name][0](g)),
                      "failures": []}
               for name in names}
    candidates = []
    work = [(g6, tuple(names)) for g6, _g in corpus]
    if jobs > 1:
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            outputs = pool.map(_run_graph, work)
    else:
        outputs = map(_run_graph, work)
    for g6, per_check in outputs:
        for name, fails in per_check.items():
            if not fails:
                continue
            if name in _CANDIDATE_CHECKS and not isinstance(fails[0], _Raised):
                candidates.append({"graph6": g6, "detail": fails})
            else:
                results[name]["failures"].append({"graph6": g6, "detail": fails})
    report = {
        "max_n": args.max_n,
        "graphs": len(corpus),
        "checks": results,
        "candidates": candidates,
        "elapsed_seconds": round(time.time() - t0, 3),
    }
    if run_golden:
        gfails = _golden_check()
        report["checks"]["golden"] = {
            "graphs": 1,
            "failures": [{"graph6": "E{Sw", "detail": gfails}] if gfails else [],
        }
    failed = any(v["failures"] for v in report["checks"].values())
    report["ok"] = not failed
    _emit(report)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reconkit",
        description="Induced-subgraph incidence matrices and invariant reconstruction")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit nmatrix / elp / polydeck JSON for a graph")
    b.add_argument("what", choices=["nmatrix", "elp", "polydeck"])
    b.add_argument("graph6")
    b.set_defaults(func=_cmd_build)

    r = sub.add_parser("recon", help="reconstruct invariants from a data source")
    r.add_argument("--source", required=True,
                   choices=["nmatrix", "polydeck", "vertexdeck", "direct"])
    r.add_argument("--assert-nonhamiltonian", action="store_true")
    r.add_argument("input", help="file path, '-' for stdin, or a literal graph6 string")
    r.set_defaults(func=_cmd_recon)

    s = sub.add_parser("sweep", help="run verification checks over a graph corpus")
    s.add_argument("--max-n", type=int, required=True)
    s.add_argument("--checks", default="all")
    s.add_argument("--jobs", type=int, default=0)
    s.add_argument("--corpus", default=None)
    s.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Graph6ParseError as exc:
        _emit({"error": "parse", "reason": str(exc), "offset": exc.offset})
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        _emit({"error": "parse", "reason": f"bad JSON: {exc}"})
        return EXIT_PARSE
    except NotReconstructibleError as exc:
        _emit({"error": "not-reconstructible", "reason": exc.reason})
        return EXIT_NOT_RECONSTRUCTIBLE
    except (DomainError, InvalidMatrixError, InconsistentDeckError) as exc:
        _emit({"error": "domain", "reason": str(exc)})
        return EXIT_DOMAIN
    except ReconkitError as exc:
        _emit({"error": "internal", "reason": str(exc)})
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
