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

from . import deck as deckmod
from . import polydeck as pdmod
from . import verify
from .deck import VERTEX_LIMIT
from .errors import (DomainError, Graph6ParseError, InconsistentDeckError,
                     InvalidMatrixError, NotReconstructibleError, ReconkitError)
from .graphcore import Graph, all_graphs, parse_graph6, write_graph6
from .nrecon import invariant_report, reconstruct
from .oracle import (charpoly_oracle, ham_oracle, psi_oracle, rankpoly_oracle,
                     tr_oracle, uni_oracle)
from .whitney import charpoly_from_vertex_deck

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NOT_RECONSTRUCTIBLE = 4


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


class _BadInput(Exception):
    """Input that cannot be read as text, or JSON input that does not parse."""


def _load_json(text: str):
    try:
        return json.loads(text)
    # besides JSONDecodeError: an integer literal over int()'s digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise _BadInput(f"bad JSON: {exc}") from exc


def _check_order(n: int) -> None:
    if n > VERTEX_LIMIT:
        raise DomainError(f"{n} vertices is over the limit of {VERTEX_LIMIT}")


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for '-'."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    # a missing file, a directory, or bytes that are not text in the locale's encoding
    except (OSError, UnicodeDecodeError) as exc:
        raise _BadInput(f"cannot read {path}: {exc}") from exc


def _read_input(arg: str) -> str:
    return _read_text(arg) if arg == "-" or os.path.exists(arg) else arg


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    g = parse_graph6(args.graph6)
    _check_order(g.n)
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
    return invariant_report(charpoly_oracle(g), tr_oracle(g), ham_oracle(g),
                            {i: psi_oracle(g, i) for i in range(2, g.n + 1)},
                            {r: uni_oracle(g, r) for r in range(3, g.n + 1)},
                            rankpoly_oracle(g))


def _cmd_recon(args) -> int:
    text = _read_input(args.input)
    if args.source == "nmatrix":
        nm = deckmod.nmatrix_from_json(_load_json(text))
        _emit(reconstruct(nm).report())
    elif args.source == "polydeck":
        d = pdmod.polydeck_from_json(_load_json(text))
        poly = pdmod.charpoly_from_polydeck(
            d, assert_nonhamiltonian=args.assert_nonhamiltonian)
        _emit({"charpoly": list(poly.coeffs)})
    elif args.source == "vertexdeck":
        cards = [parse_graph6(line) for line in text.splitlines() if line.strip()]
        _check_order(len(cards))
        poly = charpoly_from_vertex_deck(cards)
        _emit({"charpoly": list(poly.coeffs)})
    else:
        g = parse_graph6(text.strip())
        _check_order(g.n)
        if g.n < 2:
            raise DomainError(f"the direct report needs at least 2 vertices, not {g.n}")
        _emit(_direct_report(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# the benchmark harness reads this name
_CANDIDATE_CHECKS = verify.CANDIDATES


def _run_graph(job) -> tuple:
    """Run the named checks on one graph6; a check that does not apply gives []."""
    g6, names = job
    return g6, verify.run_checks(parse_graph6(g6), names)


def _cmd_sweep(args) -> int:
    t0 = time.time()
    if not (2 <= args.max_n <= 8):
        raise DomainError("max-n must be between 2 and 8")
    if args.jobs < 1:
        raise DomainError("jobs must be at least 1")
    names = sorted(verify.CHECKS) if args.checks == "all" else args.checks.split(",")
    for name in names:
        if name not in verify.CHECKS and name != "golden":
            raise DomainError(f"unknown check '{name}'")
    run_golden = args.checks == "all" or "golden" in names
    names = [n for n in dict.fromkeys(names) if n != "golden"]  # a repeated name runs once
    unparsed = []
    if args.corpus:
        corpus = []
        # reading in text mode has already turned '\r\n' and '\r' into '\n'
        for k, line in enumerate(_read_text(args.corpus).split("\n"), 1):
            text = line.strip()
            if not text:
                continue
            try:
                corpus.append((text, parse_graph6(text)))
            except Graph6ParseError as exc:
                # one bad line is reported, and the rest of the corpus is swept
                unparsed.append({"line": k, "graph6": text,
                                 "detail": [f"Graph6ParseError: {exc}"]})
        corpus = [(s, g) for s, g in corpus if g.e >= 1 and g.n <= args.max_n]
    else:
        corpus = [(write_graph6(g), g) for g in all_graphs(args.max_n, min_edges=1)]
    results = {name: {"graphs": sum(1 for _s, g in corpus if verify.CHECKS[name].applies(g)),
                      "failures": []}
               for name in names}
    candidates = []
    work = [(g6, tuple(names)) for g6, _g in corpus]
    workers = min(args.jobs, os.cpu_count() or 1, len(work))
    if workers > 1:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            outputs = pool.map(_run_graph, work)
    else:
        outputs = map(_run_graph, work)
    for g6, per_check in outputs:
        for name, fails in per_check.items():
            if not fails:
                continue
            if verify.is_candidate(name, fails):
                candidates.append({"graph6": g6, "detail": fails})
            else:
                results[name]["failures"].append({"graph6": g6, "detail": fails})
    report = {
        "max_n": args.max_n,
        "graphs": len(corpus),
        "checks": results,
        "candidates": candidates,
        "unparsed": unparsed,
        "elapsed_seconds": round(time.time() - t0, 3),
    }
    if run_golden:
        gfails = verify.golden()
        report["checks"]["golden"] = {
            "graphs": 1,
            "failures": [{"graph6": "E{Sw", "detail": gfails}] if gfails else [],
        }
    failed = bool(unparsed) or any(v["failures"] for v in report["checks"].values())
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
    s.add_argument("--jobs", type=int, default=1)
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
    except _BadInput as exc:
        _emit({"error": "parse", "reason": str(exc)})
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
