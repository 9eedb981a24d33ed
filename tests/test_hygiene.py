"""Source hygiene.

Data-dependent checks must not rely on `assert`, which -O strips, and every
process-wide cache must be bounded unless it is on the allowlist below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reconkit"

# The unbounded caches that exist today; a new cache gets an explicit maxsize
# or lives on an instance (ROADMAP aim 3).
UNBOUNDED_ALLOWED = {
    "combi.stirling2", "combi.partitions_min2", "combi.strict_refinements",
    "isotype._canon", "isotype.induced_type_table", "isotype.subgraph_type_table",
    "oracle._elementary_by_order",
}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _name(node) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_unbounded_cache(node) -> bool:
    """`cache`, `lru_cache(None)` or `lru_cache(maxsize=None)`, with or without `functools.`."""
    if _name(node) == "cache":
        return True
    if not isinstance(node, ast.Call) or _name(node.func) != "lru_cache":
        return False
    sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def test_no_assert_statements_in_the_library():
    found = []
    for path, tree in _trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_unbounded_caches_are_only_the_allowed_ones():
    found = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_unbounded_cache(dec) for dec in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Call) and _is_unbounded_cache(node.func):
                # a cache applied by a call, as in f = lru_cache(maxsize=None)(g)
                found.add(f"{path.name}:{node.lineno}")
    assert found - UNBOUNDED_ALLOWED == set()


def test_the_cache_guard_sees_every_spelling():
    spellings = {"@cache": True, "@functools.cache": True,
                 "@lru_cache(maxsize=None)": True, "@lru_cache(None)": True,
                 "@functools.lru_cache(maxsize=None)": True,
                 "@lru_cache(maxsize=4096)": False, "@lru_cache": False,
                 "@lru_cache()": False}
    for spelling, unbounded in spellings.items():
        dec = ast.parse(f"{spelling}\ndef f(): pass").body[0].decorator_list[0]
        assert _is_unbounded_cache(dec) is unbounded, spelling
    call = ast.parse("f = lru_cache(maxsize=None)(g)").body[0].value
    assert _is_unbounded_cache(call.func)
