"""Source hygiene.

Data-dependent checks must not rely on `assert`, which -O strips, every
process-wide cache, a module-level dict, set or list included, must be bounded
unless it is on the allowlist below, a pipeline may borrow from the oracle
module only the names allowed below, the oracle module borrows nothing from
`isotype` or the pipelines, every name a module imports must be used in it,
every layer the benchmark tracer wraps must exist, as must every name a
module exports in `__all__`, every certifying division goes through
`combi.exact_div`, no cache of `verify` takes a graph, no module but
`isotype` names its canonical-labelling caches, and every function, class
and method of the library has a reader outside the tests.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reconkit"
TRACER = ROOT / "perfbench" / "tracer.py"

# The unbounded caches that exist today; a new cache gets an explicit maxsize
# or lives on an instance (ROADMAP aim 3).  The guard compares with equality,
# so a cache that goes, or gets a bound, leaves the list too.
UNBOUNDED_ALLOWED = set()

# The names each pipeline still takes from reconkit.oracle (ROADMAP item E).
# A pipeline checked against an oracle it calls shares that part of the check,
# so entries may only be removed.  `verify` and `cli` run the oracles on
# purpose, and the package `__init__` re-exports some of them.
ORACLE_IMPORTS_ALLOWED = {}
ORACLE_IMPORTS_EXEMPT = {"__init__", "cli", "oracle", "verify"}


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


def _is_empty_container(node) -> bool:
    """`{}`, `[]`, `dict()` or `set()`: the start of a hand-rolled cache."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return isinstance(node, ast.Call) and _name(node.func) in ("dict", "set") \
        and not node.args and not node.keywords


def _module_caches(tree) -> set:
    """Module-level names bound to an empty container, as in `_CACHE: dict = {}`."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if _is_empty_container(node.value):
            found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return found


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
        found |= {f"{path.stem}.{name}" for name in _module_caches(tree)}
    assert found == UNBOUNDED_ALLOWED


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
    module = {"_A = {}": {"_A"}, "_B: dict = {}": {"_B"}, "_C = dict()": {"_C"},
              "_D = set()": {"_D"}, "_E = []": {"_E"}, "_F = _G = {}": {"_F", "_G"},
              "_H = {1: 2}": set(), "_I = [1]": set(), "_J = dict(a=1)": set(),
              "_K = set(xs)": set(), "_L: dict": set(), "__all__ = ['f']": set(),
              "def f():\n    memo = {}": set()}
    for spelling, names in module.items():
        assert _module_caches(ast.parse(spelling)) == names, spelling


# The functions that may call `divmod`: `exact_div` itself, and the fill of
# `nmatrix_from_elp`, which assigns each quotient into its row in the
# innermost loop of every reconstruction.  Any other remainder check is a
# hand-rolled refusal and goes through `exact_div` instead.
DIVMOD_ALLOWED = {"combi.exact_div", "deck.nmatrix_from_elp"}


def _divmod_sites(tree, module: str) -> set:
    """`module.function` for each top-level function that names `divmod`, and
    `module:line` for a use outside any function."""
    found = set()
    for node in tree.body:
        where = f"{module}.{node.name}" if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if _name(sub) == "divmod":
                found.add(where or f"{module}:{sub.lineno}")
    return found


def test_divmod_is_only_in_exact_div_and_the_poset_fill():
    found = set()
    for path, tree in _trees():
        found |= _divmod_sites(tree, path.stem)
    assert found == DIVMOD_ALLOWED


def test_the_divmod_guard_sees_every_spelling():
    spellings = {"def f(a, b):\n    q, r = divmod(a, b)": {"m.f"},
                 "def f(a, b):\n    return builtins.divmod(a, b)": {"m.f"},
                 "class C:\n    def g(self):\n        divmod(1, 2)": {"m.C"},
                 "d = divmod": {"m:1"}, "def f(a, b):\n    return a // b": set()}
    for spelling, sites in spellings.items():
        assert _divmod_sites(ast.parse(spelling), "m") == sites, spelling


def _mentions_graph(annotation) -> bool:
    """Whether an annotation names `Graph`, as a name, an attribute or in a string."""
    return annotation is not None and any(
        _name(node) == "Graph" or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                                   and re.search(r"\bGraph\b", node.value))
        for node in ast.walk(annotation))


def _graph_keyed_caches(tree, module: str) -> set:
    """`module.function` for each `cache` or `lru_cache` function with a parameter
    annotated as a Graph or named `g`."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(_name(dec.func if isinstance(dec, ast.Call) else dec) in ("cache", "lru_cache")
                   for dec in node.decorator_list):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        if any(p.arg == "g" or _mentions_graph(p.annotation) for p in params):
            found.add(f"{module}.{node.name}")
    return found


def test_verify_caches_take_no_graph():
    """A graph's artifacts live on the check subject and go with it (ROADMAP
    item S); the process-wide caches of `verify` hold per-type work only."""
    path = SRC / "verify.py"
    assert _graph_keyed_caches(ast.parse(path.read_text(), filename=str(path)), "verify") == set()


def test_whitney_caches_take_no_graph():
    """`whitney` carries blocks, unions and cards as codes, so each of its
    caches is keyed by codes and decodes them through `code_graph`."""
    path = SRC / "whitney.py"
    assert _graph_keyed_caches(ast.parse(path.read_text(), filename=str(path)), "whitney") == set()


def test_the_graph_keyed_cache_guard_sees_every_spelling():
    spellings = {"@lru_cache(maxsize=8)\ndef f(g): pass": {"m.f"},
                 "@functools.lru_cache(maxsize=8)\ndef f(h: Graph): pass": {"m.f"},
                 "@cache\ndef f(n, *, host: 'Graph'): pass": {"m.f"},
                 "@lru_cache\ndef f(x: Optional[graphcore.Graph]): pass": {"m.f"},
                 "@lru_cache(maxsize=8)\ndef f(*g): pass": {"m.f"},
                 "class C:\n    @lru_cache(maxsize=8)\n    def f(self, g): pass": {"m.f"},
                 "@lru_cache(maxsize=8)\ndef f(code: bytes, n: int): pass": set(),
                 "@lru_cache(maxsize=8)\ndef f(x: 'Graphs'): pass": set(),
                 "def f(g: Graph): pass": set(),
                 "@cached_property\ndef matrix(self, g): pass": set()}
    for spelling, sites in spellings.items():
        assert _graph_keyed_caches(ast.parse(spelling), "m") == sites, spelling


# `_labelled` keeps each labelled graph's code alone, keyed by its adjacency
# bits, and `_search` the search of each packed graph, a first-leaf form or a
# code; other modules reach them only through `canonical_code`, `bits_code`,
# `code_automorphisms` and `_descend`, the uncached descent behind
# `_labelled`.
ISOTYPE_CACHES = {"_labelled", "_search"}


def _spelled(tree) -> set:
    """Every identifier a module spells: names, attributes, definitions,
    arguments, imported names and string constants."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, ast.alias):
            found |= {node.name, node.asname}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_only_isotype_names_its_canonical_caches():
    found = {}
    for path, tree in _trees():
        names = _spelled(tree) & ISOTYPE_CACHES
        if names and path.stem != "isotype":
            found[path.stem] = names
    assert found == {}


def test_the_cache_name_guard_sees_every_spelling():
    spellings = {"from .isotype import _labelled": {"_labelled"},
                 "from .isotype import _search as search": {"_search"},
                 "isotype._labelled.cache_clear()": {"_labelled"},
                 "_search, total = pair": {"_search"}, "def f(_labelled): pass": {"_labelled"},
                 "getattr(isotype, '_search')": {"_search"},
                 "from .isotype import _descend": set(),
                 "canonical_code(g)": set(), "bits_code(n, bits)": set()}
    for spelling, names in spellings.items():
        assert _spelled(ast.parse(spelling)) & ISOTYPE_CACHES == names, spelling


def _imports_from(tree, module: str) -> set:
    """The names a module imports from reconkit.<module>; a whole-module import is `*`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, module), (0, f"reconkit.{module}")):
                found |= {alias.name for alias in node.names}
            elif (node.level, node.module) in ((1, None), (0, "reconkit")) and \
                    any(alias.name == module for alias in node.names):
                found.add("*")
        elif isinstance(node, ast.Import) and \
                any(alias.name == f"reconkit.{module}" for alias in node.names):
            found.add("*")
    return found


def test_pipelines_borrow_only_the_allowed_oracle_names():
    found = {}
    for path, tree in _trees():
        names = _imports_from(tree, "oracle")
        if names and path.stem not in ORACLE_IMPORTS_EXEMPT:
            found[path.stem] = names
    # equality, so a name a pipeline stops borrowing leaves the allowlist too
    assert found == ORACLE_IMPORTS_ALLOWED


def test_the_oracles_take_nothing_from_canonical_labelling():
    """Every pipeline rests on `isotype`'s canonical codes, and `deck`, `nrecon`,
    `polydeck` and `whitney` are the pipelines, so an oracle that used any of
    them would share what it checks (ROADMAP item K)."""
    oracle = SRC / "oracle.py"
    tree = ast.parse(oracle.read_text(), filename=str(oracle))
    for module in ("isotype", "deck", "nrecon", "polydeck", "whitney"):
        assert _imports_from(tree, module) == set(), module


def test_the_oracle_import_guard_sees_every_spelling():
    spellings = {"from .oracle import a, b": {"a", "b"},
                 "from reconkit.oracle import a": {"a"},
                 "from . import oracle": {"*"}, "from reconkit import oracle": {"*"},
                 "import reconkit.oracle": {"*"}, "from .isotype import oracle": set(),
                 "from oracle import a": set()}
    for spelling, names in spellings.items():
        assert _imports_from(ast.parse(spelling), "oracle") == names, spelling


def _unused_imports(tree) -> set:
    """Names a module imports and never reads; `from __future__` imports are directives."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    """No linter is installed, so this guards deletions: the package `__init__`
    imports to re-export, and every other module imports only what it uses."""
    found = {}
    for path, tree in _trees():
        unused = _unused_imports(tree)
        if unused and path.stem != "__init__":
            found[path.stem] = unused
    assert found == {}


def test_the_unused_import_guard_sees_every_spelling():
    spellings = {"import os": {"os"}, "import os\nos.getcwd()": set(),
                 "import os.path": {"os"}, "import os.path\nos.path.join()": set(),
                 "import json as j": {"j"}, "import json as j\nj.dumps(1)": set(),
                 "from .a import b, c\nb()": {"c"}, "from .a import b as c\nc": set(),
                 "from __future__ import annotations": set(),
                 "from .a import T\ndef f(x: T): pass": set()}
    for spelling, names in spellings.items():
        assert _unused_imports(ast.parse(spelling)) == names, spelling


def test_every_exported_name_exists():
    """A name deleted from a module leaves its `__all__` too."""
    missing = []
    for path, _tree in _trees():
        module = importlib.import_module(
            "reconkit" if path.stem == "__init__" else f"reconkit.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def _layers() -> list:
    """The benchmark tracer's LAYERS, read from its source."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    [layers] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(_name(target) == "LAYERS" for target in node.targets)]
    return layers


def test_every_traced_layer_resolves():
    """Each `module.name` or `module.Class.method` in the tracer's LAYERS is in reconkit."""
    layers = _layers()
    missing = []
    for layer in layers:
        mod, *attrs = layer.split(".")
        obj = importlib.import_module(f"reconkit.{mod}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(layer)
    assert layers and missing == []


# The definitions that nothing in `src/reconkit` or `demos/` reads: the
# documented reader of poset JSON, and the reconstruction's query access to
# its top row.  The guard compares with equality, so a name that gains a
# reader, or goes, leaves the list too.
UNREAD_ALLOWED = {"deck.elp_from_json", "nrecon.Reconstruction.top_index"}


def _spellings(node) -> set:
    """The names a node reads: a Name, an Attribute, or an imported name."""
    if isinstance(node, ast.alias):
        return {node.name.rsplit(".", 1)[-1]} | ({node.asname} - {None})
    name = _name(node)
    return {name} if name else set()


def _unread_definitions(trees: dict, defining: set, leaves: set) -> set:
    """`module.qualname` of each function, class and method defined in the
    modules `defining` of `trees` (module -> tree), dunders aside, whose name
    is not in `leaves` and is spelled by no tree outside that definition."""
    defs, stacks = [], {}  # name -> the enclosing definitions of each spelling

    def walk(node, stack, qual, defines):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if defines and not (child.name.startswith("__") and child.name.endswith("__")):
                    defs.append((f"{qual}.{child.name}", child))
                walk(child, stack + (child,), f"{qual}.{child.name}", defines)
                continue
            for name in _spellings(child):
                stacks.setdefault(name, []).append(stack)
            walk(child, stack, qual, defines)

    for module, tree in trees.items():
        walk(tree, (), module, module in defining)
    return {qual for qual, node in defs if node.name not in leaves
            and all(node in stack for stack in stacks.get(node.name, ()))}


def test_every_library_name_has_a_reader():
    """Every function, class and method of the library is read by the library,
    a demo or the benchmark tracer's LAYERS, not only by tests or through the
    package `__init__` (ROADMAP aim 2).  Attribute names can collide, as
    `Graph.degree` did with `Polynomial.degree`, so a pass does not prove that
    a name is read."""
    trees = {path.stem: tree for path, tree in _trees() if path.stem != "__init__"}
    library = set(trees)
    for path in sorted((ROOT / "demos").glob("*.py")):
        trees[path.name] = ast.parse(path.read_text(), filename=str(path))
    leaves = {layer.rsplit(".", 1)[-1] for layer in _layers()}
    assert _unread_definitions(trees, library, leaves) == UNREAD_ALLOWED


def test_the_unread_definition_guard_sees_every_spelling():
    spellings = {"def f(): pass": {"m.f"}, "def f(): pass\nf()": set(),
                 "def f(): pass\ng = x.f": set(), "def f():\n    return f()": {"m.f"},
                 "def f(): pass\ngetattr(x, 'f')": {"m.f"},
                 "def f():\n    def g(): pass\n    return g\nf()": set(),
                 "def f():\n    def g(): pass\nf()": {"m.f.g"},
                 "class C:\n    def g(self):\n        return self.g\nC": {"m.C.g"},
                 "class C:\n    def g(self): pass\n    def h(self):\n        self.g()\nC().h":
                     set(),
                 "class C:\n    def __repr__(self): pass\nC": set(),
                 "def layer(): pass": set()}
    for spelling, names in spellings.items():
        trees = {"m": ast.parse(spelling)}
        assert _unread_definitions(trees, {"m"}, {"layer"}) == names, spelling
    imports = {"from m import f": set(), "from .m import f as g\ng()": set(),
               "import m.f": set(), "from m import g": {"m.f"}, "def f(): pass": {"m.f"}}
    for spelling, names in imports.items():
        trees = {"m": ast.parse("def f(): pass"), "demo": ast.parse(spelling)}
        assert _unread_definitions(trees, {"m"}, set()) == names, spelling
