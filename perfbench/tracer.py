"""Per-layer tracing of reconkit from outside the package.

`Tracer.install()` rebinds each layer's public function (or `Reconstruction`
method) in every `reconkit.*` namespace that holds it, because modules import
each other's functions by name: `deck` holds `induced_type_table`, `whitney`
holds `canonical_code`, `nrecon` holds `grouped_cover_partitions` and `cli`
holds `reconstruct`.  `uninstall()` puts every original back.

Every call is counted per layer: calls, distinct argument keys, self time
(the call's duration minus the time of traced calls inside it) and, for
`nmatrix`, matrix rows built.  Calls of the few op-level layers are also kept
as spans (name, start, end, parent span, op id) in memory and written out
when tracing ends; the hot layers, such as `con` with millions of calls, are
only aggregated.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# Layers named "module.function" or "module.Class.method".  The metric prefix
# drops the class: nrecon.Reconstruction.con reports as nrecon.con.
LAYERS = [
    "graphcore.parse_graph6", "graphcore.induced_subgraph", "graphcore.all_graphs",
    "isotype.canonical_code", "isotype.induced_type_table",
    "isotype.subgraph_type_table", "isotype.kelly_count",
    "deck.nmatrix", "deck.infer_v_e", "deck.elp_from_nmatrix", "deck.canonical_nmatrix",
    "nrecon.reconstruct", "nrecon.Reconstruction.con", "nrecon.Reconstruction.q_m",
    "nrecon.Reconstruction.t_m", "nrecon.Reconstruction.rankpoly",
    "combi.grouped_cover_partitions",
    "whitney.charpoly_from_vertex_deck", "whitney.covers_of_type",
    "polydeck.build_polydeck", "polydeck.charpoly_from_polydeck",
    "polydeck.c_lambda", "polydeck.low_coeffs",
    "oracle.charpoly_oracle", "oracle.cover_count_oracle",
    "oracle.signed_exact_cover_oracle",
    "cli.main",
]

# Layers called a few times per operation; their calls are kept as spans.
SPANNED = {
    "graphcore.parse_graph6", "graphcore.all_graphs", "deck.nmatrix",
    "deck.elp_from_nmatrix", "deck.canonical_nmatrix", "nrecon.reconstruct",
    "nrecon.rankpoly", "whitney.charpoly_from_vertex_deck", "whitney.covers_of_type",
    "polydeck.build_polydeck", "polydeck.charpoly_from_polydeck", "cli.main",
}

MARK = "__perfbench_wrapped__"


def metric_prefix(layer: str) -> str:
    parts = layer.split(".")
    return f"{parts[0]}.{parts[-1]}"


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(i) for i in x)
    if isinstance(x, set):
        return frozenset(x)
    return x


class _Stat:
    __slots__ = ("calls", "keys", "self_s", "rows")

    def __init__(self):
        self.calls = 0
        self.keys = set()
        self.self_s = 0.0
        self.rows = 0

    def add_key(self, key):
        try:
            self.keys.add(key)
        except TypeError:  # a list or set among the arguments, as in kelly_count(deck, ...)
            self.keys.add(_freeze(key))


class Tracer:
    def __init__(self):
        self.stats = {metric_prefix(layer): _Stat() for layer in LAYERS}
        self.op = None
        self.spans = []
        self._open = []        # child-time accumulators of the calls in progress
        self._span_ids = []    # ids of the recorded spans in progress
        self._undo = []
        # Reconstruction instances by id, kept alive so that an id is never
        # reused: a method's key starts with the instance's serial number.
        self._serials = {}
        self._instances = []

    def _key_fn(self, method: bool):
        serials, instances = self._serials, self._instances

        def key(args, kwargs):
            if method:
                serial = serials.get(id(args[0]))
                if serial is None:
                    serial = serials[id(args[0])] = len(instances)
                    instances.append(args[0])
                args = (serial,) + args[1:]
            return args + tuple(sorted(kwargs.items())) if kwargs else args
        return key

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer: str, fn, method: bool):
        name = metric_prefix(layer)
        stat = self.stats[name]
        open_calls = self._open
        key = self._key_fn(method)
        spanned = name in SPANNED
        count_rows = name == "deck.nmatrix"

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                stat.calls += 1
                stat.add_key(key(args, kwargs))
                gen = fn(*args, **kwargs)
                while True:
                    open_calls.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        stat.self_s += dt - open_calls.pop()
                        if open_calls:
                            open_calls[-1] += dt
                    yield item
        else:
            def wrapper(*args, **kwargs):
                stat.calls += 1
                stat.add_key(key(args, kwargs))
                if spanned:
                    span_id = len(self.spans)
                    parent = self._span_ids[-1] if self._span_ids else None
                    self.spans.append(None)
                    self._span_ids.append(span_id)
                open_calls.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    dt = t1 - t0
                    stat.self_s += dt - open_calls.pop()
                    if open_calls:
                        open_calls[-1] += dt
                    if spanned:
                        self._span_ids.pop()
                        self.spans[span_id] = (name, t0, t1, parent, self.op)
                if count_rows:
                    stat.rows += result.size
                return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        modules = _reconkit_modules()
        for layer in LAYERS:
            mod_name, *owner, attr = layer.split(".")
            home = sys.modules[f"reconkit.{mod_name}"]
            if owner:
                cls = getattr(home, owner[0])
                fn = cls.__dict__[attr]
                self._rebind(cls, attr, self._wrap(layer, fn, method=True))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(layer, fn, method=False)
            for mod in modules:
                for var, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, var, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> list:
        """Restore every original; return the names still bound to a wrapper (none)."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        leftovers = []
        for mod in _reconkit_modules():
            for var, value in vars(mod).items():
                if hasattr(value, MARK):
                    leftovers.append(f"{mod.__name__}.{var}")
                if isinstance(value, type):
                    leftovers += [f"{mod.__name__}.{var}.{a}"
                                  for a, v in vars(value).items() if hasattr(v, MARK)]
        return leftovers

    # -- results --------------------------------------------------------------

    def table(self) -> dict:
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.distinct"] = len(st.keys)
            out[f"{name}.self_s"] = st.self_s
            if name == "deck.nmatrix":
                out[f"{name}.rows"] = st.rows
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op}) + "\n")


def _reconkit_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "reconkit" or n.startswith("reconkit."))]
