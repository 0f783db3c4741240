"""Layer tracer that wraps cantorfull's public functions from outside.

Each listed function is replaced by a wrapper wherever the package binds it:
every `cantorfull.*` module attribute (and module-level dict value) that is
the same function object, so calls made through `from .pmap import compose`
are caught too; methods and constructors (`__init__`) are replaced on their
class.  A call records a span (name, start, end, parent) in memory and adds
to per-function call counts and self time, which is the span minus the time
covered by its child spans.  A generator function is timed over its full
consumption: each resumption is one span, and the call is counted once.
"""

import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

# (module, attribute path, extra counter kinds)
TARGETS = [
    ("clopen", "normalize", ()),
    ("clopen", "Clopen.meet", ()),
    ("clopen", "Clopen.union", ()),
    ("clopen", "Clopen.complement", ()),
    ("clopen", "Clopen.leq", ()),
    ("tails", "TailElement.apply_letter", ()),
    ("tails", "free_reduce", ()),
    ("tails", "is_identity", ()),
    ("pmap", "PartialMap", ()),
    ("pmap", "compose", ()),
    ("pmap", "star", ()),
    ("pmap", "restrict", ()),
    ("pmap", "eq", ()),
    ("pmap", "join", ()),
    ("pmap", "image_clopen", ()),
    ("pmap", "Dedup.add", ("new_ratio",)),
    ("completion", "bi_enumerate", ()),
    ("completion", "piecewise_member", ("nodes",)),
    ("msec", "Multisection", ()),
    ("msec", "element", ()),
    ("msec", "combine", ()),
    ("msec", "extend_degree", ("nodes",)),
    ("factor", "factor_over_cover", ()),
    ("factor", "combine_factored", ()),
    ("kit", "build_kit", ()),
    ("kit", "express", ("nodes", "witness_ratio")),
    ("dynamics", "DynContext", ()),
    ("dynamics", "split_unit", ("nodes",)),
    ("dynamics", "orbit_lower_bound", ()),
    ("dynamics", "expansive_certificate", ()),
    ("families", "higman_thompson", ()),
    ("families", "rover_units", ()),
    ("families", "grigorchuk_units", ()),
    ("parser", "Parser.parse_expr", ()),
    ("cli", "main", ()),
]

EXTRA_UNITS = {"nodes": "count", "new_ratio": "ratio", "witness_ratio": "ratio"}


class Tracer:
    """Spans and counters for the wrapped functions; off until activated."""

    def __init__(self, span_cap=500_000):
        self.active = False
        self.names = [f"{module}.{path}" for module, path, _ in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.nodes = [0] * n
        self.hits = [0] * n  # new Dedup entries, or witness certificates
        self.stack = []
        self.next_id = 0
        self.span_cap = span_cap
        self.dropped = 0
        self.span_name = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore = []

    # -- recording --------------------------------------------------------------

    def _open(self):
        sid = self.next_id
        self.next_id = sid + 1
        frame = [0.0, sid]
        self.stack.append(frame)
        return frame, perf_counter()

    def _close(self, nid, frame, t0):
        t1 = perf_counter()
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        self.self_s[nid] += dur - frame[0]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += dur
        if len(self.span_start) < self.span_cap:
            self.span_name.append(nid)
            self.span_id.append(frame[1])
            self.span_parent.append(parent[1] if parent is not None else -1)
            self.span_start.append(t0)
            self.span_end.append(t1)
        else:
            self.dropped += 1

    def _post(self, nid, extras, result):
        if "new_ratio" in extras:
            self.hits[nid] += bool(result[2])
        if "nodes" in extras:
            self.nodes[nid] += getattr(result, "nodes_explored", 0)
        if "witness_ratio" in extras:
            self.hits[nid] += bool(result.is_witness())

    def wrap(self, fn, nid, extras):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[nid] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame, t0 = tracer._open()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(nid, frame, t0)
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            frame, t0 = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(nid, frame, t0)
            if extras:
                tracer._post(nid, extras, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------

    def install(self):
        """Replace every listed function in the loaded cantorfull modules."""
        owners = {module: importlib.import_module(f"cantorfull.{module}") for module, _, _ in TARGETS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cantorfull" or name.startswith("cantorfull."))]
        for nid, (module, path, extras) in enumerate(TARGETS):
            owner = owners[module]
            parts = path.split(".")
            if len(parts) == 2 or inspect.isclass(getattr(owner, parts[0])):
                cls = getattr(owner, parts[0])
                attr = parts[1] if len(parts) == 2 else "__init__"
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self.wrap(original, nid, extras))
                continue
            original = getattr(owner, parts[0])
            wrapper = self.wrap(original, nid, extras)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                self._restore.append((value, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self):
        out = {}
        for nid, (module, path, extras) in enumerate(TARGETS):
            name = self.names[nid]
            calls = self.calls[nid]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self.self_s[nid], "s")
            for kind in extras:
                if kind == "nodes":
                    value = self.nodes[nid]
                else:
                    value = self.hits[nid] / calls if calls else 0.0
                out[f"{name}.{kind}"] = (value, EXTRA_UNITS[kind])
        return out

    def self_sum(self):
        return sum(self.self_s)

    def write(self, directory, stem):
        """Write the spans as raw arrays plus a JSON header describing them."""
        os.makedirs(directory, exist_ok=True)
        columns = {
            "name": self.span_name,
            "id": self.span_id,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
        }
        with open(os.path.join(directory, stem + ".spans"), "wb") as fh:
            for column in columns.values():
                column.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "dropped": self.dropped,
            "columns": [[k, v.typecode, v.itemsize] for k, v in columns.items()],
            "layout": "each column stored whole, in the listed order",
        }
        with open(os.path.join(directory, stem + ".json"), "w") as fh:
            json.dump(header, fh, indent=1)
