"""Span tracer that wraps the public functions of the schur modules from outside.

The package modules import names from each other directly
(``from schur.core import s_subgroups``), so wrapping only the defining
module would miss most calls. ``install`` therefore rebinds every
module-level reference to a wrapped function in every loaded ``schur``
module, and wraps ``SchurPartition.from_sets`` on the class. ``formulas``
gets no spans: its closed forms are negligible, and ``divisors`` is called
so often that wrapping it would cost more than it shows.

Spans are kept in memory as flat arrays (name, start, end, parent) and are
summarised and written out only after the traced work has finished.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

LAYERS = ("cli", "enumeration", "constructions", "core", "automorphic", "brute_force")

# A few spans keep a small summary of their return value, for the yield ratios.
OBSERVERS = {
    "enumeration.enumerate_rings": lambda r: (r.omega, sum("wedge" in t for t in r.tags)),
    "automorphic.automorphic_rings": len,
    "brute_force.brute_force_schur_rings": len,
}

# Direct children of an enumerate_rings span that each add one candidate ring.
CANDIDATE_MAKERS = (
    "constructions.trivial_ring",
    "constructions.direct_product",
    "constructions.wedge_product",
)


def public_functions(layer: str) -> dict[str, object]:
    """Public functions defined in schur.<layer>, by their traced name."""
    module = importlib.import_module(f"schur.{layer}")
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type) and obj.__module__ == module.__name__:
            out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.obs: dict[int, object] = {}
        self.cached: dict[str, object] = {}
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack, obs, observe = self._stack, self.obs, OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                obs[i] = observe(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer, at every binding."""
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                wrappers[id(fn)] = self._wrap(name, fn)
                if hasattr(fn, "cache_info"):
                    self.cached[name] = fn
        for modname, module in list(sys.modules.items()):
            if modname != "schur" and not modname.startswith("schur."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        from schur.core import SchurPartition

        from_sets = SchurPartition.__dict__["from_sets"].__func__
        SchurPartition.from_sets = classmethod(self._wrap("core.from_sets", from_sets))

    def summary(self) -> dict:
        """Per-function and per-layer counts and times, plus derived counters.

        ``cache_calls`` gives, for each lru_cache-wrapped public function, the
        hits plus misses its cache has seen: every call that reached it, by
        any binding. It equals the function's span count exactly when no
        caller bypassed the wrapper.

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        Inclusive time counts only spans not nested in a span of the same
        function (for functions) or layer (for layers), so recursion is not
        counted twice.
        """
        names = [self.names[k] for k in self.name_id]
        parents = self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child_ns = [0] * len(dur)
        kids = [0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child_ns[p] += dur[i]
                kids[p] += 1
        functions: dict[str, list[int]] = {}
        layers = {layer: [0, 0] for layer in LAYERS}
        counters = dict.fromkeys(
            (
                "enum_cache_hits",
                "enum_first_top_hit",
                "candidates",
                "omega",
                "wedge_rings",
                "leaf_checks",
                "oracle_rings",
            ),
            0,
        )
        first_top_seen = False
        for i, name in enumerate(names):
            p = parents[i]
            pname = names[p] if p >= 0 else None
            layer = name.split(".", 1)[0]
            self_ns = dur[i] - child_ns[i]
            rec = functions.setdefault(name, [0, 0, 0])
            rec[0] += 1
            rec[1] += self_ns
            if pname != name:
                rec[2] += dur[i]
            layers[layer][0] += self_ns
            if pname is None or pname.split(".", 1)[0] != layer:
                layers[layer][1] += dur[i]
            if name == "enumeration.enumerate_rings":
                # a memo hit returns without calling into any layer
                if kids[i] == 0:
                    counters["enum_cache_hits"] += 1
                else:
                    omega, wedges = self.obs[i]
                    counters["omega"] += omega
                    counters["wedge_rings"] += wedges
                if not first_top_seen and pname != name:
                    first_top_seen = True
                    counters["enum_first_top_hit"] = int(kids[i] == 0)
            elif pname == "enumeration.enumerate_rings":
                if name in CANDIDATE_MAKERS:
                    counters["candidates"] += 1
                elif name == "automorphic.automorphic_rings":
                    counters["candidates"] += self.obs[i]
            if name == "core.check_schur_axioms" and pname == "brute_force.brute_force_schur_rings":
                counters["leaf_checks"] += 1
            if name == "brute_force.brute_force_schur_rings":
                counters["oracle_rings"] += self.obs[i]
        return {
            "spans": len(names),
            "functions": functions,
            "layers": layers,
            "counters": counters,
            "cache_calls": {
                name: fn.cache_info().hits + fn.cache_info().misses for name, fn in self.cached.items()
            },
        }

    def dump(self, path) -> None:
        """Write every span as a tab-separated row: name, start_ns, end_ns, parent."""
        rows = ["name\tstart_ns\tend_ns\tparent"]
        rows.extend(
            f"{self.names[k]}\t{s}\t{e}\t{p}"
            for k, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        )
        path.write_text("\n".join(rows) + "\n")
