"""Timing wrappers around fibercomm's public entry points, per module.

``Tracer.install()`` replaces every public function and public method of
the traced modules by a wrapper that records calls, busy time (outermost
calls only, so recursion is not counted twice) and self time (a span's
duration minus its wrapped children).  The wrappers are put into every
fibercomm module that imported the function by name, so calls between
modules are seen too.  ``uninstall()`` puts the originals back.

Per-letter helpers are left alone: they run millions of times per job and
their wrappers would cost more than the work they time.
"""

import inspect
import sys
import time

MODULES = (
    "cli",
    "words",
    "graph",
    "maps",
    "spectral",
    "covers",
    "whitehead",
    "commensurability",
)

# Per-letter, per-edge and per-field-operation helpers: not entry points.
SKIP = {
    "words": {"inv", "inverse", "base", "is_positive", "is_reduced", "is_cyclically_reduced",
              "cyclic_rotations", "enumerate_reduced_words"},
    "graph": {"MarkedGraph.has_edge", "MarkedGraph.edge_src", "MarkedGraph.edge_dst",
              "MarkedGraph.edge_length", "MarkedGraph.path_src", "MarkedGraph.path_dst"},
    "maps": {"GraphMap.edge_image", "GraphMap.direction_image", "GraphMap.vertex_image"},
    "covers": {"SubgroupGraph.step", "SubgroupGraph.path_from_base",
               "SubgroupGraph.is_complete", "SubgroupGraph.index"},
    # exact arithmetic in Q(lambda), one call per field operation
    "spectral": {f"RootField.{op}" for op in (
        "zero", "one", "from_rational", "root", "add", "sub", "neg", "scale", "mul",
        "inv", "div", "refine", "sign", "eq", "lt", "approx", "to_sympy")},
}

# Work counted at a wrapper: name -> (function, measure of one call).
COUNTERS = {
    "covers.fold_letters": ("covers.fold_subgroup_graph", lambda args, out: sum(len(w) for w in args[0])),
    "covers.subgroups": ("covers.enumerate_subgroups", lambda args, out: len(out)),
    "covers.lifts": ("covers.lift_map", lambda args, out: out is not None),
    "maps.nielsen_paths": ("maps.find_nielsen_paths", lambda args, out: len(out)),
}


class Tracer:
    def __init__(self):
        self._stats = {}  # function -> [calls, busy seconds, active depth]
        self._self = {m: [0.0] for m in MODULES}
        self.counts = {name: 0 for name in COUNTERS}
        self._stack = []
        self._patched = []

    @property
    def calls(self):
        return {name: st[0] for name, st in self._stats.items()}

    @property
    def busy(self):
        return {name: st[1] for name, st in self._stats.items()}

    @property
    def self_time(self):
        return {m: cell[0] for m, cell in self._self.items()}

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, module, qualname, fn):
        name = f"{module}.{qualname}"
        hooks = [(c, measure) for c, (target, measure) in COUNTERS.items() if target == name]
        stat = self._stats[name] = [0, 0.0, 0]
        own = self._self[module]
        counts, stack, clock = self.counts, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stat[0] += 1
            stat[2] += 1
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own[0] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += elapsed
            for counter, measure in hooks:
                counts[counter] += measure(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _targets(self, module):
        mod = sys.modules[f"fibercomm.{module}"]
        skip = SKIP.get(module, set())
        for name, obj in vars(mod).items():
            if name.startswith("_") or name in skip:
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield name, mod, name, obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    qual = f"{name}.{attr}"
                    if not attr.startswith("_") and qual not in skip and inspect.isfunction(member):
                        yield qual, obj, attr, member

    def install(self):
        originals = {}
        for module in MODULES:
            for qual, owner, attr, fn in list(self._targets(module)):
                wrapper = self._wrap(module, qual, fn)
                originals[fn] = wrapper
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # names bound by "from .x import f" in other modules
        for module in MODULES:
            mod = sys.modules[f"fibercomm.{module}"]
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    # --- results ------------------------------------------------------------

    def table(self):
        """Per-function calls and busy seconds, for the trace file."""
        return {
            name: {"calls": st[0], "busy_s": round(st[1], 6)}
            for name, st in sorted(self._stats.items())
            if st[0]
        }
