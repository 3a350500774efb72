"""Span tracer that instruments transserial from the outside.

`Tracer.install()` replaces every public function of each layer module
(rationals, monomial, series, grid, witness, calculus, compose, cli) in
every `transserial.*` namespace that holds it, plus `Stream.force_len`
(the forcing boundary, so work done inside lazy generators is charged to
`series`), with a wrapper that records a span whenever a call crosses
into a layer from another layer (or from the benchmark).  Calls inside
one layer are only counted.  Each span keeps its name, start, end,
parent span and op id in flat arrays; `write_spans` dumps them at the
end.  A layer's self time is its spans' time minus the time covered by
their child spans.  `uninstall()` restores every replaced attribute.

Counters that need the program's state (intern table and cache sizes)
are read with `len()` on its module dicts; nothing in the program changes.
Counts and times are reported per op.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("rationals", "monomial", "series", "grid", "witness", "calculus",
          "compose", "cli")
# Spans kept for the span file; later ones are only counted as dropped.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.stack: list = []  # frames: [span id, layer, start, child time]
        self.next_id = 0
        self.calls: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.names: list[str] = []
        self._name_ids: dict = {}
        self.sp_id, self.sp_parent, self.sp_op, self.sp_name = (
            array("q"), array("q"), array("q"), array("I"))
        self.sp_start, self.sp_end = array("d"), array("d")
        self.dropped = 0
        # layer-specific counters
        self.symbolic_calls = 0
        self.terms_forced = 0
        self.budget_exhausted = 0
        self.member_hits = 0
        self.member_unknown = 0
        self.ratio_sizes = [0, 0]  # total size, count
        self.fixed_point_problems = 0
        self.phi_calls = 0
        self._restore: list = []

    # -- spans -----------------------------------------------------------------
    def _name_id(self, key: str) -> int:
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _wrap(self, layer: str, key: str, inner):
        """Counting + span wrapper around `inner`."""
        tracer = self
        calls = self.calls
        layer_calls = self.layer_calls
        self_s = self.self_s
        inclusive = self.inclusive_s
        nid = self._name_id(key)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return inner(*args, **kwargs)
            calls[key] += 1
            layer_calls[layer] += 1
            stack = tracer.stack
            if stack and stack[-1][1] == layer:
                return inner(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return inner(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2]
                self_s[layer] += dur - frame[3]
                inclusive[key] += dur
                parent = -1
                if stack:
                    stack[-1][3] += dur
                    parent = stack[-1][0]
                if len(tracer.sp_id) < SPAN_CAP:
                    tracer.sp_id.append(sid)
                    tracer.sp_parent.append(parent)
                    tracer.sp_op.append(tracer.op)
                    tracer.sp_name.append(nid)
                    tracer.sp_start.append(frame[2])
                    tracer.sp_end.append(end)
                else:
                    tracer.dropped += 1

        wrapper.__wrapped__ = inner
        return wrapper

    # -- layer hooks -----------------------------------------------------------
    def _inner(self, layer: str, name: str, fn, mods):
        """The function a wrapper calls: `fn`, or `fn` plus a counter read."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            return fn  # its work happens later, under Stream.force_len
        if layer == "rationals":
            def inner(*args, **kwargs):
                if tracer.active and any(not isinstance(a, (Fraction, int)) for a in args):
                    tracer.symbolic_calls += 1
                return fn(*args, **kwargs)
            return inner
        if layer == "grid" and name == "monoid_member":
            cache = mods["grid"]._member_cache
            unknown = mods["grid"].UnknownMembership

            def inner(*args, **kwargs):
                before = len(cache)
                out = fn(*args, **kwargs)
                if tracer.active:
                    tracer.member_hits += len(cache) == before
                    tracer.member_unknown += isinstance(out, unknown)
                return out
            return inner
        if layer == "witness":
            ratio_set = mods["grid"].RatioSet

            def inner(*args, **kwargs):
                out = fn(*args, **kwargs)
                if tracer.active:
                    res = out[-1] if isinstance(out, tuple) and out else out
                    res = getattr(res, "output", res)
                    if isinstance(res, ratio_set):
                        tracer.ratio_sizes[0] += len(res)
                        tracer.ratio_sizes[1] += 1
                return out
            return inner
        if layer == "compose" and name == "fixed_point":
            def inner(problem, *args, **kwargs):
                if tracer.active:
                    tracer.fixed_point_problems += 1
                    phi = problem.phi

                    def counted(b):
                        tracer.phi_calls += 1
                        return phi(b)

                    problem.phi = counted
                return fn(problem, *args, **kwargs)
            return inner
        return fn

    # -- install / uninstall ---------------------------------------------------
    def install(self, package_name: str = "transserial"):
        pkg_mods = {name: mod for name, mod in sys.modules.items()
                    if mod is not None and (name == package_name
                                            or name.startswith(package_name + "."))}
        mods = {layer: pkg_mods[f"{package_name}.{layer}"] for layer in LAYERS}
        replace: dict = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    inner = self._inner(layer, name, fn, mods)
                    replace[id(fn)] = (fn, self._wrap(layer, f"{layer}.{name}", inner))
        for mod in pkg_mods.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        stream = mods["series"].Stream
        force_len = stream.force_len
        tracer = self

        def force_inner(s, n):
            before = len(s._cache)
            try:
                return force_len(s, n)
            finally:
                if tracer.active:
                    tracer.terms_forced += len(s._cache) - before

        self._set(stream, "force_len", self._wrap("series", "series.Stream.force_len",
                                                  force_inner))
        budget = sys.modules[f"{package_name}.errors"].BudgetExhausted
        init = budget.__init__

        def counted_init(exc, *args, **kwargs):
            if tracer.active:
                tracer.budget_exhausted += 1
            init(exc, *args, **kwargs)

        self._set(budget, "__init__", counted_init)
        self.modules = mods

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, old in reversed(self._restore):
            setattr(obj, attr, old)
        self._restore.clear()

    # -- results ---------------------------------------------------------------
    def sizes(self) -> dict:
        """Intern-table and cache sizes, read from the program's module dicts."""
        mono = self.modules["monomial"]
        return {
            "monomial.interned": (len(mono._intern), "count"),
            "monomial.cache_entries": (len(mono._mul_cache) + len(mono._cmp_cache)
                                       + len(mono._lazy_keys), "count"),
        }

    def metrics(self, ops: int, sizes: dict) -> dict:
        """Per-layer metrics.  Counts and times are per op, so runs that
        complete different numbers of ops compare; `sizes` is a `sizes()`
        reading."""
        member_calls = self.calls["grid.monoid_member"]

        def share(a, b):
            return a / b if b else 0.0

        def per_op(v):
            return v / ops

        out = {}
        for layer in LAYERS[:-1]:
            out[f"{layer}.calls"] = (per_op(self.layer_calls[layer]), "count/op")
            out[f"{layer}.self_s"] = (per_op(self.self_s[layer]), "s/op")
        out.update(sizes)
        out.update({
            "rationals.symbolic_share": (
                share(self.symbolic_calls, self.layer_calls["rationals"]), "ratio"),
            "monomial.make_mono.calls": (per_op(self.calls["monomial.make_mono"]), "count/op"),
            "monomial.mono_cmp.calls": (per_op(self.calls["monomial.mono_cmp"]), "count/op"),
            "series.terms_forced": (per_op(self.terms_forced), "count/op"),
            "series.ladder.calls": (per_op(self.calls["series.ladder"]), "count/op"),
            "series.budget_exhausted": (per_op(self.budget_exhausted), "count/op"),
            "grid.monoid_member.calls": (per_op(member_calls), "count/op"),
            "grid.member_cache_hit_ratio": (share(self.member_hits, member_calls), "ratio"),
            "grid.unknown_share": (share(self.member_unknown, member_calls), "ratio"),
            "witness.ratio_set_size": (share(*self.ratio_sizes), "count"),
            "compose.fixed_point.iterations": (
                per_op(self.phi_calls - 2 * self.fixed_point_problems), "count/op"),
            "cli.parse_s": (per_op(self.inclusive_s["cli.parse"]), "s/op"),
            "cli.evaluate_s": (per_op(self.inclusive_s["cli.evaluate"]), "s/op"),
            "cli.render_s": (per_op(self.inclusive_s["cli.render"]), "s/op"),
        })
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            t0 = self.sp_start[0] if self.sp_start else 0.0
            for i in range(len(self.sp_id)):
                fh.write(f"{self.sp_id[i]},{self.sp_parent[i]},{self.sp_op[i]},"
                         f"{self.names[self.sp_name[i]]},{self.sp_start[i] - t0:.9f},"
                         f"{self.sp_end[i] - t0:.9f}\n")
