"""Out-of-band tracer for eulab: it wraps the library's public functions from
outside, so the code under test is unchanged.

``Tracer.job(name)`` installs the wrappers for the duration of one job and
restores the originals on exit.  Every public function defined in an
``eulab.*`` module is replaced in every ``eulab`` namespace that holds it
(modules bind names with ``from .perms import stats``), and the public and
arithmetic methods of ``MultiPoly`` are replaced on the class.

Every wrapped call is a frame on one stack (everything runs on one thread):
its busy time is its own duration, its self time that duration minus the
traced calls it made.  Hot calls (``stats``, ``toggle``, ``MultiPoly``
arithmetic, ...) only add to per-function totals; the coarse calls in
``SPANNED`` also keep a span in memory, with the span that caused it and
the job it belongs to.  ``dump`` writes the totals and spans as JSON.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from contextlib import contextmanager
from time import perf_counter

from eulab.poly import MultiPoly

LAYERS = ("perms", "enumerators", "poly", "grammar", "gamma", "bijection", "action", "checks")

SPANNED = frozenset({
    "checks.verify_all", "checks.verify", "enumerators.build", "enumerators.profile_counts",
    "perms.enumerate_class", "grammar.derive", "gamma.gamma_expand", "gamma.gamma_from_class",
    "bijection.pair_table", "action.orbit",
})

_POLY_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__pow__", "__eq__")
# MultiPoly operations whose result size adds to poly.terms_out
_POLY_PRODUCERS = frozenset({
    "poly.MultiPoly.__add__", "poly.MultiPoly.__radd__", "poly.MultiPoly.__sub__",
    "poly.MultiPoly.__rsub__", "poly.MultiPoly.__mul__", "poly.MultiPoly.__rmul__",
    "poly.MultiPoly.__pow__", "poly.MultiPoly.__neg__", "poly.MultiPoly.substitute",
    "poly.MultiPoly.monomial", "poly.poly_sum",
})


class FnStat:
    """Totals of one wrapped function.  ``busy`` counts only outermost
    calls, so recursion is not counted twice."""

    __slots__ = ("name", "layer", "calls", "busy", "self_s", "errors", "depth")

    def __init__(self, name: str):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.depth = 0


def _public_functions(module):
    """(name, object) pairs of the public plain or lru-cached functions in a
    module namespace that are defined in some ``eulab`` module."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if isinstance(obj, types.FunctionType) or isinstance(obj, functools._lru_cache_wrapper):
            home = getattr(obj, "__module__", "") or ""
            if home.startswith("eulab."):
                yield name, obj


class _TracedIter:
    """Iterator returned by a traced ``enumerate_class``: each ``__next__``
    is a perms frame, and the count and busy time of its items are kept."""

    __slots__ = ("_it", "_tracer", "_span")

    def __init__(self, it, tracer, span):
        self._it, self._tracer, self._span = it, tracer, span

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        stack = tr._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            item = next(self._it)
        except StopIteration:
            if self._span is not None:
                self._span["end"] = perf_counter() - tr._t0
            raise
        except BaseException:
            tr.enum_stat.errors += 1
            raise
        finally:
            dt = perf_counter() - t0
            tr.enum_stat.self_s += dt - stack.pop()
            stack[-1] += dt
            tr.enum_busy += dt
        tr.members += 1
        if self._span is not None:
            self._span["members"] += 1
        return item


class Tracer:
    def __init__(self):
        self.stats: dict[str, FnStat] = {}
        self.spans: list = []
        self.jobs: list = []
        self._stack: list = []
        self._span_stack: list = []
        self._job_id = None
        self._installed: list = []
        self._originals: dict = {}
        self._t0 = perf_counter()
        # counters read off results
        self.members = 0
        self.enum_busy = 0.0
        self.enum_stat = self._stat("perms.enumerate_class.__next__")
        self.profile_hits = 0
        self.profile_misses = 0
        self.steps = 0
        self.terms_peak = 0
        self.terms_out = 0
        self.orbit_members = 0
        self.verify_s: dict[str, float] = {}
        self._wrappers: dict[int, object] = {}

    def _stat(self, name: str) -> FnStat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = FnStat(name)
        return st

    # -- wrapping --------------------------------------------------------

    def _plain(self, fn, st: FnStat):
        """The hot path (``stats``, ``MultiPoly`` arithmetic, ...): totals
        only, no span, no hooks."""
        stack = self._stack

        def traced(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                dt = perf_counter() - t0
                st.self_s += dt - stack.pop()
                stack[-1] += dt
                st.depth -= 1
                if not st.depth:
                    st.busy += dt

        return functools.wraps(fn)(traced)

    def _rich(self, fn, st: FnStat, span: bool, pre, post):
        """Like ``_plain``, plus an optional span and hooks that read the
        arguments before the call and the result after it (untimed)."""
        stack, spans, span_stack = self._stack, self.spans, self._span_stack

        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            rec = None
            if span:
                rec = {"id": len(spans), "parent": span_stack[-1] if span_stack else None,
                       "job": self._job_id, "name": st.name,
                       "start": perf_counter() - self._t0, "end": None, "error": False}
                spans.append(rec)
                span_stack.append(rec["id"])
            st.calls += 1
            st.depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                if rec is not None:
                    rec["error"] = True
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                st.self_s += dt - stack.pop()
                stack[-1] += dt
                st.depth -= 1
                if not st.depth:
                    st.busy += dt
                if rec is not None:
                    span_stack.pop()
                    rec["end"] = t1 - self._t0
            if post:
                result = post(result, args, kwargs, state, dt, rec)
            return result

        return functools.wraps(fn)(traced)

    def _hooks(self, name: str):
        """(pre, post) hooks of one function, by qualified name."""
        if name == "perms.enumerate_class":
            def post(result, args, kwargs, state, dt, rec):
                if rec is not None:
                    rec["members"] = 0
                    rec["end"] = None  # set when the iterator is exhausted
                return _TracedIter(result, self, rec)
            return None, post
        if name == "enumerators.profile_counts":
            cache = self._originals[name]

            def pre(args, kwargs):
                return cache.cache_info()

            def post(result, args, kwargs, before, dt, rec):
                after = cache.cache_info()
                self.profile_hits += after.hits - before.hits
                self.profile_misses += after.misses - before.misses
                return result
            return pre, post
        if name == "grammar.derive":
            def post(result, args, kwargs, state, dt, rec):
                self.steps += args[2] if len(args) > 2 else kwargs["steps"]
                self.terms_peak = max(self.terms_peak, len(result))
                return result
            return None, post
        if name == "grammar.derivative":
            def post(result, args, kwargs, state, dt, rec):
                self.terms_peak = max(self.terms_peak, len(result))
                return result
            return None, post
        if name == "action.orbit":
            def post(result, args, kwargs, state, dt, rec):
                self.orbit_members += result.size
                return result
            return None, post
        if name == "checks.verify":
            def post(result, args, kwargs, state, dt, rec):
                check = args[0] if args else kwargs["name"]
                self.verify_s[check] = self.verify_s.get(check, 0.0) + dt
                if rec is not None:
                    rec["check"] = check
                return result
            return None, post
        if name in _POLY_PRODUCERS:
            def post(result, args, kwargs, state, dt, rec):
                if isinstance(result, MultiPoly):
                    self.terms_out += len(result)
                return result
            return None, post
        return None, None

    def _wrapper(self, name: str, fn):
        st = self._stat(name)
        pre, post = self._hooks(name)
        span = name in SPANNED
        if pre or post or span:
            return self._rich(fn, st, span, pre, post)
        return self._plain(fn, st)

    def _targets(self):
        """(owner, attribute, original, qualified name) for every
        replacement to make."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "eulab" or n.startswith("eulab."))]
        out = []
        for mod in modules:
            for attr, obj in _public_functions(mod):
                out.append((mod, attr, obj, obj.__module__.split(".", 1)[1] + "." + obj.__name__))
        for attr, raw in list(vars(MultiPoly).items()):
            if attr.startswith("_") and attr not in _POLY_DUNDERS:
                continue
            if isinstance(raw, (classmethod, types.FunctionType)):
                out.append((MultiPoly, attr, raw, f"poly.MultiPoly.{attr}"))
        return out

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        self._originals = {name: orig for _, _, orig, name in targets}
        for owner, attr, orig, name in targets:
            key = (id(orig), attr) if owner is MultiPoly else id(orig)
            wrapped = self._wrappers.get(key)
            if wrapped is None:
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._wrapper(name, orig.__func__))
                else:
                    wrapped = self._wrapper(name, orig)
                self._wrappers[key] = wrapped
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def job(self, name: str):
        """Trace one job: install, open the job's root frame and span, and
        restore every original on exit."""
        self._job_id = len(self.jobs)
        rec = {"id": len(self.spans), "parent": None, "job": self._job_id, "name": "job:" + name,
               "start": perf_counter() - self._t0, "end": None, "error": False}
        self.spans.append(rec)
        self.jobs.append(name)
        self.install()
        self._stack.append(0.0)
        self._span_stack.append(rec["id"])
        try:
            yield
        except BaseException:
            rec["error"] = True
            raise
        finally:
            self._span_stack.pop()
            self._stack.pop()
            self.uninstall()
            rec["end"] = perf_counter() - self._t0

    # -- results ---------------------------------------------------------

    def _layer(self, layer: str, field: str):
        return sum(getattr(s, field) for s in self.stats.values() if s.layer == layer)

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        c = lambda name: self.stats[name].calls if name in self.stats else 0
        b = lambda name: self.stats[name].busy if name in self.stats else 0.0
        hits, misses = self.profile_hits, self.profile_misses
        out = {
            "perms.enumerate_calls": (c("perms.enumerate_class"), "count"),
            "perms.members": (self.members, "count"),
            "perms.enumerate_s": (self.enum_busy, "s"),
            "perms.prefix_tests": (c("perms.is_prefix_decreasing"), "count"),
            "perms.stats_calls": (c("perms.stats"), "count"),
            "perms.stats_s": (b("perms.stats"), "s"),
            "perms.classify_calls": (c("perms.classify"), "count"),
            "perms.classify_s": (b("perms.classify"), "s"),
            "enumerators.build_calls": (c("enumerators.build"), "count"),
            "enumerators.build_s": (b("enumerators.build"), "s"),
            "enumerators.profile_calls": (c("enumerators.profile_counts"), "count"),
            "enumerators.profile_hits": (hits, "count"),
            "enumerators.profile_misses": (misses, "count"),
            "enumerators.profile_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "enumerators.profile_s": (b("enumerators.profile_counts"), "s"),
            "poly.add_calls": (c("poly.MultiPoly.__add__") + c("poly.MultiPoly.__radd__"), "count"),
            "poly.mul_calls": (c("poly.MultiPoly.__mul__") + c("poly.MultiPoly.__rmul__"), "count"),
            "poly.pow_calls": (c("poly.MultiPoly.__pow__"), "count"),
            "poly.substitute_calls": (c("poly.MultiPoly.substitute"), "count"),
            "poly.monomial_calls": (c("poly.MultiPoly.monomial"), "count"),
            "poly.sum_calls": (c("poly.poly_sum"), "count"),
            "poly.terms_out": (self.terms_out, "count"),
            "poly.ops_s": (self._layer("poly", "self_s"), "s"),
            "grammar.derive_calls": (c("grammar.derive"), "count"),
            "grammar.steps": (self.steps, "count"),
            "grammar.terms_peak": (self.terms_peak, "count"),
            "grammar.derive_s": (b("grammar.derive"), "s"),
            "gamma.expand_calls": (c("gamma.gamma_expand"), "count"),
            "gamma.expand_s": (b("gamma.gamma_expand"), "s"),
            "gamma.from_class_calls": (c("gamma.gamma_from_class"), "count"),
            "gamma.from_class_s": (b("gamma.gamma_from_class"), "s"),
            "bijection.mirror_calls": (c("bijection.mirror"), "count"),
            "bijection.mirror_s": (b("bijection.mirror"), "s"),
            "bijection.pair_table_s": (b("bijection.pair_table"), "s"),
            "action.toggle_calls": (c("action.toggle"), "count"),
            "action.toggle_s": (b("action.toggle"), "s"),
            "action.orbit_calls": (c("action.orbit"), "count"),
            "action.orbit_members": (self.orbit_members, "count"),
            "action.orbit_s": (b("action.orbit"), "s"),
            "checks.verify_calls": (c("checks.verify"), "count"),
        }
        for check in CHECKS:
            out[f"checks.verify_s.{check}"] = (self.verify_s.get(check, 0.0), "s")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self._layer(layer, "errors"), "count")
            if layer != "poly":  # poly.ops_s is the poly layer's self time
                out[f"{layer}.self_s"] = (self._layer(layer, "self_s"), "s")
        return out

    def dump(self, path) -> None:
        payload = {
            "jobs": self.jobs,
            "functions": {
                n: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_s, "errors": s.errors}
                for n, s in sorted(self.stats.items()) if s.calls or s.self_s
            },
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# The registry's check names, fixed here so a metric never disappears.
CHECKS = ("symmetry-gamma", "prw-g", "mainthm2", "ji-gam", "mainthm2-var", "grammar-31",
          "grammar-32", "des-pk", "cgk-alpha", "secant", "pip", "gamm", "bijection",
          "group-action")
