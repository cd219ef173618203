"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps the public functions of each layer at every module
and class attribute bound to them, so calls made through a name imported
elsewhere (`ratfun` imports `laurent_gcd` by name, `laurent2_gcd` calls it
through `laurent`'s globals) are seen too.  Each span adds its call and its
self time: its duration minus the part covered by the spans it encloses.
Spans are aggregated in place, per name, rather than kept one by one.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict

# metric prefix -> (module, attribute path) of every function it covers
LAYERS = {
    "laurent.gcd1": [("qlink.exactalg.laurent", "laurent_gcd")],
    "laurent.gcd2": [("qlink.exactalg.laurent", "laurent2_gcd")],
    "laurent.div": [("qlink.exactalg.laurent", "laurent_divide_exact"),
                    ("qlink.exactalg.laurent", "laurent2_divide_exact")],
    "ratfun.add2": [("qlink.exactalg.ratfun", "RatFun2.__add__")],
    "ratfun.mul2": [("qlink.exactalg.ratfun", "RatFun2.__mul__")],
    "ratfun.add1": [("qlink.exactalg.ratfun", "RatFun.__add__")],
    "ratfun.mul1": [("qlink.exactalg.ratfun", "RatFun.__mul__")],
    "homfly.hecke_mul": [("qlink.homfly", "hecke_mul_gen")],
    "homfly.trace": [("qlink.homfly", "ocneanu_trace")],
    "homfly.homfly": [("qlink.homfly", "homfly")],
    "qnum.qrational": [("qlink.qnum", "qrational"), ("qlink.qnum", "left_qrational")],
    "qnum.qdelta": [("qlink.qnum", "qdelta"), ("qlink.qnum", "left_qdelta")],
    "nu.specialize": [("qlink.exactalg.nu", "specialize_a")],
    "xinv.invariant": [("qlink.xinv", "x_invariant"), ("qlink.xinv", "normalized_invariant")],
}
GCDS = ("laurent.gcd1", "laurent.gcd2")
CACHED = ("qnum.qrational", "qnum.qdelta")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nontrivial: Counter = Counter()
        self.peak_terms = 0
        self._local = threading.local()  # `table` evaluates entries on worker threads
        self._cached: dict[str, list] = {}  # prefix -> [(lru_cache object, info at install)]

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0.0]
        return stack

    def _observe(self, name: str):
        if name in GCDS:
            def observe(g) -> None:
                if not (g.is_one() or g.is_zero()):
                    self.nontrivial[name] += 1
            return observe
        if name == "homfly.hecke_mul":
            def observe(e) -> None:
                self.peak_terms = max(self.peak_terms, len(e.terms))
            return observe
        return None

    def wrap(self, name: str, fn):
        clock, stack_of, observe = time.perf_counter, self._stack, self._observe(name)
        calls, self_s = self.calls, self.self_s

        def span(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - inner
            if observe is not None:
                observe(result)
            return result

        return span

    def install(self) -> None:
        """Wrap every target at each qlink module or class attribute bound to it."""
        holders = [m for n, m in list(sys.modules.items()) if n == "qlink" or n.startswith("qlink.")]
        for name, targets in LAYERS.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                if hasattr(fn, "cache_info"):
                    self._cached.setdefault(name, []).append((fn, fn.cache_info()))
                wrapped = self.wrap(name, fn)
                for holder in holders + ([owner] if cls_path else []):
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)

    def snapshot(self) -> dict:
        """Totals since install, as plain JSON data."""
        cache = {}
        for name, entries in self._cached.items():
            hits = sum(fn.cache_info().hits - base.hits for fn, base in entries)
            misses = sum(fn.cache_info().misses - base.misses for fn, base in entries)
            cache[name] = [hits, misses]
        params = sys.modules["qlink.homfly"]._DEFAULT_PARAMS
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "nontrivial": dict(self.nontrivial),
            "peak_terms": self.peak_terms,
            "cache": cache,
            "basis_entries": 0 if params is None else len(params._basis_cache),
        }
