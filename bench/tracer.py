"""Span wrappers around the public functions of each chigenus module.

Used only by `trace_child.py`; nothing here is imported by the program.
Each wrapped call records (name, parent, start, end) in memory.  A public
name is patched in every chigenus module that imported it by name (``cli``
and ``cone`` import ``chi_p``, ``cone`` imports ``schur``), so no call
slips past the wrapper; a name that a later change removes is skipped and
its metrics read 0.  Counts come from public APIs only: term maps,
result objects and ``cache_info()``.  Counting runs after the wrapped call
ends and is recorded as its own ``trace.count`` span, so it is not billed
to any layer.
"""

from __future__ import annotations

import importlib
import time

# (module, public name) -> span name "<module>.<name>"
WRAPPED = (
    ("poly", "GradedPoly.__mul__"),
    ("poly", "GradedPoly.__add__"),
    ("symchern", "schur"),
    ("symchern", "power_sum"),
    ("symchern", "flip_basis"),
    ("hrr", "todd_class"),
    ("hrr", "ch_exterior_cotangent"),
    ("hrr", "chi_p"),
    ("hrr", "chi_table"),
    ("hrr", "ChernFunctional.flipped"),
    ("cone", "generators"),
    ("cone", "certify"),
    ("cone", "verify_certificate"),
    ("cone", "certify_chi_signs"),
    ("varieties", "chern_numbers"),
    ("varieties", "chi_values"),
    ("varieties", "check_signs"),
    ("varieties", "load_corpus"),
)
MODULES = ("poly", "symchern", "hrr", "cone", "varieties", "cli")
HRR_CACHES = ("todd_class", "ch_exterior_cotangent", "chi_p")


def _weight_histogram(terms) -> dict[int, int]:
    hist: dict[int, int] = {}
    for mono in terms:
        w = sum((i + 1) * e for i, e in enumerate(mono))
        hist[w] = hist.get(w, 0) + 1
    return hist


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counters = {
            "poly.pairs_examined": 0,
            "poly.pairs_kept": 0,
            "cone.certified": 0,
            "cone.coef_max_bits": 0,
        }
        self.schur_keys: set = set()
        self.modules = {name: importlib.import_module(f"chigenus.{name}") for name in MODULES}
        self.modules["chigenus"] = importlib.import_module("chigenus")
        self._originals: dict[str, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter=None):
        name_id = self._name_id(name)
        count_id = self._name_id("trace.count")
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, start, end)
            if counter is not None:
                counter(args, result)
                spans.append((count_id, parent, end, clock()))
            return result

        return traced

    def install(self) -> None:
        counters = {
            "GradedPoly.__mul__": self._count_mul,
            "schur": self._count_schur,
            "certify": self._count_certify,
        }
        for module_name, public in WRAPPED:
            home = self.modules[module_name]
            span_name = f"{module_name}.{public}"
            if "." in public:
                cls_name, attr = public.split(".")
                cls = getattr(home, cls_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is not None:
                    setattr(cls, attr, self.wrap(span_name, original, counters.get(public)))
                continue
            original = getattr(home, public, None)
            if original is None:
                continue  # removed by a later change: its metrics read 0
            self._originals[public] = original
            wrapper = self.wrap(span_name, original, counters.get(public))
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def run_root(self, fn, *args):
        return self.wrap("cli.main", fn)(*args)

    # -- counters (public APIs only) ------------------------------------------

    def _count_mul(self, args, result) -> None:
        left, right = args
        if not isinstance(right, type(left)):
            return  # scalar multiple: no term pairs
        a, b = _weight_histogram(left.terms()), _weight_histogram(right.terms())
        self.counters["poly.pairs_examined"] += sum(a.values()) * sum(b.values())
        self.counters["poly.pairs_kept"] += sum(
            ca * cb for wa, ca in a.items() for wb, cb in b.items() if wa + wb <= left.dim
        )

    def _count_schur(self, args, result) -> None:
        parts, n = args
        parts = tuple(parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.schur_keys.add((parts, n))

    def _count_certify(self, args, result) -> None:
        if isinstance(result, self.modules["cone"].Certificate):
            self.counters["cone.certified"] += 1
            values = result.coefficients
        else:
            values = result.witness.coeffs
        bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)
        self.counters["cone.coef_max_bits"] = max(self.counters["cone.coef_max_bits"], bits)

    def dump(self) -> dict:
        hits = misses = 0
        for public in HRR_CACHES:
            cache_info = getattr(self._originals.get(public), "cache_info", None)
            if cache_info is not None:
                info = cache_info()
                hits += info.hits
                misses += info.misses
        counters = dict(self.counters)
        counters.update({"hrr.cache_hits": hits, "hrr.cache_misses": misses, "symchern.schur_distinct": len(self.schur_keys)})
        return {"names": self.names, "spans": self.spans, "counters": counters}
