"""Span recording around the public functions of each ehrpos layer.

A Tracer wraps a function where its callers look it up: every loaded
ehrpos module attribute that is the function gets the wrapper, so calls
from inside the package are seen as well as calls from the benchmark.
Each call records a span (name, start, end, parent, operation) in memory;
self time is a span's duration minus the time its child spans cover.
Wrappers are installed only for a traced round and removed after it, so
untraced rounds run the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

# (layer, function) pairs that get spans; "Polynomial.__call__" is a method.
SPANNED = [
    ("ratpoly", "interpolate_at_naturals"),
    ("ratpoly", "binom_poly"),
    ("ratpoly", "poly_shift"),
    ("ratpoly", "Polynomial.__call__"),
    ("ehrhart", "count_points_uniform"),
    ("ehrhart", "ehr_uniform"),
    ("ehrhart", "ehr_minimal"),
    ("ehrhart", "ehr_minimal_shifted"),
    ("ehrhart", "ehr_sparse"),
    ("ehrhart", "ehr_uniform_coeff"),
    ("ehrhart", "quad_coeff_minimal_shifted"),
    ("ehrhart", "rank2_poly"),
    ("ehrhart", "search_counterexamples"),
    ("hstar", "hstar"),
    ("hstar", "is_real_rooted"),
    ("codes", "gs_classes"),
    ("codes", "gs_best_class"),
    ("matroid", "validate"),
    ("matroid", "matroid_from_text"),
    ("matroid", "matroid_to_text"),
    ("oracle", "oracle_count"),
    ("oracle", "oracle_interior_count"),
    ("oracle", "enumerate_small_matroids"),
    ("verify", "check_oracle_certification"),
    ("cli", "main"),
]


def _bits(value: object) -> int:
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return max((_bits(c) for c in coeffs), default=0)
    return 0


class Tracer:
    """Spans and counters of one process; `install` and `uninstall` bracket
    a traced round."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return parent, time.perf_counter()

    def _close(self, name: str, parent: int, start: float) -> None:
        end = time.perf_counter()
        idx = self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        tracer = self
        cached = hasattr(fn, "cache_info")
        oracle = name.startswith("oracle.oracle_")
        bits = name.startswith("ehrhart.")

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    parent, start = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, parent, start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cached:
                before = fn.cache_info()
            parent, start = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name, parent, start)
            if cached:
                after = fn.cache_info()
                tracer.counts[name + ".cache_hits"] += after.hits - before.hits
                tracer.counts[name + ".cache_misses"] += after.misses - before.misses
            if oracle:
                tracer.counts["oracle.points_counted"] += out
            if bits:
                b = _bits(out)
                if b > tracer.counts["ehrhart.coeff_bits_max"]:
                    tracer.counts["ehrhart.coeff_bits_max"] = b
            return out

        return wrapper

    def _count_words(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            for w in fn(*args, **kwargs):
                tracer.counts["codes.words_enumerated"] += 1
                yield w

        return counting

    # -- patching ---------------------------------------------------------
    def _modules(self) -> list:
        prefix = self.package.__name__
        return [m for k, m in sorted(sys.modules.items()) if m is not None and (k == prefix or k.startswith(prefix + "."))]

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _layer(self, layer: str):
        try:
            return importlib.import_module(f"{self.package.__name__}.{layer}")
        except ModuleNotFoundError:
            return None

    def install(self) -> None:
        homes = {layer: self._layer(layer) for layer, _ in SPANNED}
        mods = self._modules()
        self.absent = []
        for layer, func in SPANNED:
            name = f"{layer}.{func.replace('.__call__', '.call')}"
            home = homes[layer]
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(home, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.absent.append(name)
                    continue
                self._set(cls, meth, self._wrap(name, fn))
                continue
            fn = getattr(home, func, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)
        codes = homes["codes"]
        masks = getattr(codes, "weight_k_masks", None)
        if masks is None:
            self.absent.append("codes.words_enumerated")
        else:
            self._set(codes, "weight_k_masks", self._count_words(masks))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- summary ----------------------------------------------------------
    def self_times(self) -> tuple[Counter[str], Counter[str]]:
        """(self seconds, calls) per span name over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
        return self_s, calls

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
