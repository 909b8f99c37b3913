"""Span tracer for the benchmark's traced runs.

The tracer wraps the public callables of each madhava layer from
outside the library.  Every wrapped call records one span: an id, the
layer-qualified name, start, end and the id of the enclosing span.  A
name's self time is its spans' durations minus the part their child
spans cover.  Counters ride on the same wrappers: series terms summed,
fresh (computed) reference-pi calls and the largest dividend.

install() patches the callable in every loaded madhava module that
holds it, because the library binds names with ``from ... import``;
uninstall() puts every original back.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict

PI_STORED_DIGITS = 30  # pi_reference truncates a stored constant up to this scale


def _max_digits(stats, args):
    stats["bigfixed.divmod.max_digits"] = max(stats["bigfixed.divmod.max_digits"],
                                              args[0].num_digits())


def _terms(position):
    def count(stats, args):
        stats["pi_series.terms_summed"] += args[position]
    return count


def _fresh(stats, args):
    if args[0] > PI_STORED_DIGITS:
        stats["pi_series.pi_reference.fresh"] += 1


# (span name or None for a counter only, module, class or None, attribute, counter)
TARGETS = (
    ("bigfixed.divmod", "madhava.bigfixed", "BigNat", "__divmod__", _max_digits),
    ("bigfixed.mul", "madhava.bigfixed", "BigNat", "__mul__", None),
    ("bigfixed.addsub", "madhava.bigfixed", "BigNat", "__add__", None),
    ("bigfixed.addsub", "madhava.bigfixed", "BigNat", "__sub__", None),
    ("bigfixed.shift", "madhava.bigfixed", "BigNat", "shift10", None),
    ("bigfixed.shift", "madhava.bigfixed", "BigNat", "unshift10", None),
    ("bigfixed.isqrt", "madhava.bigfixed", "BigNat", "isqrt", None),
    ("bigfixed.fd_from_ratio", "madhava.bigfixed", None, "fd_from_ratio", None),
    ("bigfixed.fd_mul", "madhava.bigfixed", None, "fd_mul", None),
    ("bigfixed.fd_add", "madhava.bigfixed", None, "fd_add", None),
    ("pi_series.evaluate", "madhava.pi_series", None, "evaluate", None),
    ("pi_series.pi_sqrt12", "madhava.pi_series", None, "pi_sqrt12", _terms(0)),
    ("pi_series.pi_reference", "madhava.pi_series", None, "pi_reference", _fresh),
    (None, "madhava.pi_series", None, "leibniz_partial", _terms(0)),
    (None, "madhava.pi_series", None, "leibniz_corrected", _terms(0)),
    (None, "madhava.pi_series", None, "aux_series", _terms(1)),
    ("trig_series.build_sine_table", "madhava.trig_series", None, "build_sine_table", None),
    ("trig_series.sin_series", "madhava.trig_series", None, "sin_series", None),
    ("geometry.circumradius", "madhava.geometry", None, "circumradius", None),
    ("chronology.venvaroha_epoch_check", "madhava.chronology", None,
     "venvaroha_epoch_check", None),
    ("cli.main", "madhava.cli", None, "main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS if t[0]))
COUNTERS = ("bigfixed.divmod.max_digits", "pi_series.terms_summed",
            "pi_series.pi_reference.fresh")


def self_times(spans) -> dict[str, list]:
    """Map each span name to [calls, self seconds].

    spans holds (id, name, start, end, parent id or -1) tuples.  Calls on
    one thread nest, so the children of a span never overlap and their
    summed durations are the part of it they cover.
    """
    covered = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for sid, name, start, end, _ in spans:
        rec = out.setdefault(name, [0, 0.0])
        rec[0] += 1
        rec[1] += end - start - covered[sid]
    return out


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.stats = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []
        self._cache_before = None

    def wrap(self, name, fn, count=None):
        """fn wrapped to record a span named name (None: no span) and to
        feed its positional arguments to count(stats, args)."""
        clock, spans, stack, ids, stats = (self.clock, self.spans, self._stack,
                                           self._ids, self.stats)

        def traced(*args, **kwargs):
            if count is not None:
                count(stats, args)
            if name is None:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "madhava" or n.startswith("madhava."))]
        for name, modname, clsname, attr, count in TARGETS:
            module = sys.modules[modname]
            if clsname is not None:
                owner = getattr(module, clsname)
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], count))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        self._cache_before = self._coeff_cache()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        if self._cache_before is not None:
            after = self._coeff_cache()
            self.stats["trig_series.coeff_table.hits"] = after[0] - self._cache_before[0]
            self.stats["trig_series.coeff_table.misses"] = after[1] - self._cache_before[1]
            self._cache_before = None
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _coeff_cache() -> tuple[int, int]:
        """coeff_table's memo hits and misses so far; zeros if it has no memo."""
        trig = sys.modules.get("madhava.trig_series")
        info = getattr(getattr(trig, "coeff_table", None), "cache_info", None)
        if info is None:
            return (0, 0)
        ci = info()
        return (ci.hits, ci.misses)

    def summary(self) -> dict:
        """Per-name [calls, self seconds], the counters, and the sum of all
        self times (which equals the summed duration of the root spans)."""
        times = self_times(self.spans)
        return {"spans": times, "stats": dict(self.stats),
                "self_sum_s": sum(t[1] for t in times.values())}
