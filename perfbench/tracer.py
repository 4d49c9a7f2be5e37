"""Spans around the calls into each layer of disacsim, from outside the package.

A layer is one module of the package. Every public function a layer module
defines is wrapped in each module namespace where a caller looks it up, so
``harness.estimate_paths`` (the harness calling into the estimator) and
``estimator.cpd_als`` (the estimator calling its own kernel) are both seen,
and ``pipeline.solve_wls`` and ``fusion.solve_wls`` stay two call sites of
one function. ``geometry`` is not a layer: its helpers are cheap and called
from everywhere, so their cost lands in the span of whoever called them.

A span's self time is its duration minus the time of the spans it caused.
Spans are aggregated per (function, call site) as they close; hooks see the
arguments and result of chosen functions and update counters. Wrappers only
record inside a timed segment, so inputs the benchmark builds or checks with
the same functions outside the timed interval leave no trace.
"""

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "disacsim"
LAYERS = ("scene", "waveform", "estimator", "pipeline", "fusion", "harness", "cli")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Install wrappers, collect span statistics, restore the originals.

    ``only`` limits wrapping to the given ``layer.function`` names; the
    untraced pass uses it to time item boundaries and nothing else.
    """

    hooks: dict = field(default_factory=dict)
    only: frozenset | None = None
    stats: dict = field(default_factory=dict)  # (function, call site) -> SpanStats
    counters: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)  # name -> list of values
    active: bool = False
    _saved: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for layer in LAYERS:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
                for attr, value in list(vars(module).items()):
                    key = self._key(value)
                    if key is None or attr != value.__name__:
                        continue
                    if self.only is not None and key not in self.only:
                        continue
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, key, layer))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextmanager
    def segment(self):
        """Time a block of item work and record spans inside it.

        Yields a one-element list that holds the elapsed seconds on exit.
        """
        if self.active:
            raise RuntimeError("timed segments do not nest")
        elapsed = [0.0]
        self.active = True
        start = time.perf_counter()
        try:
            yield elapsed
        finally:
            elapsed[0] = time.perf_counter() - start
            self.active = False

    @staticmethod
    def _key(value):
        """``layer.function`` for a public function defined in a layer."""
        if not inspect.isfunction(value) or value.__name__.startswith("_"):
            return None
        home = value.__module__.rpartition(".")
        if home[0] != PACKAGE or home[2] not in LAYERS:
            return None
        return f"{home[2]}.{value.__name__}"

    def _wrap(self, fn, key, site):
        stack = self._stack
        slot = self.stats.setdefault((key, site), SpanStats())
        hook = self.hooks.get(key)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]  # time of child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                slot.calls += 1
                slot.total_s += elapsed
                slot.self_s += elapsed - frame[0]
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result

        functools.update_wrapper(traced, fn)
        traced.span_key = key
        return traced

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def by_function(self):
        """Call-site rows folded into one SpanStats per ``layer.function``."""
        out = {}
        for (key, _site), s in self.stats.items():
            agg = out.setdefault(key, SpanStats())
            agg.calls += s.calls
            agg.total_s += s.total_s
            agg.self_s += s.self_s
        return out

    def by_layer(self):
        out = {layer: 0.0 for layer in LAYERS}
        for key, s in self.by_function().items():
            out[key.partition(".")[0]] += s.self_s
        return out


def patched_attributes():
    """(module, attribute) pairs that currently hold a tracing wrapper."""
    leaks = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(module).items():
            if getattr(value, "span_key", None) is not None:
                leaks.append(f"{layer}.{attr}")
    return leaks


def wrapper_cost_s(calls=20000, repeats=5):
    """Median extra seconds one traced call costs over a plain call."""

    def noop():
        return None

    tracer = Tracer(active=True)
    traced = tracer._wrap(noop, "bench.noop", "bench")
    clock = time.perf_counter
    diffs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        plain = clock() - t0
        t0 = clock()
        for _ in range(calls):
            traced()
        diffs.append((clock() - t0 - plain) / calls)
    diffs.sort()
    return max(diffs[len(diffs) // 2], 0.0)
