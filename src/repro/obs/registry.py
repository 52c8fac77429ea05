"""A process-wide metrics registry (counters, gauges, histograms).

The paper's evaluation argues through machine-independent cost proxies —
kernel evaluations per query, which pruning rule fired (Figures 12 and
16) — and the serving daemon adds wall-clock ones (request latency,
shed/degraded rates). This module gives every layer one place to report
them: a thread-safe registry of named instruments that renders both a
plain-dict snapshot (``/statz``-style JSON) and Prometheus text
exposition format (``/metrics``, ``repro metrics-dump``).

Design constraints, in order:

1. **Near-zero cost when disabled.** Every instrument write starts with
   one attribute load and a boolean test against its registry's
   ``enabled`` flag. The hot traversal loops additionally report at
   *call/block granularity*, never per node, so even an enabled registry
   costs a handful of instrument writes per thousand queries (measured
   in ``benchmarks/bench_obs_overhead.py``).
2. **Thread safety.** One lock per instrument child; label-child
   creation takes the registry lock. The serving daemon's handler
   threads and the traversal engines share instruments freely.
3. **Determinism.** Histograms use fixed log-spaced buckets chosen at
   construction; nothing about recording depends on wall-clock time
   except the optional ``Histogram.time()`` helper, whose clock is
   injectable for tests.

Instruments follow Prometheus conventions: counters are monotone and
named ``*_total``, gauges are set-or-move, histograms expose cumulative
``_bucket{le=...}`` series plus ``_sum``/``_count``. Labels are declared
at registration and bound with :meth:`Instrument.labels`.

The process-wide default registry is :data:`REGISTRY`; the environment
variable ``REPRO_METRICS=0`` (or ``off``/``false``) starts it disabled.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "log_buckets",
    "render_prometheus",
]


def log_buckets(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """``count`` log-spaced (geometric) bucket edges from ``lo`` to ``hi``.

    Both endpoints are included; edges are rounded to 6 significant
    digits so the exposition strings stay stable across platforms.

    >>> log_buckets(1.0, 100.0, 3)
    (1.0, 10.0, 100.0)
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if count < 2:
        raise ValueError(f"need at least 2 buckets, got {count}")
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return tuple(float(f"{lo * ratio ** i:.6g}") for i in range(count))


#: Default latency buckets (seconds): 0.5 ms to 60 s, log-spaced.
LATENCY_BUCKETS = log_buckets(0.0005, 60.0, 15)

#: Default work buckets (node expansions / kernel evaluations per
#: query): 1 to ~1M, log-spaced at factor 4.
WORK_BUCKETS = tuple(float(4**i) for i in range(11))


def _check_label_values(names: tuple[str, ...], values: tuple[str, ...]) -> None:
    if len(values) != len(names):
        raise ValueError(
            f"expected label values for {names}, got {len(values)} value(s)"
        )


class Instrument:
    """Common parent/child machinery for one named metric family.

    An instrument declared with labels is a *family*: values live on
    label-bound children obtained via :meth:`labels`. An instrument
    declared without labels is its own single child.
    """

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,  # noqa: A002 - prometheus terminology
        label_names: tuple[str, ...] = (),
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = threading.Lock()
        #: label-value tuple -> child instrument (self for the unlabeled).
        self._children: dict[tuple[str, ...], "Instrument"] = {}
        if not label_names:
            self._children[()] = self

    # -- family surface -------------------------------------------------

    def labels(self, *values: object, **kv: object) -> "Instrument":
        """The child bound to these label values (created on first use)."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(kv[name] for name in self.label_names)
        key = tuple(str(v) for v in values)
        _check_label_values(self.label_names, key)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self) -> "Instrument":
        child = object.__new__(type(self))
        child._registry = self._registry
        child.name = self.name
        child.help = self.help
        child.label_names = ()
        child._lock = threading.Lock()
        child._children = {(): child}
        self._prepare_child(child)
        child._init_value()
        return child

    def _prepare_child(self, child: "Instrument") -> None:
        """Copy subclass configuration onto a child before value init."""

    def _init_value(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def children(self) -> Iterable[tuple[tuple[str, ...], "Instrument"]]:
        """Snapshot of ``(label_values, child)`` pairs."""
        with self._lock:
            return list(self._children.items())


class Counter(Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._init_value()

    def _init_value(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(Instrument):
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._init_value()

    def _init_value(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(Instrument):
    """Fixed-bucket distribution with Prometheus cumulative exposition."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,  # noqa: A002
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be a sorted non-empty sequence: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self._edges = np.array(self.buckets)
        super().__init__(registry, name, help, label_names)
        if not label_names:
            self._init_value()

    def _prepare_child(self, child: "Instrument") -> None:
        child.buckets = self.buckets  # type: ignore[attr-defined]
        child._edges = self._edges  # type: ignore[attr-defined]

    def _init_value(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def _bucket_index(self, value: float) -> int:
        # Linear scan: bucket lists are short (<= ~15) and the constant
        # beats bisect's call overhead at this size.
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                return i
        return len(self.buckets)

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations under one lock acquisition."""
        if not self._registry.enabled:
            return
        if not isinstance(values, np.ndarray):
            values = list(values)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return
        # First edge >= v, as the scalar scan finds it; NaN sorts past
        # every edge, into +Inf, where the scan also puts it.
        hits = np.bincount(
            np.searchsorted(self._edges, values, side="left"),
            minlength=len(self.buckets) + 1,
        ).tolist()
        # Python's sequential ``sum`` of the floats; numpy's pairwise
        # ``np.sum`` would round differently.
        total = sum(values.tolist())
        with self._lock:
            self._counts = [count + hit for count, hit in zip(self._counts, hits)]
            self._sum += total
            self._count += values.size

    def time(self) -> "_HistogramTimer":
        """Context manager observing the elapsed time of its block."""
        return _HistogramTimer(self)

    def snapshot(self) -> dict:
        """Cumulative bucket counts plus sum/count (a consistent view)."""
        with self._lock:
            counts = list(self._counts)
            total, count = self._sum, self._count
        cumulative: list[int] = []
        running = 0
        for c in counts:
            running += c
            cumulative.append(running)
        return {
            "buckets": list(self.buckets),
            "cumulative_counts": cumulative,
            "sum": total,
            "count": count,
        }

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class _HistogramTimer:
    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._clock = histogram._registry.clock

    def __enter__(self) -> "_HistogramTimer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(self._clock() - self._start)


class MetricsRegistry:
    """A named collection of instruments with one enable/disable switch.

    Registration is idempotent: asking for an existing name returns the
    existing instrument (kind and labels must match — a mismatch is a
    programming error and raises). This lets modules declare their
    instruments at import time against the shared :data:`REGISTRY`
    without coordination.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def _register(self, cls, name: str, help: str, labels, **kwargs) -> Instrument:  # noqa: A002
        label_names = tuple(labels)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.label_names}"
                    )
                return existing
            instrument = cls(self, name, help, label_names, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()  # noqa: A002
    ) -> Counter:
        return self._register(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()  # noqa: A002
    ) -> Gauge:
        return self._register(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)  # type: ignore[return-value]

    def instruments(self) -> list[Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def reset(self) -> None:
        """Zero every instrument (tests only — families are kept)."""
        for instrument in self.instruments():
            for __, child in instrument.children():
                with child._lock:
                    child._init_value()

    def snapshot(self) -> dict:
        """Plain-dict view: ``name{labels}`` -> value (hist: summary)."""
        out: dict[str, object] = {}
        for instrument in self.instruments():
            for label_values, child in instrument.children():
                if child is instrument and instrument.label_names:
                    continue  # a bare family row carries no value
                key = instrument.name
                if label_values:
                    pairs = ",".join(
                        f"{n}={v}"
                        for n, v in zip(instrument.label_names, label_values)
                    )
                    key = f"{instrument.name}{{{pairs}}}"
                if isinstance(child, Histogram):
                    view = child.snapshot()
                    out[key] = {"count": view["count"], "sum": view["sum"]}
                else:
                    out[key] = child.value  # type: ignore[attr-defined]
        return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_float(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Render registries as Prometheus text exposition format (0.0.4).

    Later registries may not repeat a metric name used by an earlier one
    (Prometheus forbids duplicate families in one scrape); duplicates
    raise so a wiring mistake fails loudly in tests, not in a scraper.
    """
    lines: list[str] = []
    seen: set[str] = set()
    for registry in registries:
        for instrument in registry.instruments():
            if instrument.name in seen:
                raise ValueError(
                    f"metric {instrument.name!r} appears in more than one registry"
                )
            seen.add(instrument.name)
            lines.append(f"# HELP {instrument.name} {_escape_help(instrument.help)}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            for label_values, child in instrument.children():
                if child is instrument and instrument.label_names:
                    continue
                if isinstance(child, Histogram):
                    view = child.snapshot()
                    edges = [*view["buckets"], math.inf]
                    for edge, cumulative in zip(edges, view["cumulative_counts"]):
                        labels = _label_str(
                            instrument.label_names, label_values,
                            extra=f'le="{_format_float(edge)}"',
                        )
                        lines.append(
                            f"{instrument.name}_bucket{labels} {cumulative}"
                        )
                    base = _label_str(instrument.label_names, label_values)
                    lines.append(
                        f"{instrument.name}_sum{base} {_format_float(view['sum'])}"
                    )
                    lines.append(f"{instrument.name}_count{base} {view['count']}")
                else:
                    labels = _label_str(instrument.label_names, label_values)
                    value = child.value  # type: ignore[attr-defined]
                    lines.append(
                        f"{instrument.name}{labels} {_format_float(value)}"
                    )
    return "\n".join(lines) + "\n"


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_METRICS", "").strip().lower()
    return raw not in ("0", "off", "false", "no", "disabled")


#: The process-wide default registry every repro layer reports into.
REGISTRY = MetricsRegistry(enabled=_env_enabled())
