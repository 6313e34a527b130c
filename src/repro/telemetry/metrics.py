"""Process-local metric registry: monotonic counters and sampled gauges.

Counters track churn (cells inserted/removed, window moves, pool
growths); gauges hold the latest sampled value of a diagnostic
(hematocrit, interface mismatch) plus its observed range.  Metrics are
created on first use and owned by one registry per telemetry backend —
there is no global mutable state beyond the installed backend itself.
"""

from __future__ import annotations

import math


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> int:
        self.value += n
        return self.value

    # ``add`` reads better for batched increments (e.g. +n_filled cells).
    add = inc

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-sampled value with min/max/sample-count bookkeeping."""

    __slots__ = ("name", "value", "n_samples", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.n_samples = 0
        self.min = math.inf
        self.max = -math.inf

    def set(self, value: float) -> float:
        value = float(value)
        self.value = value
        self.n_samples += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        return value

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "n_samples": self.n_samples,
            "min": self.min if self.n_samples else 0.0,
            "max": self.max if self.n_samples else 0.0,
        }


class MetricRegistry:
    """Create-on-first-use store of named counters and gauges."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    @property
    def counters(self) -> dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        return dict(self._gauges)

    def as_dict(self) -> dict:
        return {
            "counters": {k: c.as_dict() for k, c in sorted(self._counters.items())},
            "gauges": {k: g.as_dict() for k, g in sorted(self._gauges.items())},
        }


class _NullCounter:
    """No-op counter shared by the disabled backend."""

    __slots__ = ()
    name = ""
    value = 0

    def inc(self, n: int = 1) -> int:
        return 0

    add = inc


class _NullGauge:
    """No-op gauge shared by the disabled backend."""

    __slots__ = ()
    name = ""
    value = 0.0
    n_samples = 0

    def set(self, value: float) -> float:
        return 0.0


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
