"""Typed metrics registry: counters, gauges, histograms.

The one store for a run's quantities (``messages_sent``,
``bytes_shuffled``, ``replication_factor``, per-superstep memory,
...). Each name is bound to exactly one metric type for the life of a
registry — re-registering ``messages_sent`` as a gauge after it was a
counter is a bug the registry raises on, where a plain dict would
silently overwrite.

Engines and chaos write their quantities here, so they land in the
run journal; ``RunResult.extras`` reads the scalars back by name.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

__all__ = [
    "fold_sum",
    "fold_rows",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


def fold_sum(values: Iterable[float]) -> float:
    """Add ``values`` strictly left to right, starting from integer 0.

    This is what builtin :func:`sum` computed for floats up to Python
    3.11. From 3.12 on, :func:`sum` compensates rounding error, so the
    same list can sum to a different float, and simulated totals (memory
    integrals, histogram sums) would change the journals with the
    interpreter version. Totals that reach a run's journal go through
    this fold instead. Like :func:`sum`, an empty fold is ``0``.
    """
    total: float = 0
    for value in values:
        total += value
    return total


def fold_rows(rows: np.ndarray) -> np.ndarray:
    """Fold each row of a float array strictly left to right.

    :func:`fold_sum` for arrays: ``np.add.accumulate`` is a sequential
    scan (numpy pairs terms up only in reductions), so the scan's last
    column is each row's left fold, bit for bit. A running total in the
    first column continues it. A 1-D array folds to one scalar.
    """
    return np.add.accumulate(rows, axis=-1)[..., -1]


class MetricError(TypeError):
    """A metric name was re-registered under a different type."""


class Counter:
    """A monotonically increasing total (events, bytes, messages)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> float:
        """Add to the total; counters never go down."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that can move both ways (replication factor, skew)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> float:
        """Replace the current value."""
        self.value = float(value)
        return self.value

    def inc(self, amount: float = 1.0) -> float:
        """Adjust the current value by ``amount`` (may be negative)."""
        self.value += amount
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A distribution (per-superstep seconds, memory, active vertices).

    Runs observe at most a few thousand points, so the raw observations
    are kept; summaries are computed on demand.
    """

    kind = "histogram"
    __slots__ = ("name", "observations")

    def __init__(self, name: str) -> None:
        self.name = name
        self.observations: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observations.append(float(value))

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def total(self) -> float:
        return fold_sum(self.observations)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.observations else 0.0

    @property
    def minimum(self) -> float:
        return min(self.observations) if self.observations else 0.0

    @property
    def maximum(self) -> float:
        return max(self.observations) if self.observations else 0.0

    def summary(self) -> Dict[str, float]:
        """The journal's flattened form."""
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.3g})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All of one run's metrics, typed and name-addressed."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, factory):
            raise MetricError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{factory.kind}"  # type: ignore[attr-defined]
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Fetch or create the counter ``name``."""
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """Fetch or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """Fetch or create the histogram ``name``."""
        return self._get_or_create(name, Histogram)  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Metric]:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def scalar_names(self) -> List[str]:
        """Sorted names of every counter and gauge."""
        return sorted(
            name for name, m in self._metrics.items()
            if not isinstance(m, Histogram)
        )

    def value(self, name: str) -> float:
        """Scalar value of a counter or gauge; KeyError otherwise."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            raise KeyError(name)
        return metric.value

    def histograms(self) -> List[Histogram]:
        """Every histogram, sorted by name."""
        return sorted(
            (m for m in self._metrics.values() if isinstance(m, Histogram)),
            key=lambda m: m.name,
        )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"
