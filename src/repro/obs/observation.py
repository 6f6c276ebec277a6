"""A run's live observation: tracer, metrics and metadata.

One :class:`RunObservation` travels through a whole experiment cell:
``Engine.run`` creates it (or accepts a caller's) and hands it to the
:class:`~repro.cluster.Cluster`, so the fabric's shuffles, computes, and
barriers land in the same span tree and metrics registry.

When the run returns, ``Engine.run`` renders :meth:`RunObservation.journal`
once and attaches the :class:`~repro.obs.journal.Journal` to the
:class:`~repro.engines.base.RunResult`; the live tracer and its spans
are then garbage. That journal holds the canonical text, each span
line rendered straight from the span's slots
(:func:`~repro.obs.journal.build_journal`). Every finished run carries
the same type, whether it ran in this process, in a pool worker, or
came out of the result cache: the cache entry, the worker payload,
``--trace`` files, and the grid's cost roll-up all read that one text
instead of rebuilding it.

Live observations stay live only where the stream is still growing or
is not a run: the executor's scheduler story and the serve daemon's own
journal, which also render through :meth:`RunObservation.journal`.
"""

from __future__ import annotations

from typing import Dict, Optional

from .journal import Journal, build_journal
from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = ["RunObservation"]


class RunObservation:
    """Tracer + metrics registry + run metadata for one experiment cell."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: filled in by ``Engine.run`` when the run finishes
        self.meta: Dict[str, object] = {}

    def journal(self) -> Journal:
        """The run's canonical event stream (meta + spans + metrics)."""
        return build_journal(self.meta, self.tracer, self.metrics)

    def __repr__(self) -> str:
        return (
            f"RunObservation({len(self.tracer.spans)} spans, "
            f"{len(self.metrics)} metrics)"
        )
