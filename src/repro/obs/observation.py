"""A run's observation: live while the run executes, frozen once it ends.

One :class:`RunObservation` travels through a whole experiment cell:
``Engine.run`` creates it (or accepts a caller's) and hands it to the
:class:`~repro.cluster.Cluster`, so the fabric's shuffles, computes, and
barriers land in the same span tree and metrics registry.

When the run returns, ``Engine.run`` calls :meth:`RunObservation.freeze`
and attaches the resulting :class:`FrozenJournalObservation` to the
:class:`~repro.engines.base.RunResult`. Freezing renders the canonical
journal text exactly once; the live tracer and its spans are then
garbage. Every finished run carries the frozen form, whether it ran in
this process, in a pool worker, or came out of the result cache: the
cache entry, the worker payload, ``--trace`` files, and the grid's cost
roll-up all read that one text instead of rebuilding it.

Live observations stay live only where the stream is still growing or
is not a run: the executor's scheduler story and the serve daemon's own
journal, which render through :meth:`RunObservation.journal`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from .journal import Journal, build_journal, write_atomic
from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = ["FrozenJournalObservation", "RunObservation"]


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

    def freeze(self) -> "FrozenJournalObservation":
        """Render the journal once, as the finished run's observation."""
        return FrozenJournalObservation(self.journal().dumps())

    def __repr__(self) -> str:
        return (
            f"RunObservation({len(self.tracer.spans)} spans, "
            f"{len(self.metrics)} metrics)"
        )


class FrozenJournalObservation:
    """A finished run's observation: its canonical journal text.

    The text is what :meth:`Journal.dumps` produced when the run
    froze, byte for byte. :attr:`meta` comes from its first line and
    :meth:`cost` from its last (journals start with the meta event and
    end with the cost record); :meth:`journal` parses the whole stream
    only when a caller asks for it.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    @property
    def meta(self) -> Dict[str, object]:
        """The run's metadata event (type and version included)."""
        return json.loads(self.text[:self.text.index("\n")])

    def journal(self) -> Journal:
        """The recorded event stream."""
        return Journal.loads(self.text)

    def cost(self) -> Optional[dict]:
        """The run's cost event (its final record), or ``None``."""
        last = json.loads(self.text[self.text.rfind("\n", 0, -1) + 1:])
        return last if last.get("type") == "cost" else None

    def write(self, path: Union[str, Path]) -> int:
        """Write the text verbatim, atomically; returns lines written."""
        write_atomic(Path(path), self.text)
        return self.text.count("\n")

    def __repr__(self) -> str:
        return f"FrozenJournalObservation({len(self.text)} bytes)"
