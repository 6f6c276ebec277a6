"""Cost-per-answer accounting: fold one run's journal into dollars.

The paper ranks systems by response time, but the resource-efficiency
literature (Coimbra et al., PAPERS.md) argues the real currency is what
an answer *costs*: machine-seconds held, the memory×time integral,
bytes moved. :class:`CostModel` prices those quantities with simulated
cloud rates and folds a journal's span tree and metrics into one
canonical :class:`CostReport` — the ``{"type": "cost"}`` event
:func:`repro.obs.journal.build_journal` appends as a run's final
record.

Determinism is inherited, not re-proven: the report is a pure function
of the journal's event list (meta → spans → metrics), which is already
byte-identical for the same seed across ``--jobs`` modes and cache
replay, so the cost record is too. :func:`cost_report` prices a run
from the values themselves, so the journal renderer can bill a run in
the pass that writes its lines; :func:`cost_report_from_events` folds
a parsed event list into those values.

Every quantity is derived from events:

* ``machine_seconds`` — ``machines × total_time`` from the meta event
  (every machine is billed for the whole run, like a cloud cluster);
* ``memory_byte_seconds`` — the resident-memory × time integral the
  cluster primitives accrue (``memory_byte_seconds`` metric);
* ``bytes_shuffled`` — the ``bytes_shuffled`` counter;
* ``bytes_spilled`` — bytes through storage spans (``hdfs_read``/
  ``hdfs_write``/``disk_read``/``disk_write``);
* ``recovery_seconds`` — the chaos layer's ``recovery_seconds``
  counter, surfaced as a priced line-item (``recovery_dollars`` is the
  slice of compute dollars spent re-earning lost progress).

``answers`` is 1 for a completed run and 0 for a failure cell — a run
that OOMs or times out still bills machine time but produced nothing,
so its ``dollars_per_answer`` is ``None`` (the paper's TO/OOM cells,
priced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "COST_SCHEMA",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "CostReport",
    "cost_report",
    "cost_report_from_events",
    "cost_event_from_events",
    "aggregate_costs",
]

#: bump when the cost event's fields change incompatibly
COST_SCHEMA = 1

#: span names whose ``bytes`` argument counts as spilled-to-storage
STORAGE_SPANS = frozenset({"hdfs_read", "hdfs_write", "disk_read", "disk_write"})

GB = 1e9
HOUR = 3600.0


@dataclass(frozen=True)
class CostModel:
    """Simulated cloud rates (stable constants, not market prices).

    Defaults are in the neighbourhood of the paper era's EC2 r3.xlarge
    on-demand pricing; their absolute level is arbitrary — only ratios
    between runs matter, and determinism requires they never float.
    """

    dollars_per_machine_hour: float = 0.36
    dollars_per_gb_shuffled: float = 0.01
    dollars_per_gb_hour_memory: float = 0.005

    def rates(self) -> Dict[str, float]:
        """The rate card recorded inside every cost event."""
        return {
            "machine_hour": self.dollars_per_machine_hour,
            "gb_shuffled": self.dollars_per_gb_shuffled,
            "gb_hour_memory": self.dollars_per_gb_hour_memory,
        }


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class CostReport:
    """One run's resource bill: quantities, then dollars.

    ``recovery_dollars`` is informational — the compute dollars
    attributable to chaos recovery time — and is already included in
    ``compute_dollars`` (recovery happens on the same billed machines),
    so ``dollars = compute + shuffle + memory``.
    """

    machines: int
    total_seconds: float
    machine_seconds: float
    memory_byte_seconds: float
    bytes_shuffled: float
    bytes_spilled: float
    recovery_seconds: float
    recovery_machine_seconds: float
    compute_dollars: float
    shuffle_dollars: float
    memory_dollars: float
    recovery_dollars: float
    dollars: float
    answers: int
    rates: Dict[str, float]

    @property
    def memory_gb_hours(self) -> float:
        """The memory×time integral in billing units."""
        return self.memory_byte_seconds / GB / HOUR

    @property
    def dollars_per_answer(self) -> Optional[float]:
        """The headline number; ``None`` when the run produced nothing."""
        return self.dollars / self.answers if self.answers else None

    def to_event(self) -> dict:
        """The journal event form (canonical JSON keys, JSON-safe)."""
        return {
            "type": "cost",
            "schema": COST_SCHEMA,
            "machines": self.machines,
            "total_seconds": self.total_seconds,
            "machine_seconds": self.machine_seconds,
            "memory_byte_seconds": self.memory_byte_seconds,
            "memory_gb_hours": self.memory_gb_hours,
            "bytes_shuffled": self.bytes_shuffled,
            "bytes_spilled": self.bytes_spilled,
            "recovery_seconds": self.recovery_seconds,
            "recovery_machine_seconds": self.recovery_machine_seconds,
            "compute_dollars": self.compute_dollars,
            "shuffle_dollars": self.shuffle_dollars,
            "memory_dollars": self.memory_dollars,
            "recovery_dollars": self.recovery_dollars,
            "dollars": self.dollars,
            "answers": self.answers,
            "dollars_per_answer": self.dollars_per_answer,
            "rates": self.rates,
        }

    @classmethod
    def from_event(cls, event: dict) -> "CostReport":
        """Rebuild a report from its journal event."""
        return cls(
            machines=int(event["machines"]),
            total_seconds=float(event["total_seconds"]),
            machine_seconds=float(event["machine_seconds"]),
            memory_byte_seconds=float(event["memory_byte_seconds"]),
            bytes_shuffled=float(event["bytes_shuffled"]),
            bytes_spilled=float(event["bytes_spilled"]),
            recovery_seconds=float(event["recovery_seconds"]),
            recovery_machine_seconds=float(event["recovery_machine_seconds"]),
            compute_dollars=float(event["compute_dollars"]),
            shuffle_dollars=float(event["shuffle_dollars"]),
            memory_dollars=float(event["memory_dollars"]),
            recovery_dollars=float(event["recovery_dollars"]),
            dollars=float(event["dollars"]),
            answers=int(event["answers"]),
            rates=dict(event["rates"]),
        )


def _scalar(events: Sequence[dict], name: str) -> float:
    for event in events:
        if (
            event.get("type") == "metric"
            and event.get("name") == name
            and event.get("kind") != "histogram"
        ):
            return float(event["value"])
    return 0.0


def cost_report_from_events(
    events: Sequence[dict],
    model: CostModel = DEFAULT_COST_MODEL,
) -> Optional[CostReport]:
    """Fold journal events into a :class:`CostReport`.

    Returns ``None`` for event streams that are not engine runs (the
    scheduler's host-clock journal, partial streams): billing needs the
    meta event's ``machines`` and ``total_time``.
    """
    if not events or events[0].get("type") != "meta":
        return None
    spilled = 0.0
    for event in events:
        if event.get("type") == "span" and event.get("name") in STORAGE_SPANS:
            spilled += float(event.get("args", {}).get("bytes", 0.0))
    scalars = {
        name: _scalar(events, name)
        for name in ("memory_byte_seconds", "bytes_shuffled", "recovery_seconds")
    }
    return cost_report(events[0], scalars, spilled, model)


def cost_report(
    meta: Mapping[str, object],
    scalars: Mapping[str, float],
    bytes_spilled: float,
    model: CostModel = DEFAULT_COST_MODEL,
) -> Optional[CostReport]:
    """Price one run from its meta event, its final counter/gauge values
    (a name missing from ``scalars`` reads 0.0) and the bytes through
    its storage spans; ``None`` when ``meta`` is not a run's.

    :func:`~repro.obs.journal.build_journal` calls this with the values
    it journals while it renders them, so the stream is scanned once.
    """
    if "machines" not in meta or "total_time" not in meta:
        return None
    machines = int(meta["machines"])  # type: ignore[call-overload]
    total_seconds = float(meta["total_time"])  # type: ignore[arg-type]
    memory_byte_seconds = scalars.get("memory_byte_seconds", 0.0)
    bytes_shuffled = scalars.get("bytes_shuffled", 0.0)
    recovery_seconds = scalars.get("recovery_seconds", 0.0)

    machine_seconds = machines * total_seconds
    recovery_machine_seconds = machines * recovery_seconds
    compute_dollars = machine_seconds / HOUR * model.dollars_per_machine_hour
    shuffle_dollars = bytes_shuffled / GB * model.dollars_per_gb_shuffled
    memory_dollars = (
        memory_byte_seconds / GB / HOUR * model.dollars_per_gb_hour_memory
    )
    recovery_dollars = (
        recovery_machine_seconds / HOUR * model.dollars_per_machine_hour
    )
    return CostReport(
        machines=machines,
        total_seconds=total_seconds,
        machine_seconds=machine_seconds,
        memory_byte_seconds=memory_byte_seconds,
        bytes_shuffled=bytes_shuffled,
        bytes_spilled=bytes_spilled,
        recovery_seconds=recovery_seconds,
        recovery_machine_seconds=recovery_machine_seconds,
        compute_dollars=compute_dollars,
        shuffle_dollars=shuffle_dollars,
        memory_dollars=memory_dollars,
        recovery_dollars=recovery_dollars,
        dollars=compute_dollars + shuffle_dollars + memory_dollars,
        answers=1 if meta.get("status") == "ok" else 0,
        rates=model.rates(),
    )


def cost_event_from_events(
    events: Sequence[dict],
    model: CostModel = DEFAULT_COST_MODEL,
) -> Optional[dict]:
    """The journal-ready cost event, or ``None`` for non-run streams."""
    report = cost_report_from_events(events, model)
    return report.to_event() if report is not None else None


def aggregate_costs(reports: List[CostReport]) -> Dict[str, float]:
    """Grid-level totals the executor folds into its scheduler journal."""
    totals = {
        "dollars": 0.0,
        "machine_seconds": 0.0,
        "memory_gb_hours": 0.0,
        "gb_shuffled": 0.0,
        "recovery_seconds": 0.0,
        "answers": 0.0,
    }
    for report in reports:
        totals["dollars"] += report.dollars
        totals["machine_seconds"] += report.machine_seconds
        totals["memory_gb_hours"] += report.memory_gb_hours
        totals["gb_shuffled"] += report.bytes_shuffled / GB
        totals["recovery_seconds"] += report.recovery_seconds
        totals["answers"] += report.answers
    return totals
