"""Cell results as bytes: the cache's and the worker wire's one format.

A finished :class:`~repro.engines.base.RunResult` crosses two
boundaries: back from a worker process to the scheduler, and onto disk
as a cache entry. Both use the same payload — the JSONL-log record the
analysis layer already defines, plus the answer array (exact bytes, so
a cached cell's answer is bit-identical to a fresh run's) and the run's
canonical journal text (so ``--trace`` on a warm cache still writes
byte-identical per-cell journals).

The journal text is never rendered here. ``Engine.run`` froze it once
when the run returned (:class:`~repro.obs.FrozenJournalObservation`);
:func:`result_to_payload` copies that text into the payload and
:func:`payload_to_result` wraps it in the same frozen type again, so a
live, pooled, cached, or served result looks the same to every
consumer.
"""

from __future__ import annotations

import base64
from typing import Optional

import numpy as np

from ..analysis.logs import record_to_result, result_to_record
from ..engines.base import RunResult
from ..obs import FrozenJournalObservation

__all__ = [
    "FrozenJournalObservation",
    "result_to_payload",
    "payload_to_result",
]

#: bump when the payload layout changes incompatibly (part of cache keys)
#: v2: journals carry the cost record + memory_byte_seconds metric
PAYLOAD_VERSION = 2


def _encode_answer(answer: Optional[np.ndarray]) -> Optional[dict]:
    if answer is None:
        return None
    arr = np.ascontiguousarray(answer)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_answer(encoded: Optional[dict]) -> Optional[np.ndarray]:
    if encoded is None:
        return None
    raw = base64.b64decode(encoded["data"].encode("ascii"))
    arr = np.frombuffer(raw, dtype=np.dtype(encoded["dtype"]))
    return arr.reshape(encoded["shape"]).copy()


def result_to_payload(result: RunResult) -> dict:
    """Serialize a finished run for the cache and the worker wire."""
    observation = result.observation
    return {
        "version": PAYLOAD_VERSION,
        "record": result_to_record(result),
        "answer": _encode_answer(result.answer),
        "journal": None if observation is None else observation.text,
    }


def payload_to_result(payload: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from its payload form."""
    result = record_to_result(payload["record"])
    result.answer = _decode_answer(payload.get("answer"))
    journal_text = payload.get("journal")
    if journal_text is not None:
        result.observation = FrozenJournalObservation(journal_text)
    return result
