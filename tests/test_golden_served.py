"""A seeded serving session still delivers the payloads it recorded.

``tests/golden/served.json`` holds the SHA-256 of every cell payload
the daemon serves during ``run_loadgen(seed=2018)`` (120 clients, tiny
datasets), keyed by ``<job id>/<system>.<workload>.<dataset>.<machines>``.
Job ids are assigned in admission order and every client submits
sequentially, so the keys are a function of the seed. A payload carries
the cell record, the answer and the canonical journal text, so a change
to how the daemon queues, schedules or streams work must leave every
one of these bytes alone.
"""

import hashlib
import json
from pathlib import Path

from repro.obs.journal import canonical_json
from repro.serve import ServeDaemon, loadgen

CORPUS = Path(__file__).resolve().parent / "golden" / "served.json"


def served_digests(monkeypatch) -> dict:
    """job/cell -> SHA-256 of every payload one seeded loadgen run serves."""
    daemons = []

    class Recorded(ServeDaemon):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            daemons.append(self)

    monkeypatch.setattr(loadgen, "ServeDaemon", Recorded)
    record = loadgen.run_loadgen(seed=2018, output=None)
    assert record["bit_equal_spotcheck"] is True
    (daemon,) = daemons
    digests = {}
    for job_id, job in sorted(daemon.jobs.items()):
        for payload in job.payloads:
            cell = payload["record"]
            key = (f"{job_id}/{cell['system']}.{cell['workload']}."
                   f"{cell['dataset']}.{cell['cluster_size']}")
            digests[key] = hashlib.sha256(
                canonical_json(payload).encode("ascii")).hexdigest()
    return digests


def test_served_payloads_match_the_corpus(monkeypatch, capsys):
    with open(CORPUS, encoding="ascii") as fh:
        recorded = json.load(fh)
    assert served_digests(monkeypatch) == recorded
