"""repro.serve: the benchmark-as-a-service daemon.

The serving guarantees everything else leans on: the fair queue's
deterministic service order (strict priorities, weighted shares,
admission control), the typed protocol's validation and framing, and —
above all — that a served grid is *bit-equal* to the one-shot executor
run the client would have computed alone (``same_results`` plus
byte-identical per-cell journals), with overlapping submissions served
from the shared warm cache instead of recomputed.
"""

import json
import socket
import threading

import pytest

from repro.cli import main
from repro.core.runner import ExperimentSpec, run_grid
from repro.exec.executor import execute_specs
from repro.exec.serialize import result_to_payload
from repro.obs import Journal
from repro.obs import report as perf
from repro.obs.hostclock import host_now
from repro.serve import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    FairQueue,
    Job,
    JobOutcome,
    JobRequest,
    JobRunner,
    ProtocolError,
    QueueFullError,
    ServeClient,
    ServeDaemon,
    ServeError,
    ServerStats,
    grid_from_payloads,
    parse_address,
    percentile,
    server_observation,
)
from repro.serve import protocol
from repro.serve import daemon as daemon_module
from repro.serve.daemon import WorkOrder, stop_reason
from repro.serve.protocol import dumps_message, recv_message


def request(client="alice", systems=("G",), workloads=("pagerank",),
            datasets=("twitter",), sizes=(16,), priority=0, weight=1.0,
            deadline=0.0):
    return JobRequest(
        client=client, systems=tuple(systems), workloads=tuple(workloads),
        datasets=tuple(datasets), cluster_sizes=tuple(sizes),
        dataset_size="tiny", priority=priority, weight=weight,
        deadline=deadline,
    )


def job(seq, **kwargs):
    return Job(id=f"j-{seq:06d}", request=request(**kwargs), seq=seq)


# -- protocol ---------------------------------------------------------------


def test_job_request_roundtrips_through_the_wire_form():
    original = request(systems=("G", "BV"), sizes=(16, 32), priority=2,
                       weight=1.5)
    recovered = JobRequest.from_dict(original.to_dict())
    assert recovered == original
    assert recovered.cells == 4


@pytest.mark.parametrize("field,value", [
    ("systems", ("nope",)),
    ("workloads", ("sorting",)),
    ("datasets", ("imaginary",)),
    ("cluster_sizes", (0,)),
    ("cluster_sizes", (True,)),
    ("weight", 0.0),
    ("weight", -1.0),
    ("priority", 1.5),
])
def test_job_request_validation_rejects_bad_coordinates(field, value):
    payload = request().to_dict()
    payload[field] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ProtocolError):
        JobRequest.from_dict(payload)


def test_job_request_to_spec_matches_the_executor_shape():
    spec = request(systems=("G", "BV"), sizes=(16,)).to_spec()
    assert isinstance(spec, ExperimentSpec)
    assert spec.systems == ("G", "BV")
    assert spec.dataset_size == "tiny"


def test_framing_is_canonical_and_roundtrips(tmp_path):
    message = {"op": "ping", "b": 2, "a": 1}
    frame = dumps_message(message)
    assert frame == b'{"a":1,"b":2,"op":"ping"}\n'
    path = tmp_path / "frame.bin"
    path.write_bytes(frame + b"not json\n")
    with open(path, "rb") as fh:
        assert recv_message(fh) == {"a": 1, "b": 2, "op": "ping"}
        with pytest.raises(ProtocolError):
            recv_message(fh)
        assert recv_message(fh) is None  # clean EOF


def test_parse_address_classifies_unix_and_tcp():
    assert parse_address("./serve.sock") == ("unix", "./serve.sock")
    assert parse_address("plain-name") == ("unix", "plain-name")
    assert parse_address("127.0.0.1:7070") == ("tcp", ("127.0.0.1", 7070))
    assert parse_address("not:aport") == ("unix", "not:aport")


# -- the fair queue ---------------------------------------------------------


def test_higher_priority_always_preempts_queued_lower_priority():
    queue = FairQueue(max_cells=64)
    low = job(1, client="batch", priority=0)
    high = job(2, client="urgent", priority=5)
    assert queue.offer(low) is None
    assert queue.offer(high) is None
    assert queue.take() is high
    assert queue.take() is low


def test_weighted_fairness_gives_shares_proportional_to_weight():
    # A (weight 2) and B (weight 1) interleave 1-cell submissions; over
    # the first six services A must get exactly its 2:1 share
    queue = FairQueue(max_cells=64)
    seq = 0
    for _ in range(4):
        for client, weight in (("A", 2.0), ("B", 1.0)):
            seq += 1
            assert queue.offer(job(seq, client=client, weight=weight)) is None
    served = [queue.take().request.client for _ in range(6)]
    assert served.count("A") == 4
    assert served.count("B") == 2
    assert served[0] == "A"  # the lightest virtual-finish tag runs first


def test_service_order_is_deterministic_via_the_seq_tiebreak():
    queue = FairQueue(max_cells=64)
    for seq in range(1, 4):
        assert queue.offer(job(seq, client=f"c{seq}")) is None
    # identical tags resolve by submission order, so the order is stable
    assert [queue.take().seq for _ in range(3)] == [1, 2, 3]


def test_clients_cannot_bank_idle_credit():
    # a client that sat idle while others were served starts at the
    # queue's virtual time, not at its stale last tag
    queue = FairQueue(max_cells=64)
    assert queue.offer(job(1, client="busy")) is None
    assert queue.take().request.client == "busy"
    assert queue.offer(job(2, client="busy")) is None
    assert queue.offer(job(3, client="idle")) is None
    busy, idle = queue.order()
    # both started at the served vtime: tags are equal, seq breaks tie
    assert (busy.request.client, idle.request.client) == ("busy", "idle")
    assert busy.vfinish == idle.vfinish


def test_admission_control_rejects_with_a_retry_hint():
    queue = FairQueue(max_cells=4)
    assert queue.offer(job(1, systems=("G", "BV"), sizes=(16,))) is None
    retry = queue.offer(job(2, systems=("G", "BV", "S"), sizes=(16,)))
    assert retry == pytest.approx(0.05)  # 1 overflow cell
    assert len(queue) == 1  # the rejected job never entered
    retry = queue.offer(job(3, systems=("G",) * 1, sizes=(16, 32, 64)))
    assert retry == pytest.approx(0.05)
    assert queue.offer(job(4)) is None  # 1 cell still fits


def test_cancel_mid_queue_removes_the_job_from_service():
    queue = FairQueue(max_cells=64)
    keep, drop = job(1, client="keep"), job(2, client="drop")
    assert queue.offer(keep) is None
    assert queue.offer(drop) is None
    assert queue.cancel(drop.id) is True
    assert drop.state == JOB_CANCELLED
    assert queue.position(drop.id) is None
    assert [j.request.client for j in queue.order()] == ["keep"]
    assert queue.take() is keep
    assert queue.take() is None
    assert queue.cancel(keep.id) is False  # no longer queued


# -- stats ------------------------------------------------------------------


def test_percentile_is_nearest_rank_and_member_of_sample():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 99) == 5.0
    assert percentile(values, 100) == 5.0
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_server_stats_aggregates_and_bills_per_client():
    stats = ServerStats()
    done = job(1, client="alice", systems=("G", "BV"))
    done.state = JOB_DONE
    done.submitted_host, done.started_host, done.finished_host = 1.0, 2.0, 4.0
    done.cache_hits, done.executed, done.cost_dollars = 1, 1, 7.5
    stats.record_job(done)
    stats.record_rejection("bob")
    snapshot = stats.snapshot()
    assert snapshot["jobs"] == 1 and snapshot["rejected"] == 1
    assert snapshot["cells"] == 2 and snapshot["cache_hit_rate"] == 0.5
    assert snapshot["p50_latency"] == pytest.approx(3.0)
    assert snapshot["p50_queue_wait"] == pytest.approx(1.0)
    assert snapshot["per_client"]["alice"]["dollars"] == 7.5
    assert snapshot["per_client"]["bob"]["jobs"] == 0.0


def test_bill_is_folded_in_admission_order_not_completion_order():
    def billed(order):
        stats = ServerStats()
        for seq in order:
            done = job(seq, client="alice" if seq < 4 else "bob")
            done.state = JOB_DONE
            done.cost_dollars = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.3, 5: 0.2,
                                 6: 0.1}[seq]
            stats.record_job(done)
        snapshot = stats.snapshot()
        return (snapshot["dollars"].hex(),
                {client: account["dollars"].hex()
                 for client, account in snapshot["per_client"].items()})

    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert billed([1, 2, 3, 4, 5, 6]) == billed([6, 3, 5, 2, 4, 1])


def test_cancelled_jobs_count_but_never_bill_or_sample():
    stats = ServerStats()
    gone = job(1)
    gone.state = JOB_CANCELLED
    stats.record_job(gone)
    snapshot = stats.snapshot()
    assert snapshot["jobs_cancelled"] == 1
    assert snapshot["cells"] == 0 and snapshot["dollars"] == 0.0
    assert snapshot["p50_latency"] == 0.0


# -- end-to-end: daemon + clients over a real socket ------------------------


@pytest.fixture()
def daemon(tmp_path):
    # TCP on a kernel-chosen port: unix paths under pytest's tmp dirs
    # can exceed the AF_UNIX 108-byte limit
    server = ServeDaemon(
        address="127.0.0.1:0",
        cache=tmp_path / "cache",
        max_queue_cells=64,
        journal_path=tmp_path / "_server.jsonl",
    ).start()
    yield server
    server.stop()


def overlapping_specs():
    """Three clients' grids sharing the (G, pagerank, twitter, 16) cell."""
    return {
        "alice": dict(systems=("G", "BV"), sizes=(16,)),
        "bob": dict(systems=("G",), sizes=(16, 32)),
        "carol": dict(systems=("G", "BV"), sizes=(16, 32)),
    }


def test_served_grids_are_bit_equal_to_the_oneshot_executor(daemon):
    payloads_by_client = {}
    for name, shape in overlapping_specs().items():
        with ServeClient(daemon.address, client=name) as link:
            job_id = link.submit(link.request(
                workloads=("pagerank",), datasets=("twitter",),
                dataset_size="tiny", systems=shape["systems"],
                cluster_sizes=shape["sizes"]))
            link.wait(job_id, timeout=120)
            payloads_by_client[name] = link.fetch_payloads(job_id)

    for name, shape in overlapping_specs().items():
        served = grid_from_payloads(payloads_by_client[name])
        oneshot = run_grid(ExperimentSpec(
            systems=shape["systems"], workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=shape["sizes"],
            dataset_size="tiny"))
        assert served.same_results(oneshot)

    # byte-identical journals: the served payload carries the exact
    # canonical journal text the one-shot executor would serialize
    oneshot = execute_specs([ExperimentSpec(
        systems=("G", "BV"), workloads=("pagerank",), datasets=("twitter",),
        cluster_sizes=(16, 32), dataset_size="tiny")], jobs=1, cache=None)
    expected = {
        (r.system, r.cluster_size): result_to_payload(r)["journal"]
        for r in oneshot.grid.cells.values()
    }
    for payload in payloads_by_client["carol"]:
        record = payload["record"]
        assert payload["journal"] == expected[
            record["system"], record["cluster_size"]]


def test_overlapping_submissions_hit_the_shared_cache(daemon):
    with ServeClient(daemon.address, client="warm") as link:
        first = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
        link.wait(first, timeout=120)
    with ServeClient(daemon.address, client="reuse") as link:
        second = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
        status = link.wait(second, timeout=120)
        assert status["cache_hits"] == 1 and status["executed"] == 0
        stats = link.stats()["stats"]
    assert stats["cache_hit_rate"] == 0.5
    assert stats["per_client"]["reuse"]["dollars"] == pytest.approx(
        stats["per_client"]["warm"]["dollars"])


def test_result_stream_resumes_from_a_cursor_across_connections(daemon):
    with ServeClient(daemon.address, client="alice") as link:
        job_id = link.submit(link.request(
            systems=("G", "BV"), workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=(16,), dataset_size="tiny"))
        link.wait(job_id, timeout=120)
        full = link.fetch_payloads(job_id)
    assert len(full) == 2
    # a brand-new connection re-attaches to the same job id and
    # continues from an arbitrary cursor
    with ServeClient(daemon.address, client="alice-again") as link:
        tail = link.fetch_payloads(job_id, after=1)
        assert tail == full[1:]
        batch = link.results(job_id, after=2)
        assert batch["payloads"] == [] and batch["complete"] is True


def test_cancel_through_the_protocol_and_unknown_ops(daemon):
    with ServeClient(daemon.address, client="alice") as link:
        # unknown op and unknown job are protocol errors, not crashes
        assert link.call({"op": "nonsense"})["error"] == "unknown-op"
        with pytest.raises(ServeError):
            link.status("j-999999")
        job_id = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
        link.wait(job_id, timeout=120)
        with pytest.raises(ServeError):  # terminal jobs are not cancellable
            link.cancel(job_id)
        assert link.ping()["version"] == 1


def test_server_journal_classifies_renders_and_diffs(daemon, tmp_path,
                                                    capsys):
    with ServeClient(daemon.address, client="alice") as link:
        job_id = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
        link.wait(job_id, timeout=120)
    path = daemon.write_journal(tmp_path / "server.jsonl")

    assert perf.classify_path(path) == perf.KIND_SERVER
    # repro trace of a server journal prints its repro report
    assert main(["trace", str(path)]) == 0
    summary = capsys.readouterr().out
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out == summary
    assert f"- {daemon.address}: 1 jobs from 1 clients" in summary
    assert "hit-rate" in summary
    assert "### Server spans (top 1 by self time, host clock)" in summary
    assert "| job [serve] | 1 |" in summary

    source = perf.load_source(path)
    assert len(source.servers) == 1
    row = source.servers[0]
    assert row.jobs == 1 and row.cells == 1
    assert "alice" in row.per_client
    report = perf.render_report([source])
    assert "### Serving" in report and "alice" in report

    # the regression gate: a self-diff is clean, a degraded serving
    # profile (slower p99, colder cache, higher bill) gates
    clean = perf.diff_sources(source, perf.load_source(path))
    assert clean.exit_code == 0 and clean.compared_servers == 1
    worse = perf.load_source(path)
    worse.servers[0].p99_latency *= 10
    worse.servers[0].cache_hit_rate = 0.0
    degraded = perf.diff_sources(source, worse)
    assert degraded.exit_code == 1
    metrics = {entry.metric for entry in degraded.regressions}
    assert "p99 latency seconds" in metrics


def test_rejected_submissions_back_off_and_eventually_land(tmp_path):
    # a queue bounded at 2 cells forces queue-full responses while the
    # scheduler drains; the client's retry loop must absorb them
    server = ServeDaemon(
        address="127.0.0.1:0", cache=tmp_path / "cache", max_queue_cells=2,
    ).start()
    try:
        with ServeClient(server.address, client="pushy") as link:
            ids = [
                link.submit(link.request(
                    systems=("G", "BV"), workloads=("pagerank",),
                    datasets=("twitter",), cluster_sizes=(16,),
                    dataset_size="tiny"))
                for _ in range(4)
            ]
            for job_id in ids:
                assert link.wait(job_id, timeout=120)["state"] == JOB_DONE
            stats = link.stats()["stats"]
        assert stats["jobs_done"] == 4
    finally:
        server.stop()


def test_server_observation_meta_matches_the_snapshot():
    stats = ServerStats()
    done = job(1, client="alice")
    done.state = JOB_DONE
    done.submitted_host, done.started_host, done.finished_host = 0.0, 0.5, 1.0
    done.executed, done.cost_dollars = 1, 2.5
    stats.record_job(done)
    obs = server_observation(stats, "127.0.0.1:1")
    assert obs.meta["kind"] == "server"
    assert obs.meta["dollars"] == 2.5
    assert obs.metrics.value("serve.cells") == 1
    journal = obs.journal()
    assert Journal.loads(journal.dumps()).meta == journal.meta


# -- hardening: deadlines, shedding, eviction, drain -------------------------


@pytest.fixture()
def cold():
    """An unstarted daemon: the policy layer without any threads."""
    server = ServeDaemon(address="127.0.0.1:0", cache=None, max_queue_cells=8)
    yield server
    server.stop()


def submit_message(**kwargs):
    return {"op": "submit", "job": request(**kwargs).to_dict()}


def test_deadline_round_trips_and_rejects_negatives():
    original = request(deadline=1.5)
    assert JobRequest.from_dict(original.to_dict()) == original
    payload = request().to_dict()
    payload["deadline"] = -1.0
    with pytest.raises(ProtocolError):
        JobRequest.from_dict(payload)
    with pytest.raises(ValueError):
        ServeDaemon(address="127.0.0.1:0", cache=None, default_deadline=-1.0)


def test_submit_stamps_deadlines_from_request_or_daemon_default(cold):
    # no deadline anywhere: the job never expires
    free = cold._op_submit(submit_message())
    assert cold.jobs[free["job"]].deadline_host == 0.0
    # the request's own budget counts from submission
    hurried = cold._op_submit(submit_message(deadline=5.0))
    job = cold.jobs[hurried["job"]]
    assert job.deadline_host - job.submitted_host == pytest.approx(5.0)

    lax = ServeDaemon(address="127.0.0.1:0", cache=None, default_deadline=2.0)
    try:
        defaulted = lax.jobs[lax._op_submit(submit_message())["job"]]
        assert (defaulted.deadline_host - defaulted.submitted_host
                == pytest.approx(2.0))
        own = lax.jobs[lax._op_submit(submit_message(deadline=5.0))["job"]]
        assert own.deadline_host - own.submitted_host == pytest.approx(5.0)
    finally:
        lax.stop()


def test_should_stop_honours_cancel_then_deadline(cold):
    live = WorkOrder("j-000001", request(), 0.0, threading.Event())
    assert stop_reason(live, 0) is None

    # a cancelled order whose deadline has also passed reports the cancel
    cancelled = WorkOrder("j-000002", request(), 1e-9, threading.Event())
    cancelled.cancel.set()
    state, error = stop_reason(cancelled, 0)
    assert state == JOB_CANCELLED and "cancelled after 0 of 1" in error

    expired = WorkOrder("j-000003", request(), 1e-9, threading.Event())
    state, error = stop_reason(expired, 0)
    assert state == JOB_CANCELLED and "deadline-exceeded" in error

    # the loop counts the expiry once, when it applies the verdict
    job_id = cold._op_submit(submit_message())["job"]
    cold._start_next(host_now())
    cold._outbox.put(("done", job_id, JobOutcome(state, error), 0))
    cold._apply_outbox()
    assert cold.jobs[job_id].state == JOB_CANCELLED
    assert cold.stats.deadline_expired == 1


def test_cancelling_a_running_job_is_cooperative_not_silent(cold):
    # the old behaviour dropped cancels of running jobs on the floor;
    # now the client is told "cancelling" and the flag is set for the
    # scheduler's next cell-boundary poll
    running = job(1)
    running.state = JOB_RUNNING
    cold.jobs[running.id] = running
    response = cold._op_cancel({"op": "cancel", "job": running.id})
    assert response["ok"] and response["cancelling"] is True
    assert running.cancel_requested
    assert running.state == JOB_RUNNING  # the effect lands at the boundary


def test_job_runner_stops_at_the_next_cell_boundary():
    runner = JobRunner(cache=None)
    victim = job(1, systems=("G", "BV"))  # 2 cells

    def publish(j, payload, from_cache):
        j.payloads.append(payload)

    def stop_after_first(j):
        return (JOB_CANCELLED, "test stop") if len(j.payloads) >= 1 else None

    outcome = runner.run_job(victim, publish, should_stop=stop_after_first)
    assert outcome.state == JOB_CANCELLED and outcome.error == "test stop"
    # the runner reports the verdict but never touches the shared record
    assert victim.state == JOB_QUEUED and victim.error is None
    assert len(victim.payloads) == 1  # the completed prefix stays streamable


def test_job_runner_returns_an_outcome_without_mutating_the_job():
    # run_job never assigns state/error/cost onto the Job it is given:
    # every mutation goes through on_cell or the returned JobOutcome
    runner = JobRunner(cache=None)
    served = job(1)
    seen = []

    def publish(j, payload, from_cache):
        seen.append((payload["record"]["system"], from_cache))
        j.payloads.append(payload)

    outcome = runner.run_job(served, publish)
    assert outcome.state == JOB_DONE and outcome.error is None
    assert outcome.cost_dollars > 0
    assert served.state == JOB_QUEUED  # untouched: the daemon applies it
    assert served.cost_dollars == 0.0
    assert [p["record"]["system"] for p in served.payloads] == ["G"]
    assert seen == [("G", False)]  # cold cache: executed, not replayed


def test_shed_for_displaces_only_strictly_lower_priority():
    queue = FairQueue(max_cells=4)
    first = job(1, client="batch", systems=("G", "BV"), priority=0)
    second = job(2, client="batch2", systems=("G", "BV"), priority=0)
    assert queue.offer(first) is None and queue.offer(second) is None

    urgent = job(3, client="urgent", systems=("G", "BV"), priority=5)
    shed = queue.shed_for(urgent)
    # the victim comes from the back of the service order
    assert [victim.id for victim in shed] == [second.id]
    assert second.state == JOB_CANCELLED
    assert queue.offer(urgent) is None

    # equal-priority work is never displaced, even when nothing fits:
    # a queue full of priority-5 jobs yields nothing to another 5
    full = FairQueue(max_cells=4)
    for seq, client in ((4, "p1"), (5, "p2")):
        assert full.offer(
            job(seq, client=client, systems=("G", "BV"), priority=5)) is None
    peer = job(6, client="peer", systems=("G", "BV"), priority=5)
    assert full.shed_for(peer) == []
    assert len(full) == 2  # untouched


def test_submit_sheds_queued_work_for_higher_priority(cold):
    # four 2-cell background jobs fill the 8-cell queue
    for client in ("a", "b", "c", "d"):
        response = cold._op_submit(
            submit_message(client=client, systems=("G", "BV"), priority=0))
        assert response["ok"]
    # an equal-priority overflow is still an honest queue-full rejection
    rejected = cold._op_submit(
        submit_message(client="e", systems=("G", "BV"), priority=0))
    assert rejected["error"] == "queue-full" and rejected["retry_after"] > 0
    assert cold.stats.rejected == 1

    admitted = cold._op_submit(
        submit_message(client="urgent", systems=("G", "BV"), priority=5))
    assert admitted["ok"]
    assert cold.stats.shed == 1
    victims = [j for j in cold.jobs.values() if j.state == JOB_CANCELLED]
    assert len(victims) == 1
    assert victims[0].error.startswith("shed:")
    assert cold.queue.backlog_cells() == 8  # still at capacity, reshaped


def test_draining_daemon_refuses_new_submissions(cold):
    response = cold._op_drain({"op": "drain"})
    assert response["ok"] and response["draining"] is True
    refused = cold._op_submit(submit_message())
    assert refused["error"] == "draining"


def test_expired_job_is_cancelled_instead_of_served(daemon):
    with ServeClient(daemon.address, client="hurried") as link:
        job_id = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny", deadline=1e-9))
        status = link.wait(job_id, timeout=60)
        assert status["state"] == JOB_CANCELLED
        assert "deadline" in status["message"]
        assert link.stats()["stats"]["deadline_expired"] >= 1


def test_cache_budget_evicts_lru_and_journals_the_count(tmp_path):
    journal_path = tmp_path / "_server.jsonl"
    server = ServeDaemon(
        address="127.0.0.1:0", cache=tmp_path / "cache", cache_budget=1,
        journal_path=journal_path,
    ).start()
    try:
        with ServeClient(server.address, client="alice") as link:
            for system in ("G", "V"):
                job_id = link.submit(link.request(
                    systems=(system,), workloads=("pagerank",),
                    datasets=("twitter",), cluster_sizes=(16,),
                    dataset_size="tiny"))
                assert link.wait(job_id, timeout=120)["state"] == JOB_DONE
            assert link.stats()["stats"]["evictions"] >= 1
        assert len(server.runner.cache) == 1  # budget held on disk too
    finally:
        server.stop()
    journal = Journal.read(journal_path)
    assert journal.meta["evictions"] >= 1


def test_drain_serves_the_backlog_then_exits_cleanly(tmp_path):
    journal_path = tmp_path / "_server.jsonl"
    server = ServeDaemon(
        address="127.0.0.1:0", cache=tmp_path / "cache",
        journal_path=journal_path,
    ).start()
    with ServeClient(server.address, client="alice") as link:
        ids = [
            link.submit(link.request(
                systems=(system,), workloads=("pagerank",),
                datasets=("twitter",), cluster_sizes=(16,),
                dataset_size="tiny"))
            for system in ("G", "BV")
        ]
        assert link.drain()["draining"] is True
    # the loop finishes the backlog, then takes the daemon down
    # itself -- no stop() involved
    server._thread.join(timeout=120)
    assert not server._thread.is_alive()
    assert not server._executor.is_alive()
    assert [server.jobs[i].state for i in ids] == [JOB_DONE, JOB_DONE]
    server.stop()  # releases the socket and writes the journal
    assert Journal.read(journal_path).meta["jobs"] == 2


def test_stop_with_an_inflight_job_never_hangs_or_leaks(tmp_path):
    # the shutdown regression: stop() while a job is queued or running
    # must come back promptly with the scheduler joined and the job in a
    # terminal state, never a hung daemon or a leaked thread
    journal_path = tmp_path / "_server.jsonl"
    server = ServeDaemon(
        address="127.0.0.1:0", cache=tmp_path / "cache",
        journal_path=journal_path,
    ).start()
    with ServeClient(server.address, client="alice") as link:
        job_id = link.submit(link.request(
            systems=("G", "BV"), workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=(16, 32),
            dataset_size="tiny"))
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    stopper.join(timeout=120)
    assert not stopper.is_alive()
    assert not server._executor.is_alive()
    job = server.jobs[job_id]
    assert job.done
    assert job.state in (JOB_DONE, JOB_CANCELLED, JOB_FAILED)
    if job.state == JOB_FAILED:  # never started: a clean error payload
        assert "daemon stopped" in job.error
    assert journal_path.is_file()


def test_queue_full_exhaustion_raises_typed_error_and_streams_time_out(tmp_path):
    # the executor is held inside the first job, so the queue never
    # drains: admission control rejects forever and streams never complete
    server = ServeDaemon(
        address="127.0.0.1:0", cache=None, max_queue_cells=1,
    )
    release = threading.Event()

    def held(order, on_cell, should_stop=None):
        release.wait(60)
        return JobOutcome(JOB_CANCELLED, "released")

    server.runner.run_job = held
    server.start()
    try:
        with ServeClient(server.address, client="pushy") as link:
            spec = dict(systems=("G",), workloads=("pagerank",),
                        datasets=("twitter",), cluster_sizes=(16,),
                        dataset_size="tiny")
            link.submit(link.request(**spec))  # held by the executor
            queued = link.submit(link.request(**spec))  # fills the queue
            with pytest.raises(QueueFullError) as info:
                link.submit(link.request(**spec), retries=2, backoff_cap=0.01)
            assert info.value.code == "queue-full"
            assert info.value.rejections == 3  # retries + the final attempt
            with pytest.raises(ServeError) as timed_out:
                link.fetch_payloads(queued, timeout=0.2)
            assert timed_out.value.code == "timeout"
    finally:
        release.set()
        server.stop()


def raw_connection(address):
    """A bare socket to the daemon, for frames no client would send."""
    return socket.create_connection(parse_address(address)[1], timeout=30)


def read_to_eof(sock):
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def test_bad_frames_get_one_protocol_error_and_a_hang_up(daemon, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 1024)
    monkeypatch.setattr(daemon_module, "MAX_LINE_BYTES", 1024)
    ping = dumps_message({"op": "ping"})
    with ServeClient(daemon.address, client="bystander") as bystander:
        # an unterminated line past the bound, then a frame that is not
        # JSON; a well-formed ping follows each and is never answered
        for frame in (b"x" * 4096, b"not json\n" + ping):
            with raw_connection(daemon.address) as sock:
                sock.sendall(frame)
                answers = read_to_eof(sock).splitlines()
            assert len(answers) == 1
            assert json.loads(answers[0])["error"] == "protocol"
        # the client connected all along is still served
        assert bystander.ping()["ok"]
        assert bystander.stats()["stats"]["jobs"] == 0


def test_one_loop_thread_and_one_executor_thread_serve_every_client(tmp_path):
    before = set(threading.enumerate())
    server = ServeDaemon(address="127.0.0.1:0", cache=tmp_path / "cache").start()
    links = [ServeClient(server.address, client=f"c{i}") for i in range(8)]
    try:
        for link in links:
            assert link.ping()["ok"]
        job_id = links[0].submit(links[0].request(
            systems=("G", "BV"), workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=(16,), dataset_size="tiny"))
        added = set(threading.enumerate()) - before
        assert sorted(t.name for t in added) == ["serve-loop",
                                                 "serve-scheduler"]
        assert links[1].wait(job_id, timeout=120)["state"] == JOB_DONE
    finally:
        for link in links:
            link.close()
        server.stop()


def test_a_client_that_hangs_up_mid_wait_does_not_stop_its_job(daemon):
    request_ = request(systems=("G", "BV"))
    with raw_connection(daemon.address) as sock:
        stream = sock.makefile("rwb")
        stream.write(dumps_message({"op": "submit", "job": request_.to_dict()}))
        stream.flush()
        job_id = recv_message(stream)["job"]
        stream.write(dumps_message({"op": "wait", "job": job_id,
                                    "timeout": 60}))
        stream.flush()
        stream.close()
    with ServeClient(daemon.address, client="watcher") as watcher:
        status = watcher.wait(job_id, timeout=120)
        assert status["state"] == JOB_DONE and status["completed"] == 2
        assert watcher.ping()["ok"]
        assert watcher.stats()["stats"]["jobs_done"] == 1


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_an_executor_crash_fails_the_job_and_stops_the_daemon(tmp_path):
    journal_path = tmp_path / "_server.jsonl"
    server = ServeDaemon(address="127.0.0.1:0", cache=None,
                         journal_path=journal_path)

    def broken(order, on_cell, should_stop=None):
        raise RuntimeError("a bug below the runner")

    server.runner.run_job = broken
    server.start()
    with ServeClient(server.address, client="alice") as link:
        job_id = link.submit(link.request(
            systems=("G",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), dataset_size="tiny"))
    # the daemon takes itself down instead of waiting on a dead thread
    server._thread.join(timeout=60)
    assert not server._thread.is_alive()
    job = server.jobs[job_id]
    assert job.state == JOB_FAILED and job.error == "executor crashed"
    assert Journal.read(journal_path).meta["jobs"] == 1
    server.stop()


def test_huge_or_non_finite_timeouts_neither_stop_nor_spin_the_loop(tmp_path):
    # select() refuses timeouts past ~24.8 days and infinity, and NaN
    # would make it spin: the loop caps its sleep and rejects both
    with pytest.raises(ValueError):
        ServeDaemon(address="127.0.0.1:0", cache=None,
                    default_deadline=float("inf"))
    for bad in (float("inf"), float("nan")):
        payload = request().to_dict()
        payload["deadline"] = bad
        with pytest.raises(ProtocolError):
            JobRequest.from_dict(payload)

    server = ServeDaemon(address="127.0.0.1:0", cache=tmp_path / "cache",
                         default_deadline=3e6)
    release = threading.Event()
    real_run_job = server.runner.run_job

    def gated(order, on_cell, should_stop=None):
        release.wait(60)
        return real_run_job(order, on_cell, should_stop=should_stop)

    server.runner.run_job = gated
    server.start()
    try:
        with ServeClient(server.address, client="alice") as link:
            spec = dict(systems=("G", "BV"), workloads=("pagerank",),
                        datasets=("twitter",), dataset_size="tiny")
            running = link.submit(link.request(cluster_sizes=(16,), **spec))
            # queued behind the held job with a 3e6-second deadline
            queued = link.submit(link.request(cluster_sizes=(32,), **spec))
            with raw_connection(server.address) as sock:
                stream = sock.makefile("rwb")
                for timeout in (b"Infinity", b"NaN", b"-Infinity"):
                    stream.write(b'{"op":"wait","job":"%s","timeout":%s}\n'
                                 % (queued.encode(), timeout))
                    stream.flush()
                    assert recv_message(stream)["error"] == "protocol"
                stream.write(dumps_message({"op": "wait", "job": queued,
                                            "timeout": 1e9}))
                stream.flush()
                assert link.ping()["ok"]
                assert link.stats()["queue"]["depth"] == 1
                release.set()
                # the parked wait is answered when its job ends
                assert recv_message(stream)["state"] == JOB_DONE
                stream.close()
            assert link.status(running)["state"] == JOB_DONE
            assert link.ping()["ok"]
    finally:
        release.set()
        server.stop()


def test_stop_returns_when_the_journal_cannot_be_written(tmp_path):
    journal_path = tmp_path / "missing" / "_server.jsonl"
    for foreground in (False, True):
        server = ServeDaemon(address="127.0.0.1:0", cache=None,
                             journal_path=journal_path)
        failures = []

        def run(call):
            try:
                call()
            except OSError as exc:
                failures.append(exc)

        if foreground:  # the ``repro serve`` path
            loop = threading.Thread(target=run, args=(server.serve_forever,),
                                    daemon=True)
            loop.start()
        else:
            server.start()
        with ServeClient(server.address, client="alice") as link:
            assert link.ping()["ok"]
        stopper = threading.Thread(target=run, args=(server.stop,), daemon=True)
        stopper.start()
        stopper.join(timeout=60)
        assert not stopper.is_alive()
        if foreground:
            loop.join(timeout=60)
            assert not loop.is_alive()
        # the write error reaches whoever ran the loop: stop() for a
        # background loop, serve_forever() in the foreground
        assert [type(exc) for exc in failures] == [FileNotFoundError]
        server.stop()  # a second stop returns at once
    assert not journal_path.exists()


# -- loadgen ----------------------------------------------------------------


def test_loadgen_is_seeded_deterministic_and_bit_equal(tmp_path):
    from repro.serve.loadgen import run_loadgen

    output = tmp_path / "BENCH_serve.json"
    history = tmp_path / "history.jsonl"
    record = run_loadgen(
        clients=8, seed=11, dataset_size="tiny", max_queue_cells=16,
        output=str(output), history=str(history),
    )
    assert record["bit_equal_spotcheck"] is True
    assert record["jobs"] == 8
    assert record["cells"] >= 8
    assert record["executed"] == record["distinct_cells"]
    assert record["cache_hit_rate"] == pytest.approx(
        1.0 - record["distinct_cells"] / record["cells"])
    written = json.loads(output.read_text())
    assert written["bench"] == "serve"
    assert len(history.read_text().splitlines()) == 1
    # the record classifies and renders through the report stack
    assert perf.classify_path(output) == perf.KIND_BENCH
    report = perf.render_report([perf.load_source(output)])
    assert "Serve bench records" in report

    # same seed, same deterministic quantities (latencies are host-bound)
    again = run_loadgen(
        clients=8, seed=11, dataset_size="tiny", max_queue_cells=16,
        output=None, history=str(tmp_path / "h2.jsonl"),
    )
    for field in ("cells", "distinct_cells", "executed", "cache_hit_rate",
                  "cost_dollars"):
        assert again[field] == record[field]
