"""The ``serve-open`` workload: a seeded open-loop generator and its daemon.

A ``repro serve`` daemon runs in its own process (default ``--jobs 1``,
a fresh cache). The generator drives it over two connections: one
submits one-cell jobs on a seeded arrival schedule, whatever the daemon
is doing; the other waits for each job in turn and fetches its payload.
All jobs come from one client id, so the daemon's fair queue serves
them in arrival order and jobs complete in submission order, which is
what lets a single watcher time every job exactly.

A job's latency runs from its *due* time (not from when it was sent),
so a stall in the generator or the daemon is charged to every job it
delays; the generator reports how late it sent (``late_ms``) so a run
where the generator itself fell behind can be told apart.
"""

from __future__ import annotations

import queue
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from common import (
    BENCH_DIR,
    Cell,
    cell_id,
    grid_cells,
    payload_digest,
    peak_rss_kb,
    program_env,
)

#: offered load: one-cell jobs per second, well under one executor's capacity
RATE = 20.0
#: Zipf skew of cell popularity over the serve catalog
ZIPF_S = 1.2
#: a job is on time when its payload is held this long after it was due
SLO_MS = 50.0
#: host seconds after the last due time before undelivered jobs fail
JOB_TIMEOUT = 20.0


def schedule(seed: int, seconds: float) -> List[Tuple[float, Cell]]:
    """(due offset in seconds, cell) for every job of one run.

    The seed drives which cell each job draws and when it arrives. The
    count is fixed at ``RATE × seconds`` and arrival times are uniform
    order statistics — a Poisson process conditioned on its count — so
    runs with different seeds offer the same load. Popularity ranks are
    one fixed shuffle of the catalog: under Zipf(1.2) the top three
    ranks draw over a third of all jobs and a hit's cost varies several
    fold between cells, so re-ranking per seed moved the median latency
    by ±20% between seeds.
    """
    catalog = grid_cells("serve-catalog")
    random.Random("perfbench-serve-ranks").shuffle(catalog)
    rng = random.Random(f"perfbench-serve:{seed}")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(catalog))]
    count = int(round(RATE * seconds))
    picks = rng.choices(catalog, weights=weights, k=count)
    due = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    return list(zip(due, picks))


class Daemon:
    """One ``repro serve`` process: launch, time its set-up, stop it.

    With ``launcher_out`` the daemon runs under ``serve_launcher.py``,
    which records the server statistics there (and, given ``spans``,
    traces the daemon and writes its spans to that file).
    """

    def __init__(self, run_dir: Path, name: str,
                 launcher_out: Optional[Path] = None,
                 spans: Optional[Path] = None) -> None:
        self.address = str(run_dir / f"{name}.sock")
        serve_args = ["serve", "--socket", self.address,
                      "--cache-dir", str(run_dir / f"{name}-cache"),
                      "--journal", ""]
        if launcher_out is None:
            cmd = [sys.executable, "-m", "repro.cli"] + serve_args
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                   "--out", str(launcher_out)]
            cmd += (["--trace", str(spans)] if spans else []) + ["--"] + serve_args
        self._stderr = open(run_dir / f"{name}.stderr", "wb")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, env=program_env(), stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )
        try:
            self.setup_s = self._wait_ready()
        except BaseException:
            self._kill()
            raise

    def _wait_ready(self, timeout: float = 60.0) -> float:
        from repro.serve import ServeClient, ServeError

        deadline = self.launched + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                with ServeClient(self.address, client="perfbench") as link:
                    link.ping()
                return time.monotonic() - self.launched
            except (OSError, ServeError):
                time.sleep(0.002)
        raise RuntimeError("daemon did not answer ping in time")

    def peak_rss_mb(self) -> float:
        return peak_rss_kb(self.proc.pid) / 1024.0

    def stop(self) -> None:
        """Ask the daemon to shut down, wait for it, kill it if it hangs."""
        from repro.serve import ServeClient, ServeError

        try:
            if self.proc.poll() is None:
                with ServeClient(self.address, client="perfbench") as link:
                    link.shutdown()
            self.proc.wait(timeout=30)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            pass
        finally:
            self._kill()

    def _kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


@dataclass
class LoadResult:
    """What one open-loop drive observed."""

    attempted: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    on_time: int = 0
    #: delivered correctly; every other attempted job counts as failed
    cells_ok: int = 0
    backlog_max: int = 0
    outstanding_at_end: int = 0
    wall_s: float = 0.0


def drive(address: str, jobs: List[Tuple[float, Cell]],
          manifest: dict) -> LoadResult:
    """Offer ``jobs`` on schedule; time and check every delivery.

    Waiting ends ``JOB_TIMEOUT`` after the last job was due: whatever
    is undelivered by then counts as failed.
    """
    from repro.serve import QueueFullError, ServeClient, ServeError

    out = LoadResult(attempted=len(jobs))
    handoff: "queue.Queue" = queue.Queue()
    lock = threading.Lock()
    done = [0]
    last_delivery = [0.0]

    def watch(link: ServeClient) -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            job_id, due, cell = item
            ok = False
            remaining = give_up - time.monotonic()
            if job_id is not None and remaining > 0:
                try:
                    status = link.wait(job_id, timeout=remaining)
                    batch = link.results(job_id)
                    held = time.monotonic()
                    payloads = batch["payloads"]
                    ok = (status["state"] == "done" and len(payloads) == 1
                          and manifest.get(cell_id(cell))
                          == payload_digest(payloads[0]))
                except (OSError, ValueError, KeyError, ServeError):
                    held = time.monotonic()
                latency = (held - due) * 1000.0
                with lock:
                    out.latencies_ms.append(latency)
                    last_delivery[0] = held
            with lock:
                done[0] += 1
                if ok:
                    out.cells_ok += 1
                    out.on_time += latency <= SLO_MS
                else:
                    out.failed.append(cell_id(cell))

    with ServeClient(address, client="open-loop") as submit_link, \
            ServeClient(address, client="open-loop") as watch_link:
        start = time.monotonic() + 0.05
        give_up = start + (jobs[-1][0] if jobs else 0.0) + JOB_TIMEOUT
        watcher = threading.Thread(target=watch, args=(watch_link,))
        watcher.start()
        try:
            for sent, (offset, cell) in enumerate(jobs):
                due = start + offset
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                out.late_ms.append((time.monotonic() - due) * 1000.0)
                system, workload, dataset, size, machines = cell
                request = submit_link.request(
                    (system,), (workload,), (dataset,), (machines,),
                    dataset_size=size,
                )
                try:
                    job_id: Optional[str] = submit_link.submit(request, retries=0)
                except (QueueFullError, ServeError):
                    job_id = None  # refused: counted as a failed job
                handoff.put((job_id, due, cell))
                with lock:
                    out.backlog_max = max(out.backlog_max, sent + 1 - done[0])
            with lock:
                out.outstanding_at_end = len(jobs) - done[0]
        finally:
            handoff.put(None)
            watcher.join()
    out.wall_s = max(last_delivery[0] - start, 1e-9)
    return out
