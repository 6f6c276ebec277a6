"""Every retry and backoff loop ends in its error, checked by running.

The serve client backs off while a daemon's queue is full, and the
executor retries a crashed cell. The executor has one retry loop for
in-process and pooled cells, so one bound ends both; a test drives it
until it runs out each way, and another drives the client's bound.
Here those tests run in a new interpreter under a subprocess timeout,
so a loop that lost its bound fails the check even when it would spin
forever: no pytest timeout plugin guards the suite itself.

The mutation test removes one bound at a time from a copy of src/repro
and runs the tests that rely on it, under a shorter timeout.
"""

import re
import subprocess
from concurrent.futures import ThreadPoolExecutor

BOUNDED_WAITS = (
    "tests/test_serve.py::"
    "test_queue_full_exhaustion_raises_typed_error_and_streams_time_out",
    "tests/test_exec.py::test_retry_exhaustion_raises_with_the_cell_address",
    "tests/test_exec.py::"
    "test_pooled_retry_exhaustion_keeps_the_worker_traceback",
)
#: host seconds the three tests get together; they take about one
TIMEOUT = 60.0
#: enough for one of them to start and pass on a slow host
MUTATION_TIMEOUT = 3.0


def waits_in(fresh_python, basetemp, tests=BOUNDED_WAITS, src=None,
             timeout=TIMEOUT):
    """Run ``tests`` under pytest in a new interpreter; a run that
    outlives ``timeout`` raises ``subprocess.TimeoutExpired``.

    The inner session keeps its temporary files in ``basetemp``: in
    the shared temporary root, its numbered directory would push the
    outer session's out of the few that pytest keeps.
    """
    args = ["-q", "-p", "no:cacheprovider", f"--basetemp={basetemp}",
            *tests]
    return fresh_python(f"import sys, pytest\nsys.exit(pytest.main({args!r}))",
                        src=src, timeout=timeout)


def test_every_bounded_wait_ends_in_its_error(fresh_python, tmp_path):
    proc = waits_in(fresh_python, tmp_path / "inner")
    assert proc.returncode == 0, proc.stdout + proc.stderr


#: the executor's one retry bound, for in-process and pooled cells
EXECUTOR_BOUND = ("exec/executor.py",
                  "            for task, _, attempt in cells:\n"
                  "                if attempt >= self.retry.max_attempts:")
#: the bound each test exercises: (file under repro/, the bound's text)
BOUNDS = {
    BOUNDED_WAITS[0]: ("serve/client.py", "if rejections >= retries:"),
    BOUNDED_WAITS[1]: EXECUTOR_BOUND,
    BOUNDED_WAITS[2]: EXECUTOR_BOUND,
}


def test_a_wait_without_its_bound_fails_the_check(fresh_python, mutated_src,
                                                  tmp_path):
    # each test runs against a copy with its own bound replaced by
    # ``if False:``; the three run at once, so the suite waits out one
    # timeout, not three
    runs = []
    for index, (test, (relpath, bound)) in enumerate(BOUNDS.items()):
        unbounded = re.sub(r"if [^\n]*:", "if False:", bound, count=1)
        src = mutated_src(relpath, bound, unbounded, copy=f"src{index}")
        runs.append((test, src, tmp_path / f"inner{index}"))

    def outcome(run):
        test, src, basetemp = run
        try:
            proc = waits_in(fresh_python, basetemp, [test], src=src,
                            timeout=MUTATION_TIMEOUT)
        except subprocess.TimeoutExpired:
            return test, "killed by the timeout"
        return test, proc.returncode

    with ThreadPoolExecutor(len(runs)) as pool:
        outcomes = dict(pool.map(outcome, runs))
    assert 0 not in outcomes.values(), outcomes
