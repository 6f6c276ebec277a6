"""Additional property-based tests: cluster accounting, costs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosPlan, ChaosRuntime, MachineCrash
from repro.cluster import ClusterSpec, MemoryAccountant, NetworkModel, R3_XLARGE


class TestMemoryAccountantProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9), max_size=20),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_allocate_free_roundtrip(self, sizes, machines):
        mem = MemoryAccountant(machines, R3_XLARGE)
        for i, nbytes in enumerate(sizes):
            mem.allocate(i % machines, nbytes, f"label{i}")
        for i, nbytes in enumerate(sizes):
            mem.free(i % machines, nbytes, f"label{i}")
        # float accumulation leaves sub-byte residue at most
        assert all(mem.used_bytes(m) == pytest.approx(0, abs=1e-3)
                   for m in range(machines))

    @given(st.floats(min_value=0, max_value=4e11),
           st.floats(min_value=0, max_value=0.5),
           st.integers(min_value=2, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_allocate_even_conserves_total(self, nbytes, skew, machines):
        mem = MemoryAccountant(machines, R3_XLARGE)
        try:
            mem.allocate_even(nbytes, "x", skew=skew)
        except Exception:
            return   # OOM: fine, nothing to check
        total = sum(mem.used_bytes(m) for m in range(machines))
        assert total == pytest.approx(nbytes, rel=1e-9)
        # machine 0 carries the skewed share (up to float rounding)
        assert mem.used_bytes(0) >= max(
            mem.used_bytes(m) for m in range(machines)
        ) * (1 - 1e-9) - 1e-3


class TestNetworkProperties:
    @given(st.floats(min_value=0, max_value=1e12),
           st.integers(min_value=2, max_value=128))
    @settings(max_examples=60, deadline=None)
    def test_shuffle_time_monotone_in_bytes(self, nbytes, machines):
        net = NetworkModel(machines, R3_XLARGE)
        t1 = net.shuffle_time(nbytes)
        t2 = net.shuffle_time(nbytes * 2)
        assert t2 >= t1

    @given(st.floats(min_value=1e3, max_value=1e12))
    @settings(max_examples=40, deadline=None)
    def test_more_machines_shuffle_faster(self, nbytes):
        small = NetworkModel(4, R3_XLARGE).shuffle_time(nbytes, local_fraction=0.0)
        large = NetworkModel(64, R3_XLARGE).shuffle_time(nbytes, local_fraction=0.0)
        assert large <= small


class TestChaosRuntimeProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=12),
           st.floats(min_value=0, max_value=2e6))
    @settings(max_examples=60, deadline=None)
    def test_pop_partitions_events(self, times, now):
        plan = ChaosPlan(events=tuple(MachineCrash(time=t) for t in times))
        runtime = ChaosRuntime(plan, num_workers=4)
        due = [event.time for _, event in runtime.pop_due(now)]
        pending = [event.time for event in runtime.pending]
        assert all(t <= now for t in due)
        assert all(t > now for t in pending)
        assert sorted(due + pending) == sorted(times)
