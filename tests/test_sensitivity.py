"""Tests for the calibration sensitivity framework."""

import pytest

from repro.cluster import ClusterSpec
from repro.core.sensitivity import (
    PERTURBABLE_CONSTANTS,
    perturbed_costs,
    sensitivity_analysis,
)
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for
from repro.engines.common import COSTS


def run(key, wl, ds="twitter", m=16):
    d = load_dataset(ds, "small")
    e = make_engine(key)
    return e.run(d, workload_for(e, wl, d), ClusterSpec(m))


class TestPerturbedCosts:
    def test_scales_and_restores(self):
        original = COSTS.jvm_edge_cost
        with perturbed_costs(jvm_edge_cost=2.0):
            assert COSTS.jvm_edge_cost == pytest.approx(2 * original)
        assert COSTS.jvm_edge_cost == original

    def test_restores_on_exception(self):
        original = COSTS.cpp_edge_cost
        with pytest.raises(RuntimeError):
            with perturbed_costs(cpp_edge_cost=3.0):
                raise RuntimeError("boom")
        assert COSTS.cpp_edge_cost == original

    def test_unknown_constant_rejected(self):
        with pytest.raises(KeyError):
            with perturbed_costs(warp_factor=2.0):
                pass

    def test_perturbation_changes_run_times(self):
        base = run("G", "pagerank").total_time
        with perturbed_costs(jvm_edge_cost=2.0):
            slower = run("G", "pagerank").total_time
        assert slower > base
        assert run("G", "pagerank").total_time == pytest.approx(base)

    def test_constant_list_is_valid(self):
        for name in PERTURBABLE_CONSTANTS:
            assert hasattr(COSTS, name)


class TestSensitivityAnalysis:
    def test_robust_predicate_survives(self):
        results = sensitivity_analysis(
            {"bv-beats-hd": lambda: (
                run("BV", "khop").total_time < run("HD", "khop").total_time
            )},
            constants=("cpp_edge_cost", "hadoop_record_cost"),
        )
        assert results[0].robust
        assert results[0].flips == []

    def test_fragile_predicate_flips(self):
        # a threshold placed right at the baseline value must flip
        base = run("BV", "khop").total_time

        def near_threshold():
            return run("BV", "khop").total_time <= base * 1.001

        results = sensitivity_analysis(
            {"threshold": near_threshold},
            constants=("cpp_parse_cost",), factors=(4.0,),
        )
        assert results[0].baseline
        assert not results[0].robust

    def test_baseline_recorded(self):
        results = sensitivity_analysis(
            {"always-false": lambda: False},
            constants=("cpp_edge_cost",), factors=(2.0,),
        )
        assert results[0].baseline is False
