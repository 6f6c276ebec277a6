"""Tests for the findings verifier and the vertical-scaling extension."""

import pytest

from repro.core.findings import FINDINGS, Finding, verify_all_findings
from repro.core.vertical_scaling import vertical_scaling_experiment


class TestFindingsVerifier:
    @pytest.fixture(scope="class")
    def findings(self):
        return verify_all_findings()

    def test_covers_the_papers_list(self, findings):
        assert len(findings) == len(FINDINGS) == 8
        keys = {f.key for f in findings}
        assert "blogel-winner" in keys
        assert "cost-metric" in keys

    def test_all_supported(self, findings):
        unsupported = [f.key for f in findings if not f.supported]
        assert unsupported == []

    def test_every_finding_cites_a_section(self, findings):
        assert all(f.section.startswith("§") for f in findings)

    def test_evidence_attached(self, findings):
        assert all(f.evidence for f in findings)

    def test_blogel_evidence_names_winners(self, findings):
        blogel = next(f for f in findings if f.key == "blogel-winner")
        assert blogel.evidence["execution_winner"] == "BB"
        assert blogel.evidence["end_to_end_winner"] == "BV"

    def test_repr_shows_verdict(self):
        f = Finding(key="x", claim="c", section="§1", supported=True)
        assert "SUPPORTED" in repr(f)


class TestVerticalScaling:
    def test_compute_bound_workload_benefits(self, small_twitter):
        points = vertical_scaling_experiment(
            "BV", "pagerank", "twitter", cores_options=(2, 8)
        )
        assert points[0].time > 1.8 * points[1].time

    def test_coordination_bound_workload_does_not(self):
        points = vertical_scaling_experiment(
            "BV", "sssp", "wrn", cores_options=(2, 16)
        )
        # barriers don't shrink with cores: < 10% gain from 8x the cores
        assert points[0].time < 1.1 * points[1].time

    def test_memory_scaling_rescues_oom(self):
        # GraphLab random cannot load WRN on 16 standard machines (§5.2);
        # fatter machines (more memory) fix that without more machines
        thin = vertical_scaling_experiment(
            "GL-S-R-I", "pagerank", "wrn", cores_options=(4,),
            scale_memory=False,
        )
        fat = vertical_scaling_experiment(
            "GL-S-R-I", "pagerank", "wrn", cores_options=(16,),
            scale_memory=True,
        )
        assert not thin[0].result.ok
        assert fat[0].result.ok

    def test_memory_reported(self):
        points = vertical_scaling_experiment(
            "BV", "khop", "twitter", cores_options=(4, 8), scale_memory=True
        )
        assert points[1].memory_gb == pytest.approx(2 * points[0].memory_gb)

    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            vertical_scaling_experiment("BV", "khop", "twitter",
                                        cores_options=(0,))

    def test_speedup_saturates(self, small_twitter):
        points = vertical_scaling_experiment(
            "BV", "pagerank", "twitter", cores_options=(2, 4, 8, 16)
        )
        times = [p.time for p in points]
        # monotone improvement...
        assert times == sorted(times, reverse=True)
        # ...but sublinear: 8x the cores buys well under 8x the speed
        assert times[0] / times[-1] < 6.0
