"""Divergence breakdown (Figures 3/7/9 data) tests: the sampler's read
methods and the stacked chart."""

import numpy as np
import pytest

from repro.analysis.divergence import render_breakdown
from repro.simt.stats import NUM_W_BUCKETS, DivergenceSampler


def sampler_with(issues):
    sampler = DivergenceSampler(window=100)
    for cycle, active in issues:
        sampler.record_issue(cycle, active)
    return sampler


class TestBreakdown:
    def test_labels(self):
        labels = sampler_with([(0, 32)]).labels()
        assert labels[0] == "W1:4"
        assert labels[NUM_W_BUCKETS - 1] == "W29:32"
        assert labels[-2:] == ["idle", "stall"]

    def test_category_share(self):
        sampler = sampler_with([(0, 32), (1, 32), (2, 2)])
        assert sampler.category_share("W29:32") == pytest.approx(2 / 3)
        assert sampler.category_share("W1:4") == pytest.approx(1 / 3)

    def test_high_low_occupancy_shares(self):
        sampler = sampler_with([(0, 32), (1, 1), (2, 1), (3, 1)])
        assert sampler.high_occupancy_share() == pytest.approx(0.25)
        assert sampler.low_occupancy_share() == pytest.approx(0.75)

    def test_empty(self):
        sampler = sampler_with([])
        assert len(sampler.rows) == 0
        assert sampler.category_share("W1:4") == 0.0
        assert sampler.high_occupancy_share() == 0.0

    def test_windows(self):
        sampler = sampler_with([(0, 16), (150, 16), (250, 16)])
        assert len(sampler.rows) == 3


class TestRender:
    def test_render_contains_labels(self):
        text = render_breakdown(sampler_with([(0, 32), (1, 4)]))
        assert "W29:32" in text
        assert "W1:4" in text
        assert "mean active lanes" in text

    def test_render_downsamples(self):
        issues = [(cycle, 32) for cycle in range(0, 100_000, 100)]
        text = render_breakdown(sampler_with(issues), max_windows=10)
        first_row = text.splitlines()[0]
        assert len(first_row) < 60

    def test_render_empty(self):
        assert "W1:4" in render_breakdown(sampler_with([]))

    def test_include_idle_rows(self):
        sampler = DivergenceSampler(window=10)
        sampler.record_issue(0, 8)
        sampler.record_idle(1)
        text = render_breakdown(sampler, include_idle=True)
        assert "idle" in text


class TestFromSimulation:
    def test_from_real_run(self, tiny_tree, tiny_rays):
        from repro.config import scaled_config
        from repro.kernels.layout import build_memory_image
        from repro.kernels.traditional import traditional_launch_spec
        from repro.simt import GPU
        origins, directions = tiny_rays
        image = build_memory_image(tiny_tree, origins, directions)
        gpu = GPU(scaled_config(1, max_cycles=5_000_000),
                  traditional_launch_spec(origins.shape[0]),
                  image.global_mem, image.const_mem, divergence_window=500)
        stats = gpu.run()
        sampler = stats.divergence
        assert sampler.totals().sum() == stats.sm_stats.issued_instructions
        assert 1.0 <= sampler.mean_active_lanes() <= 32.0
        # Fractions rows normalized.
        if sampler.rows:
            assert np.all(sampler.fractions_over_time() <= 1.0)
