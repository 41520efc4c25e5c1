"""Differential conformance fuzzing: generator + oracle smoke tests."""

import numpy as np
import pytest

from repro.fuzz import (
    CASE_KINDS,
    case_to_json,
    make_case,
    models_for,
    run_case,
    run_fuzz,
    run_reference,
)
from repro.simt.stats import DivergenceSampler


class TestGenerator:
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_kinds_generate_and_reference_runs(self, kind):
        case = make_case(3, kind)
        assert case.kind == kind
        result = run_reference(case)
        assert result.global_mem.shape == (case.global_words,)
        # Every launched thread must reach exit on the reference machine.
        assert len(result.exit_state) == case.num_threads

    def test_generation_is_deterministic(self):
        a = make_case(1234)
        b = make_case(1234)
        assert case_to_json(a) == case_to_json(b)

    def test_different_seeds_differ(self):
        texts = {case_to_json(make_case(seed)) for seed in range(6)}
        assert len(texts) > 1

    def test_spawn_cases_actually_spawn(self):
        spawned = 0
        for seed in range(8):
            case = make_case(seed, "spawn")
            spawned += run_reference(case).threads_spawned
        assert spawned > 0

    def test_model_matrix(self):
        assert models_for(make_case(0, "plain")) == \
            ("pdom_block", "pdom_warp", "dwf")
        assert models_for(make_case(0, "spawn")) == ("spawn",)
        assert models_for(make_case(0, "barrier")) == ("pdom_block",)


class TestOracle:
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_case_battery_passes(self, kind):
        result = run_case(make_case(11, kind))
        assert not result.failures, result.failures

    def test_model_subset_filter(self):
        case = make_case(5, "plain")
        result = run_case(case, models=("pdom_warp",))
        assert not result.failures, result.failures

    def test_inapplicable_subset_skips(self):
        case = make_case(5, "barrier")
        result = run_case(case, models=("dwf",))
        assert result.skipped

    def test_fast_clock_only_drift_is_caught(self, monkeypatch):
        """Only the fast clock credits idle spans in bulk. Booking them
        as stall cycles in the divergence histogram changes no memory
        image and no per-SM total, so nothing but the exact-vs-base
        ``run_stats_digest`` comparison can see it."""
        case = make_case(11, "plain")
        assert run_case(case).ok

        def idle_span_as_stall(self, start, stop):
            self.record_stall_span(start, stop)

        monkeypatch.setattr(DivergenceSampler, "record_idle_span",
                            idle_span_as_stall)
        failures = run_case(case).failures
        assert {failure.split(":")[0] for failure in failures} == {
            "pdom_block/exact", "pdom_warp/exact"}, failures
        assert all("diverge from the fast-clock base run" in failure
                   for failure in failures), failures


class TestCampaign:
    def test_small_campaign_is_clean(self):
        report = run_fuzz(8, seed=2026)
        assert report.cases_run == 8
        assert report.ok, [r.failures for r in report.failures]

    def test_campaign_is_deterministic(self):
        seen = []
        run_fuzz(3, seed=9, on_case=lambda i, r: seen.append(r.case.seed))
        again = []
        run_fuzz(3, seed=9, on_case=lambda i, r: again.append(r.case.seed))
        assert seen == again

    def test_kind_filter(self):
        kinds_seen = []
        run_fuzz(4, seed=1, kinds=("barrier",),
                 on_case=lambda i, r: kinds_seen.append(r.case.kind))
        assert kinds_seen == ["barrier"] * 4

    def test_all_randomness_is_seed_derived(self):
        # Global numpy RNG state must not influence case generation.
        np.random.seed(1)
        a = case_to_json(make_case(77))
        np.random.seed(2)
        b = case_to_json(make_case(77))
        assert a == b

class TestRouletteKind:
    """The data-dependent-loop-depth kind shaped like russian roulette."""

    def test_model_matrix_includes_dwf(self):
        assert models_for(make_case(0, "roulette")) == \
            ("pdom_block", "pdom_warp", "dwf")

    def test_trip_counts_are_data_dependent(self):
        """Slot 0 records each thread's LCG-driven trip count; a kind that
        collapsed to a uniform loop would not exercise divergence at all."""
        diverse = 0
        for seed in range(8):
            case = make_case(seed, "roulette")
            result = run_reference(case)
            trips = result.global_mem[
                case.out_base:case.out_base
                + case.num_threads * case.out_stride:case.out_stride]
            assert np.all(trips >= 1)
            diverse += len(np.unique(trips)) > 1
        assert diverse >= 6

    def test_trip_counts_deterministic_per_seed(self):
        case = make_case(21, "roulette")
        first = run_reference(case).global_mem
        second = run_reference(case).global_mem
        assert np.array_equal(first, second)

    def test_small_campaign_is_clean(self):
        report = run_fuzz(12, seed=0, kinds=("roulette",))
        assert report.cases_run == 12
        assert report.ok, [r.failures for r in report.failures]
