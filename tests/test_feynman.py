import math

import numpy as np
import pytest

from combhom.errors import ConfigError
from combhom.feynman import (Feature, coherence_factor, predict_trace_skeleton,
                             relative_rate)


class TestRelativeRate:
    def test_hom_dip_at_j0(self):
        for dphi in (0.0, 1.0, math.pi):
            pred = relative_rate(0, dphi, 0.9, equal_weights=True)
            assert pred.relative_rate == pytest.approx(0.0, abs=1e-15)
            assert pred.classification is Feature.DIP

    def test_pinned_small_peak(self):
        pred = relative_rate(2, math.pi / 2, 0.9, equal_weights=True)
        assert pred.relative_rate == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert pred.classification is Feature.PEAK

    def test_pinned_full_peak(self):
        pred = relative_rate(1, math.pi, 0.9, equal_weights=True)
        assert pred.relative_rate == pytest.approx(2.0, rel=1e-12)
        assert pred.classification is Feature.PEAK

    def test_odd_j_flat_at_quarter_phase(self):
        for j in (1, 3, 5, 7):
            pred = relative_rate(j, math.pi / 2, 0.9, equal_weights=True)
            assert pred.relative_rate == pytest.approx(1.0, abs=1e-12)
            assert pred.classification is Feature.FLAT

    def test_even_and_periodic_in_phase(self, rng):
        for _ in range(40):
            j = int(rng.integers(0, 9))
            r = rng.uniform(0.0, 0.99)
            dphi = rng.uniform(-10.0, 10.0)
            base = relative_rate(j, dphi, r).relative_rate
            assert relative_rate(j, -dphi, r).relative_rate == pytest.approx(base, abs=1e-12)
            assert relative_rate(j, dphi + 2 * math.pi, r).relative_rate == pytest.approx(
                base, abs=1e-9)

    def test_bounded_between_zero_and_two(self, rng):
        for _ in range(100):
            j = int(rng.integers(0, 11))
            pred = relative_rate(j, rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.99),
                                 pump_coherence_time=rng.uniform(0.05, 50.0),
                                 round_trip_time=0.667)
            assert -1e-12 <= pred.relative_rate <= 2.0 + 1e-12

    def test_incoherent_pump_flattens_revivals_only(self):
        tiny = 1e-4
        j0 = relative_rate(0, 0.3, 0.9, pump_coherence_time=tiny, round_trip_time=0.667)
        assert j0.classification is Feature.DIP
        assert j0.pump_coherence_factor == 1.0
        for j in range(1, 6):
            pred = relative_rate(j, 0.3, 0.9, pump_coherence_time=tiny,
                                 round_trip_time=0.667)
            assert pred.relative_rate == pytest.approx(1.0, abs=1e-9)
            assert pred.classification is Feature.FLAT

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            relative_rate(-1, 0.0, 0.9)
        with pytest.raises(ConfigError):
            relative_rate(1, 0.0, 1.0)


class TestSkeleton:
    def test_all_dips_for_zero_phase(self):
        preds = predict_trace_skeleton(0.0, 0.9, math.inf, 0.667, 4, equal_weights=True)
        assert [p.classification for p in preds] == [Feature.DIP] * 5

    def test_alternating_for_pi(self):
        preds = predict_trace_skeleton(math.pi, 0.9, math.inf, 0.667, 3, equal_weights=True)
        assert [p.classification for p in preds] == [
            Feature.DIP, Feature.PEAK, Feature.DIP, Feature.PEAK]

    def test_dip_flat_peak_flat_for_half_pi(self):
        preds = predict_trace_skeleton(math.pi / 2, 0.9, math.inf, 0.667, 3,
                                       equal_weights=True)
        assert [p.classification for p in preds] == [
            Feature.DIP, Feature.FLAT, Feature.PEAK, Feature.FLAT]


def test_coherence_factor_gaussian():
    assert coherence_factor(0, 0.667, 1.0) == 1.0
    assert coherence_factor(2, 1.0, math.inf) == 1.0
    assert coherence_factor(2, 1.0, 1.0) == pytest.approx(math.exp(-0.5))
