import math
from dataclasses import replace

import numpy as np
import pytest

from combhom import oracles
from combhom.config import preset_config
from combhom.errors import ConfigError
from combhom.feynman import relative_rate
from combhom.spectral import EtalonSpec, PhaseMatchingModel, PhaseMatchingSpec


class TestHomClosedForm:
    def test_unit_visibility_and_width(self):
        cfg = preset_config("hom")
        visibility, width = oracles.hom_closed_form_params(cfg.setup)
        assert visibility == 1.0
        assert width == pytest.approx(1.0 / (math.sqrt(2) * cfg.setup.filter.intensity_sigma))

    def test_limits(self):
        cfg = preset_config("hom")
        assert oracles.hom_closed_form(cfg.setup, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert oracles.hom_closed_form(cfg.setup, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_engine_trace(self, preset_traces):
        cfg, _ = preset_traces["hom"]
        from combhom.engine import DelaySweep, Engine
        trace = Engine(cfg.setup, cfg.grid).sweep(DelaySweep(-3.0, 3.0, 241))
        ref = oracles.hom_closed_form(cfg.setup, trace.tau)
        assert np.abs(trace.normalized_rate - ref).max() < 1e-3

    def test_rejects_unsupported_configurations(self):
        cfg = preset_config("fig3a")
        with pytest.raises(ConfigError):
            oracles.hom_closed_form(cfg.setup, 0.0)
        hom = preset_config("hom")
        sinc = replace(hom.setup, phase_matching=PhaseMatchingSpec(
            model=PhaseMatchingModel.SINC, crystal_length=3.0))
        with pytest.raises(ConfigError):
            oracles.hom_closed_form(sinc, 0.0)


class TestEtalonSeries:
    @staticmethod
    def setup_with(name="fig3a", **etalon):
        setup = preset_config(name).setup
        return replace(setup, etalon=replace(setup.etalon, **etalon))

    def test_zero_reflectivity_is_hom_closed_form(self):
        tau = np.linspace(-3.0, 3.0, 241)
        series = oracles.etalon_series_trace(self.setup_with(reflectivity=0.0, tune_phase=1.1), tau)
        closed = oracles.hom_closed_form(preset_config("hom").setup, tau)
        assert np.abs(series - closed).max() < 1e-12

    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c"])
    def test_centre_depths_follow_law(self, name):
        for duration in (0.3, 1.4, 20.0):
            for r in (0.5, 0.9, 0.98):
                setup = self.setup_with(name, reflectivity=r)
                self.check_depth_law(
                    replace(setup, pump=replace(setup.pump, duration_fwhm=duration)))

    @staticmethod
    def check_depth_law(setup):
        r = setup.etalon.reflectivity
        half_trip = 0.5 * setup.etalon.round_trip_time
        dphi = setup.etalon.tune_phase
        sf2, sp2 = setup.filter.intensity_sigma ** 2, setup.pump.spectral_sigma ** 2

        def gamma(x):
            return math.exp(-x * x * sf2 * sp2 / (sp2 + 2.0 * sf2))

        def depth(j):
            lags = [j - 2 * m for m in range(j + 1)]
            return (1 - r * r) * r**j * sum(math.cos(l * dphi) * gamma(l * half_trip) for l in lags)

        law = [depth(j) for j in range(11)]
        depths = 1.0 - oracles.etalon_series_trace(setup, half_trip * np.arange(11))
        # neighbouring orders overlap the centre with weight g(T/2)
        overlap = math.exp(-sf2 * half_trip**2)
        assert np.abs(depths - law).max() < 4.0 * overlap
        assert depths[0] == pytest.approx(1.0 - r * r, abs=4.0 * overlap)

    def test_tail_bound_holds(self):
        # a long pump keeps distant (m, m') pairs coherent, so truncation shows
        setup = self.setup_with(reflectivity=0.5)
        setup = replace(setup, pump=replace(setup.pump, duration_fwhm=20.0))
        tau = np.linspace(-0.5, 12.0, 1001)
        full = oracles.etalon_series_trace(setup, tau)
        assert oracles.etalon_series_tail_bound(0.5, 4) == math.inf
        for terms in (6, 8, 12, 16):
            error = np.abs(oracles.etalon_series_trace(setup, tau, terms=terms) - full).max()
            assert 0.0 < error <= oracles.etalon_series_tail_bound(0.5, terms)

    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c"])
    def test_matches_engine_trace(self, preset_traces, name):
        cfg, trace = preset_traces[name]
        ref = oracles.etalon_series_trace(cfg.setup, trace.tau)
        assert np.abs(trace.normalized_rate - ref).max() < 1e-6

    def test_rejects_unsupported_configurations(self):
        with pytest.raises(ConfigError):
            oracles.etalon_series_trace(preset_config("hom").setup, 0.0)
        sinc = replace(preset_config("fig3a").setup, phase_matching=PhaseMatchingSpec(
            model=PhaseMatchingModel.SINC, crystal_length=3.0))
        with pytest.raises(ConfigError):
            oracles.etalon_series_trace(sinc, 0.0)
        with pytest.raises(ConfigError):
            oracles.etalon_series_trace(preset_config("fig3a").setup, 0.0, terms=0)


class TestImpulseTrain:
    def test_zero_reflectivity_single_pulse(self):
        et = EtalonSpec(enabled=True, reflectivity=0.0, round_trip_time=0.667)
        train = oracles.etalon_impulse_train(et, 4)
        amps = [abs(a) for _, a in train]
        assert amps[0] == pytest.approx(1.0)
        assert amps[1:] == pytest.approx([0.0, 0.0, 0.0])

    def test_geometric_intensity_decay(self):
        et = EtalonSpec(enabled=True, reflectivity=0.9, round_trip_time=0.667,
                        tune_phase=0.4)
        train = oracles.etalon_impulse_train(et, 10)
        intensities = [abs(a) ** 2 for _, a in train]
        for a, b in zip(intensities, intensities[1:]):
            assert b / a == pytest.approx(0.81, rel=1e-12)

    def test_delays_and_phases(self):
        et = EtalonSpec(enabled=True, reflectivity=0.9, round_trip_time=0.7,
                        tune_phase=0.4)
        train = oracles.etalon_impulse_train(et, 5)
        for m, (delay, amp) in enumerate(train):
            assert delay == pytest.approx(m * 0.7)
            assert np.angle(amp) == pytest.approx(((m * 0.4 + math.pi) % (2 * math.pi)) - math.pi)

    def test_total_intensity_converges(self):
        et = EtalonSpec(enabled=True, reflectivity=0.9, round_trip_time=0.667)
        total = sum(abs(a) ** 2 for _, a in oracles.etalon_impulse_train(et, 200))
        assert total == pytest.approx(0.1 / 1.9, rel=1e-9)
        assert oracles.geometric_intensity_sum(0.9) == pytest.approx(0.05263158, abs=1e-7)


class TestParseval:
    def test_spectral_mean_equals_geometric_sum(self):
        for r in (0.5, 0.9, 0.98):
            et = EtalonSpec(enabled=True, reflectivity=r, round_trip_time=0.667,
                            tune_phase=0.9)
            mean = oracles.mean_transfer_intensity(et, 2396.0)
            assert abs(mean - oracles.geometric_intensity_sum(r)) < 1e-6


class TestBruteForce:
    def test_agrees_with_firing_scheme_model(self):
        phis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        for j in range(9):
            for dphi in phis:
                for r, equal in ((0.9, False), (0.5, False), (0.0, True)):
                    w = [1.0] * (j + 1) if equal else [r**m for m in range(j + 1)]
                    ref = oracles.brute_force_schemes(j, dphi, w)
                    got = relative_rate(j, dphi, r, equal_weights=equal).relative_rate
                    assert abs(ref - got) < 1e-12

    def test_pinned_values(self):
        assert oracles.brute_force_schemes(2, math.pi / 2, [1.0, 1.0, 1.0]) == pytest.approx(
            4.0 / 3.0, rel=1e-12)
        assert oracles.brute_force_schemes(1, math.pi, [1.0, 1.0]) == pytest.approx(2.0)

    def test_j0_with_partial_coherence(self):
        for gamma in (0.0, 0.3, 1.0):
            got = oracles.brute_force_schemes(0, 1.7, [1.0], coherence_factor=gamma)
            assert got == pytest.approx(1.0 - gamma, rel=1e-12, abs=1e-12)

    def test_refuses_large_index(self):
        with pytest.raises(ConfigError):
            oracles.brute_force_schemes(13, 0.0, [1.0] * 14)


def test_high_r_reference_setup():
    setup = oracles.high_r_reference_setup(math.pi)
    assert setup.etalon.reflectivity == pytest.approx(0.98)
    assert setup.pump.duration_fwhm == pytest.approx(20.0)
    assert setup.etalon.tune_phase == pytest.approx(math.pi)
    assert setup.etalon.round_trip_time == pytest.approx(0.667, abs=5e-4)
