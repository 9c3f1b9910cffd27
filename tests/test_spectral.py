import math

import numpy as np
import pytest

from combhom.errors import ConfigError
from combhom.spectral import (C_UM_PER_PS, EtalonSpec, FilterSpec, OpticalSetup,
                              PhaseMatchingModel, PhaseMatchingSpec, PumpSpec,
                              build_jsa, etalon_from_geometry, etalon_transfer,
                              filter_amplitude, phase_matching, pump_envelope)
from combhom.engine import FrequencyGrid


FIG3_PUMP = PumpSpec(duration_fwhm=1.4)
FIG3_FILTER = FilterSpec(center_wavelength=786.0, fwhm=10.0)


def fig3_setup(**etalon_kwargs):
    etalon = etalon_from_geometry(100.0, 0.0, 0.9, **etalon_kwargs)
    return OpticalSetup(pump=FIG3_PUMP, phase_matching=PhaseMatchingSpec(),
                        filter=FIG3_FILTER, etalon=etalon,
                        spdc_center_wavelength=786.0)


class TestPump:
    def test_peak_is_one(self):
        assert pump_envelope(0.0, FIG3_PUMP) == 1.0

    def test_pinned_sigma(self):
        # hand evaluation of 2 sqrt(ln 2) / 1.4
        assert FIG3_PUMP.spectral_sigma == pytest.approx(1.1893637, abs=1e-6)

    def test_even(self):
        x = np.linspace(0.1, 30.0, 40)
        assert np.array_equal(pump_envelope(x, FIG3_PUMP), pump_envelope(-x, FIG3_PUMP))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            pump_envelope(np.nan, FIG3_PUMP)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PumpSpec(duration_fwhm=0.0)


class TestPhaseMatching:
    def test_flat_is_unity(self):
        pm = PhaseMatchingSpec(model=PhaseMatchingModel.FLAT)
        out = phase_matching(np.array([0.0, 3.0, -7.0]), np.array([1.0, 0.0, 2.0]), pm)
        assert np.array_equal(out, np.ones(3, dtype=complex))

    def test_sinc_limit_at_zero(self):
        pm = PhaseMatchingSpec(model=PhaseMatchingModel.SINC, crystal_length=3.0,
                               sum_coefficient=0.2, difference_coefficient=0.1)
        assert phase_matching(0.0, 0.0, pm) == pytest.approx(1.0 + 0.0j)

    def test_sinc_zero_at_pi(self):
        # x = sum_coefficient * nu_sum * L / 2 = pi
        pm = PhaseMatchingSpec(model=PhaseMatchingModel.SINC, crystal_length=2.0,
                               sum_coefficient=1.0, difference_coefficient=0.0)
        assert abs(phase_matching(math.pi, 0.0, pm)) == pytest.approx(0.0, abs=1e-15)


class TestFilter:
    def test_peak_is_one(self):
        assert filter_amplitude(0.0, FIG3_FILTER) == 1.0

    def test_amplitude_at_intensity_half_width(self):
        half = 0.5 * FIG3_FILTER.intensity_fwhm_angular
        assert filter_amplitude(half, FIG3_FILTER) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_pinned_intensity_fwhm(self):
        # hand evaluation of 2 pi c dlambda / lambda^2 for 10 nm at 786 nm
        assert FIG3_FILTER.intensity_fwhm_angular == pytest.approx(30.48986, rel=1e-5)

    def test_even(self):
        x = np.linspace(0.5, 50.0, 30)
        assert np.array_equal(filter_amplitude(x, FIG3_FILTER), filter_amplitude(-x, FIG3_FILTER))


class TestEtalon:
    def test_zero_reflectivity_unit_magnitude(self):
        et = EtalonSpec(enabled=True, reflectivity=0.0, round_trip_time=0.667, tune_phase=0.3)
        nu = np.linspace(-40.0, 40.0, 101)
        assert np.abs(etalon_transfer(nu, et, 2396.0)) == pytest.approx(np.ones(101), abs=1e-14)

    def test_resonance_and_anti_resonance(self):
        et = EtalonSpec(enabled=True, reflectivity=0.9, round_trip_time=0.667, tune_phase=0.0)
        fsr = et.free_spectral_range
        on = abs(etalon_transfer(np.array([0.0, fsr, -2 * fsr]), et, 2396.0))
        assert on == pytest.approx(np.ones(3), abs=1e-12)
        anti = abs(etalon_transfer(np.array([0.5 * fsr]), et, 2396.0)[0])
        assert anti == pytest.approx(0.1 / 1.9, abs=1e-13)

    def test_magnitude_bounded_by_one(self, rng):
        for _ in range(50):
            et = EtalonSpec(enabled=True, reflectivity=rng.uniform(0.0, 0.999),
                            round_trip_time=rng.uniform(0.1, 2.0),
                            tune_phase=rng.uniform(0.0, 2 * math.pi))
            nu = rng.uniform(-100.0, 100.0, size=64)
            assert np.all(np.abs(etalon_transfer(nu, et, 2396.0)) <= 1.0 + 1e-12)

    def test_periodic_in_one_fsr(self, rng):
        et = EtalonSpec(enabled=True, reflectivity=0.77, round_trip_time=0.9,
                        tune_phase=1.1)
        nu = rng.uniform(-50.0, 50.0, size=128)
        a = etalon_transfer(nu, et, 2396.0)
        b = etalon_transfer(nu + et.free_spectral_range, et, 2396.0)
        # the half round-trip phase flips sign over one FSR; intensities agree
        assert np.abs(b) == pytest.approx(np.abs(a), rel=1e-9)
        assert b == pytest.approx(-a, rel=1e-6)

    def test_disabled_is_identity(self):
        et = EtalonSpec(enabled=False)
        nu = np.linspace(-5, 5, 11)
        assert np.array_equal(etalon_transfer(nu, et, 2396.0), np.ones(11, dtype=complex))

    def test_reflectivity_bounds(self):
        with pytest.raises(ConfigError):
            EtalonSpec(enabled=True, reflectivity=1.0, round_trip_time=0.667)
        with pytest.raises(ConfigError):
            EtalonSpec(enabled=True, reflectivity=-0.1, round_trip_time=0.667)

    def test_tune_phase_reduced(self):
        et = EtalonSpec(enabled=True, reflectivity=0.5, round_trip_time=0.667,
                        tune_phase=5.0 * math.pi)
        assert et.tune_phase == pytest.approx(math.pi)


class TestGeometry:
    def test_paper_dimensions(self):
        et = etalon_from_geometry(100.0, 0.0, 0.9)
        assert et.round_trip_time == pytest.approx(200.0 / C_UM_PER_PS, rel=1e-12)
        assert et.round_trip_time == pytest.approx(0.667, abs=5e-4)
        fsr_thz = 1.0 / et.round_trip_time
        assert fsr_thz == pytest.approx(1.5, rel=5e-3)

    def test_fsr_as_wavelength_span(self):
        # one FSR at 786 nm: lambda^2 / (2 d) = 617796 / 200000 nm
        et = etalon_from_geometry(100.0, 0.0, 0.9)
        span_nm = 786.0**2 / (C_UM_PER_PS * 1e3 * et.round_trip_time)
        assert span_nm == pytest.approx(3.1, abs=0.05)

    def test_half_spacing_doubles_fsr(self):
        full = etalon_from_geometry(100.0, 0.0, 0.9)
        half = etalon_from_geometry(50.0, 0.0, 0.9)
        assert half.free_spectral_range == pytest.approx(2 * full.free_spectral_range, rel=1e-12)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ConfigError):
            etalon_from_geometry(0.0, 0.0, 0.9)


class TestJsa:
    def test_flat_depends_only_on_sum(self):
        setup = fig3_setup()
        grid = FrequencyGrid(32, 3 * FIG3_FILTER.intensity_sigma)
        # constant along anti-diagonals (nu_s + nu_i fixed)
        mags = np.abs(build_jsa(setup, grid))
        assert mags[5, 10] == pytest.approx(mags[7, 8], rel=1e-12)
        assert mags[3, 8] == pytest.approx(mags[5, 6], rel=1e-12)

    def test_exchange_symmetric(self):
        setup = fig3_setup()
        grid = FrequencyGrid(64, 3 * FIG3_FILTER.intensity_sigma)
        phi = build_jsa(setup, grid)
        assert np.array_equal(phi, phi.T)

    def test_cw_limit_concentrates_on_anti_diagonal(self):
        grid = FrequencyGrid(64, 3 * FIG3_FILTER.intensity_sigma)
        mags = {}
        for duration in (1.4, 14.0):
            pump = PumpSpec(duration_fwhm=duration)
            setup = OpticalSetup(pump=pump, phase_matching=PhaseMatchingSpec(),
                                 filter=FIG3_FILTER, etalon=EtalonSpec(enabled=False),
                                 spdc_center_wavelength=786.0)
            phi = build_jsa(setup, grid)
            mags[duration] = abs(phi[40, 40])  # off the anti-diagonal
        assert mags[14.0] < mags[1.4]

    def test_rejects_degenerate_grid(self):
        class OnePoint:
            def axis(self):
                return np.array([0.0])

        with pytest.raises(ConfigError):
            build_jsa(fig3_setup(), OnePoint())
