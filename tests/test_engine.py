import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import combhom.engine as engine
from combhom import spectral
from combhom.config import preset_config
from combhom.engine import (DelaySweep, Engine, FrequencyGrid, convergence_report,
                            default_grid)
from combhom.errors import ConfigError, NumericalConsistencyError, ResolutionError
from combhom.spectral import (EtalonSpec, FilterSpec, OpticalSetup,
                              PhaseMatchingModel, PhaseMatchingSpec, PumpSpec,
                              etalon_from_geometry)


def make_setup(etalon=None, duration=1.4, model=PhaseMatchingModel.FLAT, **pm_kwargs):
    return OpticalSetup(
        pump=PumpSpec(duration_fwhm=duration),
        phase_matching=PhaseMatchingSpec(model=model, **pm_kwargs),
        filter=FilterSpec(center_wavelength=786.0, fwhm=10.0),
        etalon=etalon if etalon is not None else EtalonSpec(enabled=False),
        spdc_center_wavelength=786.0)


def small_grid(setup, points=512):
    return default_grid(setup, points=points)


HOM_SETUP = make_setup()
FIG3A_SETUP = make_setup(etalon=etalon_from_geometry(100.0, 0.0, 0.9, 0.0))
SINC_SETUP = make_setup(etalon=FIG3A_SETUP.etalon, model=PhaseMatchingModel.SINC,
                        crystal_length=3.0, sum_coefficient=0.05, difference_coefficient=0.1)


class TestGrid:
    def test_axis_symmetric_midpoints(self):
        grid = FrequencyGrid(16, 8.0)
        nu = grid.axis()
        assert np.array_equal(nu, -nu[::-1])
        assert grid.spacing == pytest.approx(1.0)
        assert 0.0 not in nu

    @pytest.mark.parametrize("points,span", [(15, 1.0), (14, 1.0), (17, 1.0), (16, 0.0)])
    def test_validation(self, points, span):
        with pytest.raises(ConfigError):
            FrequencyGrid(points, span)

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            DelaySweep(1.0, 0.0, 10)
        with pytest.raises(ConfigError):
            DelaySweep(0.0, 1.0, 1)


class TestBaseline:
    def test_positive(self):
        assert Engine(HOM_SETUP, small_grid(HOM_SETUP)).baseline > 0.0

    def test_refuses_unresolved_comb(self):
        grid = FrequencyGrid(16, 5 * FIG3A_SETUP.filter.intensity_sigma)
        with pytest.raises(ResolutionError):
            Engine(FIG3A_SETUP, grid)

    def test_zero_reflectivity_matches_disabled(self):
        et0 = EtalonSpec(enabled=True, reflectivity=0.0,
                         round_trip_time=FIG3A_SETUP.etalon.round_trip_time)
        with_et = make_setup(etalon=et0)
        grid = small_grid(with_et)
        assert Engine(with_et, grid).baseline == pytest.approx(
            Engine(HOM_SETUP, grid).baseline, rel=1e-12)

    def test_keeps_no_grid_array(self):
        # after assembly only the baseline and the O(n) profile h(u) remain
        eng = Engine(FIG3A_SETUP, small_grid(FIG3A_SETUP, points=256))
        assert all(np.ndim(value) <= 1 for value in vars(eng).values())
        u, h = eng.profile()
        assert u.shape == h.shape == (2 * 256 - 1,)

    def test_assembly_memory_stays_off_the_grid(self):
        # an n x n complex array alone would be 256 MiB at n = 4096
        grid = FrequencyGrid(4096, default_grid(FIG3A_SETUP).span)
        tracemalloc.start()
        try:
            Engine(FIG3A_SETUP, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_grid_doubling_converged(self):
        grid = small_grid(FIG3A_SETUP, points=1024)
        fine = FrequencyGrid(2048, grid.span)
        b, bf = Engine(FIG3A_SETUP, grid).baseline, Engine(FIG3A_SETUP, fine).baseline
        assert abs(b / bf - 1.0) < 1e-4


class TestCoincidence:
    def test_full_dip_at_zero_delay(self):
        eng = Engine(HOM_SETUP, small_grid(HOM_SETUP))
        b = eng.baseline
        assert eng.interference(0.0) == pytest.approx(b, rel=1e-10)
        assert eng.rate(0.0) <= 1e-9 * b

    def test_far_delay_recovers_baseline(self):
        eng = Engine(HOM_SETUP, small_grid(HOM_SETUP))
        b = eng.baseline
        assert eng.rate(20.0) == pytest.approx(b, rel=1e-2)

    def test_normalization_far_delay_with_etalon(self):
        eng = Engine(FIG3A_SETUP, small_grid(FIG3A_SETUP, points=1024))
        b = eng.baseline
        for tau in (-20.0, 20.0):
            assert eng.rate(tau) == pytest.approx(b, rel=1e-2)

    def test_etalon_dip_persists_at_one_round_trip(self):
        eng = Engine(FIG3A_SETUP, small_grid(FIG3A_SETUP, points=1024))
        t = FIG3A_SETUP.etalon.round_trip_time
        assert eng.interference(t) > 0.0


class TestSweeps:
    def test_two_step_sweep_equals_point_calls(self):
        eng = Engine(HOM_SETUP, small_grid(HOM_SETUP, points=256))
        sweep = DelaySweep(-0.2, 0.4, 2)
        trace = eng.sweep(sweep, direct=True)
        expected = [eng.rate(t) for t in (-0.2, 0.4)]
        assert trace.raw_rate.tolist() == expected

    def test_no_etalon_trace_even_in_delay(self):
        grid = small_grid(HOM_SETUP, points=256)
        trace = Engine(HOM_SETUP, grid).sweep(DelaySweep(-1.0, 1.0, 81), direct=True)
        assert trace.normalized_rate == pytest.approx(trace.normalized_rate[::-1], abs=1e-9)

    def test_no_etalon_single_minimum(self):
        grid = small_grid(HOM_SETUP, points=256)
        trace = Engine(HOM_SETUP, grid).sweep(DelaySweep(-2.0, 2.0, 201))
        n = trace.normalized_rate
        # far wings carry quadrature ripple ~1e-7; only count resolved minima
        interior = np.flatnonzero((n[1:-1] < n[:-2]) & (n[1:-1] < n[2:]))
        resolved = interior[n[interior + 1] < 0.99]
        assert resolved.size == 1
        assert abs(trace.tau[resolved[0] + 1]) < 0.05

    def test_fft_matches_direct(self):
        eng = Engine(FIG3A_SETUP, small_grid(FIG3A_SETUP, points=512))
        # the second sweep takes the dense sum through three blocks of delays
        for steps in (173, 2 * engine.DENSE_BLOCK_DELAYS + 188):
            sweep = DelaySweep(-0.5, 2.0, steps)
            direct = eng.sweep(sweep, direct=True)
            fast = eng.sweep(sweep)
            assert np.abs(fast.normalized_rate - direct.normalized_rate).max() < 1e-6
            assert fast.metadata["engine"] == "fft"

    @pytest.mark.parametrize("setup,points", [
        pytest.param(FIG3A_SETUP, 512, id="fig3a"),
        pytest.param(HOM_SETUP, 512, id="hom"),
        pytest.param(SINC_SETUP, 512, id="sinc"),
        pytest.param(make_setup(etalon=replace(FIG3A_SETUP.etalon, reflectivity=0.98),
                                duration=20.0), 512, id="narrow-band-r98"),
        pytest.param(make_setup(etalon=FIG3A_SETUP.etalon, duration=0.02), 512,
                     id="band-covers-grid"),
        pytest.param(HOM_SETUP, 16, id="hom-n16"),
        pytest.param(HOM_SETUP, 18, id="hom-n18"),
        pytest.param(FIG3A_SETUP, 514, id="fig3a-n514"),
        pytest.param(replace(SINC_SETUP, pump=PumpSpec(duration_fwhm=0.2)), 512,
                     id="sinc-0.2ps-pump")])
    def test_every_path_matches_2d_reference(self, setup, points, midpoint_reference):
        # the banded collapse onto h(u) against a plain 2-D midpoint sum over
        # the whole grid; a 20 ps pump keeps a band of a few cells, a 0.02 ps
        # pump a band wider than the grid.  n = 16 and 18 start the band on
        # either parity of a + b and leave the dense sum's phase table with
        # two padding cells and none.
        grid = small_grid(setup, points=points)
        sweep = DelaySweep(-0.5, 2.0, 173)
        baseline, integral = midpoint_reference(setup, grid, sweep.delays())
        expected = baseline - integral.real
        eng = Engine(setup, grid)
        point = np.array([eng.interference(t) for t in sweep.delays()])
        assert np.abs(point - integral.real).max() < 1e-9 * baseline
        for direct in (True, False):
            raw = eng.sweep(sweep, direct=direct).raw_rate
            assert np.abs(raw - expected).max() < 1e-9 * baseline

    def test_grid_edges_count_in_full(self, midpoint_reference):
        # a span of one filter sigma keeps the filter at e^{-1/2} of its peak on
        # the grid's edge, so a cell dropped or doubled there shows
        setup = make_setup(duration=0.02)
        grid = FrequencyGrid(64, setup.filter.intensity_sigma)
        tau = np.linspace(-2.0, 2.0, 41)
        baseline, integral = midpoint_reference(setup, grid, tau)
        eng = Engine(setup, grid)
        assert eng.baseline == pytest.approx(baseline, rel=1e-12)
        point = np.array([eng.interference(t) for t in tau])
        assert np.abs(point - integral.real).max() < 1e-12 * baseline

    def test_peak_is_taken_on_the_grid(self, monkeypatch, midpoint_reference):
        # phase matching 1e3 off the grid (|S| + |D| > 2 span), where the band's
        # blocks reach past the grid's corners, must not set phi's normalisation
        setup = make_setup(duration=0.02)
        grid = small_grid(setup, points=64)

        def off_grid_spike(s, d, pm):
            return np.where(np.abs(s) + np.abs(d) > 2.0 * grid.span + 0.5 * grid.spacing,
                            1e3 + 0j, 1.0 + 0j)

        monkeypatch.setattr(engine, "phase_matching", off_grid_spike)
        monkeypatch.setattr(spectral, "phase_matching", off_grid_spike)
        baseline, _ = midpoint_reference(setup, grid, [0.0])
        assert Engine(setup, grid).baseline == pytest.approx(baseline, rel=1e-12)

    def test_fft_mismatch_falls_back_to_direct(self, monkeypatch):
        monkeypatch.setattr(engine, "FFT_MATCH_TOL", 0.0)
        grid = small_grid(FIG3A_SETUP, points=512)
        trace = Engine(FIG3A_SETUP, grid).sweep(DelaySweep(-0.1, 0.5, 13))
        assert trace.metadata["engine"] == "direct"
        assert trace.metadata["fft_fallback"] is True

    def test_deterministic(self):
        grid = small_grid(FIG3A_SETUP, points=512)
        sweep = DelaySweep(-0.5, 2.0, 101)
        a = Engine(FIG3A_SETUP, grid).sweep(sweep)
        b = Engine(FIG3A_SETUP, grid).sweep(sweep)
        assert np.array_equal(a.raw_rate, b.raw_rate)
        assert np.array_equal(a.normalized_rate, b.normalized_rate)

    def test_non_finite_rate_refused(self):
        eng = Engine(HOM_SETUP, small_grid(HOM_SETUP, points=256))
        eng.profile()[1][0] = np.nan
        for direct in (False, True):
            with pytest.raises(NumericalConsistencyError, match="not finite"):
                eng.sweep(DelaySweep(-0.2, 0.4, 5), direct=direct)
        with pytest.raises(NumericalConsistencyError, match="not finite"):
            eng.rate(0.0)

    def test_non_hermitian_profile_refused(self):
        # h(-u) = conj h(u) makes the sum real; break it at one entry
        eng = Engine(FIG3A_SETUP, small_grid(FIG3A_SETUP, points=512))
        u, h = eng.profile()
        h[np.argmin(np.abs(u - 1.0))] += 1e-3j * eng.baseline
        sweep = DelaySweep(-0.5, 2.0, 101)
        for call in (lambda: eng.interference(0.3), lambda: eng.sweep(sweep, direct=True),
                     lambda: eng.sweep(sweep)):
            with pytest.raises(NumericalConsistencyError, match="not real"):
                call()

    def test_one_sided_features_with_etalon(self, preset_traces):
        _, trace = preset_traces["fig3a"]
        featured = np.abs(trace.normalized_rate - 1.0) > 0.05
        assert trace.tau[featured].min() >= -0.1


class TestDenseSum:
    @pytest.fixture(scope="class")
    def fig3a(self):
        cfg = preset_config("fig3a")
        return cfg, Engine(cfg.setup, cfg.grid)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is float64 on this platform (MSVC, macOS "
                               "arm64), so it gives no more precise reference")
    def test_matches_long_double_sum(self, fig3a):
        # Re sum_k h_k e^{-i k du tau} in extended precision, with u = k * grid.spacing
        cfg, eng = fig3a
        _, h = eng.profile()
        n = cfg.grid.points_per_axis
        u = np.arange(-(n - 1), n).astype(np.longdouble) * np.longdouble(cfg.grid.spacing)
        re, im = h.real.astype(np.longdouble), h.imag.astype(np.longdouble)
        for tau in np.linspace(-0.5, 3.5, 21):
            phase = u * (np.longdouble(tau) + np.longdouble(eng.delay_offset))
            exact = float(np.sum(re * np.cos(phase) + im * np.sin(phase)))
            assert abs(eng.interference(tau) - exact) <= 1e-14 * eng.baseline

    def test_conjugate_phases_keep_the_sum_real(self, fig3a, monkeypatch):
        # end to end: a whole direct fig3a sweep keeps |Im| under 1e-14 of the
        # baseline.  A one-sided phase split stays under this too (1.3e-15);
        # test_hermitian_pair_sums_to_a_real_number is the check that catches it
        cfg, eng = fig3a
        monkeypatch.setattr(engine, "IMAG_RESIDUE_TOL", 1e-14)
        assert eng.sweep(cfg.sweep, direct=True).metadata["engine"] == "direct"

    @pytest.mark.parametrize("k", [1, 40, 511])
    def test_hermitian_pair_sums_to_a_real_number(self, monkeypatch, k):
        # h(-u) = conj h(u) at one pair +-k du only: with conjugate phases the
        # two terms are exact conjugates and the imaginary part is exactly 0
        eng = Engine(FIG3A_SETUP, small_grid(FIG3A_SETUP, points=512))
        u, h = eng.profile()
        mid = h.size // 2
        h[:] = 0.0
        h[mid + k], h[mid - k] = 0.3 - 0.7j, 0.3 + 0.7j
        monkeypatch.setattr(engine, "IMAG_RESIDUE_TOL", 0.0)
        for tau in (-0.37, 0.0, 1.9, 3.3):
            phase = u[mid + k] * (tau + eng.delay_offset)
            expected = 2.0 * (0.3 * math.cos(phase) - 0.7 * math.sin(phase))
            assert eng.interference(tau) == pytest.approx(expected, abs=1e-12)

    def test_blocks_of_delays_equal_point_calls(self):
        eng = Engine(FIG3A_SETUP, small_grid(FIG3A_SETUP, points=512))
        sweep = DelaySweep(-0.5, 2.0, 2 * engine.DENSE_BLOCK_DELAYS + 188)
        tau, raw = sweep.delays(), eng.sweep(sweep, direct=True).raw_rate
        for i in (0, 255, 256, tau.size - 1):
            assert raw[i] == eng.rate(tau[i])


class TestChirpZ:
    @pytest.mark.parametrize("size,m", [(600, 173), (1000, 1000), (4095, 600), (37, 150)],
                             ids=["m<n", "m=n", "fig3a", "m>n"])
    def test_matches_scipy(self, rng, size, m):
        from scipy.signal import czt as scipy_czt
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        w = np.exp(-1j * rng.uniform(1e-4, 1e-2))
        got = engine.czt(x, m, w)
        assert got.shape == (m,)
        assert np.abs(got - scipy_czt(x, m=m, w=w)).max() < 1e-13 * np.abs(x).sum()

    def test_cli_import_leaves_scipy_out(self):
        code = ("import sys, combhom.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(engine.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == "[]"


class TestConvergence:
    def test_coarse_grid_fails(self):
        grid = FrequencyGrid(32, 5 * HOM_SETUP.filter.intensity_sigma)
        sweep = DelaySweep(-0.5, 3.5, 60)
        report = convergence_report(HOM_SETUP, sweep, grid, Engine(HOM_SETUP, grid).sweep(sweep))
        assert not report.passed

    def test_default_grid_passes(self, preset_traces):
        cfg, _ = preset_traces["fig3a"]
        sweep = DelaySweep(-0.5, 3.5, 60)
        report = convergence_report(cfg.setup, sweep, cfg.grid,
                                    Engine(cfg.setup, cfg.grid).sweep(sweep))
        assert report.passed

    def test_sinc_with_tiny_coefficients_matches_flat(self):
        sinc = make_setup(etalon=FIG3A_SETUP.etalon, model=PhaseMatchingModel.SINC,
                          crystal_length=3.0, sum_coefficient=2e-5,
                          difference_coefficient=2e-5)
        grid = small_grid(FIG3A_SETUP, points=1024)
        sweep = DelaySweep(-0.5, 2.0, 101)
        a = Engine(FIG3A_SETUP, grid).sweep(sweep)
        b = Engine(sinc, grid).sweep(sweep)
        assert np.abs(a.normalized_rate - b.normalized_rate).max() < 1e-3
