"""Coincidence-rate engine.

Evaluates

    R_c(tau) = 1/4 * int dnu_s dnu_i F(nu_s) F(nu_i)
               { |phi|^2 |f_e(nu_s)|^2
                 - Re[ phi(nu_s,nu_i) phi*(nu_i,nu_s) f_e(nu_s) f_e*(nu_i)
                       e^{-i (nu_s - nu_i) tau} ] }

by midpoint quadrature on a uniform square detuning grid.  The first term is
the tau-independent baseline used for normalization.  The second is the cross
integrand summed over its diagonals of constant u = nu_s - nu_i into a profile
h(u), then Re sum_u h(u) e^{-i u tau}: a dense sum over u, or for full sweeps
a chirp-z transform.

Delay convention: positive tau is extra idler path delay.  The etalon's
single-pass (half round-trip) delay is absorbed into the tau origin, so the
ordinary HOM dip sits at tau = 0 and recurrences at tau_j = j T / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import czt

from .errors import ConfigError, NumericalConsistencyError, ResolutionError
from .spectral import OpticalSetup, build_jsa, etalon_transfer, filter_amplitude

# Tolerances of the engine's internal self-checks, relative to the baseline.
IMAG_RESIDUE_TOL = 1e-9
NEGATIVE_RATE_TOL = 1e-9
# Maximum relative sup-norm discrepancy tolerated between the fast and the
# direct path before the fast path falls back.
FFT_MATCH_TOL = 1e-6
# Delays of a fast sweep spot-checked against the dense sum over h(u).
FFT_CHECK_POINTS = 8
# Delays per block of the dense sum: its (block, 2n - 1) phase matrix stays
# near 16 MB at n = 2048 however many delays a sweep has.
DENSE_BLOCK_DELAYS = 256
# Largest sup-norm shift of the normalized trace a converged grid allows.
CONVERGENCE_TOL = 1e-4

DEFAULT_POINTS = 2048
DEFAULT_SPAN_SIGMAS = 5.0


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform midpoint grid for the (nu_s, nu_i) detunings.

    points_per_axis must be even (anti-diagonal collapse) and >= 16;
    span is the half-width around zero detuning in rad/ps.
    """

    points_per_axis: int
    span: float

    def __post_init__(self):
        if self.points_per_axis < 16 or self.points_per_axis % 2 != 0:
            raise ConfigError(
                f"FrequencyGrid: points_per_axis must be even and >= 16, got {self.points_per_axis}")
        if not 0 < self.span < np.inf:
            raise ConfigError(f"FrequencyGrid: span must be finite and > 0, got {self.span}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.span / self.points_per_axis

    def axis(self) -> np.ndarray:
        """Cell-center samples, symmetric about zero detuning."""
        n = self.points_per_axis
        return (np.arange(n) - 0.5 * n + 0.5) * self.spacing


def default_grid(setup: OpticalSetup, points: int = DEFAULT_POINTS) -> FrequencyGrid:
    """Grid spanning +-DEFAULT_SPAN_SIGMAS filter intensity standard deviations."""
    return FrequencyGrid(points_per_axis=points,
                         span=DEFAULT_SPAN_SIGMAS * setup.filter.intensity_sigma)


@dataclass(frozen=True)
class DelaySweep:
    start: float  # ps
    end: float    # ps
    steps: int

    def __post_init__(self):
        if not -np.inf < self.start < self.end < np.inf:
            raise ConfigError(
                f"DelaySweep: start must be < end, both finite, got [{self.start}, {self.end}]")
        if self.steps < 2:
            raise ConfigError(f"DelaySweep: steps must be >= 2, got {self.steps}")

    def delays(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps)


@dataclass(frozen=True)
class CoincidenceTrace:
    """A delay sweep of the coincidence rate, raw and baseline-normalized."""

    tau: np.ndarray
    raw_rate: np.ndarray
    normalized_rate: np.ndarray
    baseline_rate: float
    metadata: dict = field(default_factory=dict)


class Engine:
    """The baseline and the profile h(u) of one (setup, grid), assembled once.

    `interference`, `rate` and `sweep(direct=True)` are the dense sum over h(u);
    `sweep` is its chirp-z transform.
    """

    def __init__(self, setup: OpticalSetup, grid: FrequencyGrid):
        if setup.etalon.enabled:
            fsr = setup.etalon.free_spectral_range
            if grid.spacing > fsr / 8.0:
                raise ResolutionError(
                    f"grid spacing {grid.spacing:.4g} rad/ps does not resolve the etalon "
                    f"(needs <= FSR/8 = {fsr / 8.0:.4g} rad/ps)")
        nu = grid.axis()
        weight = 0.25 * grid.spacing**2
        f2 = filter_amplitude(nu, setup.filter) ** 2
        fe = etalon_transfer(nu, setup.etalon, setup.center_frequency)
        phi = build_jsa(setup, grid)

        abs2 = np.abs(phi) ** 2
        self.baseline = weight * float((f2 * np.abs(fe) ** 2) @ abs2 @ f2)
        del abs2
        if not 0.0 < self.baseline < np.inf:
            raise NumericalConsistencyError(f"baseline rate {self.baseline:.6e} is not finite and > 0")
        cross = phi * np.conj(phi.T)
        cross *= (f2 * fe)[:, None]
        cross *= (f2 * np.conj(fe))[None, :]
        cross *= weight
        # a fixed diagonal order keeps the sums reproducible
        offsets = np.arange(nu.size - 1, -nu.size, -1)  # u ascending
        self._h = np.array([cross.diagonal(o).sum() for o in offsets])
        self._u = -offsets * (nu[1] - nu[0])
        self.grid = grid
        # added to tau: half round-trip calibration
        self.delay_offset = 0.5 * setup.etalon.round_trip_time if setup.etalon.enabled else 0.0

    def interference(self, tau: float) -> float:
        """Real part of the cross integral at one delay, with Hermiticity check."""
        return float(self._dense(np.array([tau]))[0])

    def rate(self, tau: float) -> float:
        """R_c at one delay: baseline minus interference, clamped at round-off zero."""
        taus = np.array([tau])
        return float(self._trace(taus, self.baseline - self._dense(taus), {}).raw_rate[0])

    def profile(self):
        """The stored (u, h), u ascending: h(u_k) is the cross integrand summed
        over the diagonal of constant nu_s - nu_i = u_k."""
        return self._u, self._h

    def sweep(self, sweep: DelaySweep, direct: bool = False) -> CoincidenceTrace:
        """The coincidence trace over a delay sweep.

        The fast path is a chirp-z transform of h(u), spot-checked at
        FFT_CHECK_POINTS delays against the dense sum over h(u).  Beyond
        FFT_MATCH_TOL relative sup-norm discrepancy the whole sweep falls back
        to the dense sum, which `direct` runs, and the metadata records it.
        """
        tau = sweep.delays()
        if direct:
            return self._trace(tau, self.baseline - self._dense(tau), {"engine": "direct"})
        raw = self.baseline - self._interference_all(tau)
        idx = np.unique(np.linspace(0, tau.size - 1, min(FFT_CHECK_POINTS, tau.size)).astype(int))
        ref = self.baseline - self._dense(tau[idx])
        scale = max(np.abs(ref).max(), self.baseline)
        mismatch = float(np.abs(raw[idx] - ref).max() / scale)
        if mismatch > FFT_MATCH_TOL:
            return self._trace(tau, self.baseline - self._dense(tau), {
                "engine": "direct", "fft_fallback": True, "fft_check_mismatch": mismatch})
        return self._trace(tau, raw, {"engine": "fft", "fft_check_mismatch": mismatch})

    def _dense(self, tau: np.ndarray) -> np.ndarray:
        """Re sum_u h(u) e^{-iu(tau + offset)} at each delay, in blocks of delays;
        refuses an imaginary part above IMAG_RESIDUE_TOL of the baseline, since
        h(-u) = conj h(u) makes the exact sum real."""
        tau_eff = tau + self.delay_offset
        value = np.concatenate([np.exp(-1j * np.outer(tau_eff[k:k + DENSE_BLOCK_DELAYS], self._u))
                                @ self._h for k in range(0, tau.size, DENSE_BLOCK_DELAYS)])
        worst = int(np.argmax(np.abs(value.imag)))
        if abs(value.imag[worst]) > IMAG_RESIDUE_TOL * self.baseline:
            raise NumericalConsistencyError(
                f"interference integral is not real at tau={tau[worst]}: "
                f"imag={value.imag[worst]:.3e} (baseline {self.baseline:.3e})")
        return value.real

    def _interference_all(self, tau: np.ndarray) -> np.ndarray:
        """Interference term at every delay of a uniform sweep, by chirp-z over h(u)."""
        u, h = self.profile()
        tau_eff = tau + self.delay_offset
        du = u[1] - u[0]
        step = tau[1] - tau[0]
        g = h * np.exp(-1j * (u - u[0]) * tau_eff[0])
        spectrum = czt(g, m=tau.size, w=np.exp(-1j * du * step))
        return (np.exp(-1j * u[0] * tau_eff) * spectrum).real

    def _trace(self, tau: np.ndarray, raw: np.ndarray, extra: dict) -> CoincidenceTrace:
        """The trace of raw rates: refuses non-finite or negative ones, zeroes round-off."""
        if not np.isfinite(raw).all():
            raise NumericalConsistencyError("coincidence rate is not finite")
        floor = -NEGATIVE_RATE_TOL * self.baseline
        low = raw.min()
        if low < floor:
            raise NumericalConsistencyError(
                f"coincidence rate {low:.6e} below the round-off floor {floor:.3e}; "
                f"the quadrature is inconsistent")
        raw = np.where(raw < 0.0, 0.0, raw)
        meta = {"points_per_axis": self.grid.points_per_axis, "span": self.grid.span,
                "spacing": self.grid.spacing, **extra}
        return CoincidenceTrace(tau=tau, raw_rate=raw, normalized_rate=raw / self.baseline,
                                baseline_rate=self.baseline, metadata=meta)


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-test: normalized-trace shifts under grid refinement and widening."""

    delta_points: float   # sup-norm change when doubling points per axis
    delta_span: float     # sup-norm change when widening the span by 1.5x
    tolerance: float
    passed: bool


def convergence_report(setup: OpticalSetup, sweep: DelaySweep, grid: FrequencyGrid,
                       base: CoincidenceTrace) -> ConvergenceReport:
    """Sup-norm shifts of `base`, the normalized trace on `grid`, under grid
    refinement and widening."""
    fine = FrequencyGrid(points_per_axis=2 * grid.points_per_axis, span=grid.span)
    wide = FrequencyGrid(points_per_axis=grid.points_per_axis, span=1.5 * grid.span)
    d_points = float(np.abs(Engine(setup, fine).sweep(sweep).normalized_rate
                            - base.normalized_rate).max())
    d_span = float(np.abs(Engine(setup, wide).sweep(sweep).normalized_rate
                          - base.normalized_rate).max())
    return ConvergenceReport(delta_points=d_points, delta_span=d_span,
                             tolerance=CONVERGENCE_TOL,
                             passed=d_points < CONVERGENCE_TOL and d_span < CONVERGENCE_TOL)
