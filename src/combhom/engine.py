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

The pump enters both integrands as pump(S)^2, S = nu_s + nu_i, so only the
band |S| <= S_max of the grid is visited: the baseline and h(u) are summed
cell by cell over the band, in blocks of diagonals, and no n x n array is
formed.

Delay convention: positive tau is extra idler path delay.  The etalon's
single-pass (half round-trip) delay is absorbed into the tau origin, so the
ordinary HOM dip sits at tau = 0 and recurrences at tau_j = j T / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalConsistencyError, ResolutionError
from .spectral import (OpticalSetup, etalon_transfer, filter_amplitude, phase_matching,
                       pump_envelope)

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
# Diagonals per block of the banded assembly.
DIAGONAL_BLOCK = 256
# Largest sup-norm shift of the normalized trace a converged grid allows.
CONVERGENCE_TOL = 1e-4

DEFAULT_POINTS = 2048
DEFAULT_SPAN_SIGMAS = 5.0


def _band_half_width(setup: OpticalSetup, spacing: float, n: int) -> int:
    """Half-width k, in grid steps of S = nu_s + nu_i, of the band the assembly visits.

    Beyond S_max, pump(S)^2 = exp(-S^2 / (2 sigma_p^2)) <= 1e-16 ((1-R)/(1+R))^2.
    With |phase matching| <= 1 and |f_e| <= 1, the dropped cells then weigh at
    most 1e-16 ((1-R)/(1+R))^2 sum f2(s) f2(i) in the baseline and in h(u),
    while |f_e|^2 >= ((1-R)/(1+R))^2 keeps the baseline at least
    ((1-R)/(1+R))^2 sum_band pump^2 |phase matching|^2 f2(s) f2(i).
    """
    r = setup.etalon.reflectivity if setup.etalon.enabled else 0.0
    s_max = setup.pump.spectral_sigma * math.sqrt(
        2.0 * (16.0 * math.log(10.0) + 2.0 * math.log((1.0 + r) / (1.0 - r))))
    return int(min(s_max / spacing, 2 * n))


def czt(x: np.ndarray, m: int, w: complex) -> np.ndarray:
    """Chirp-z transform X_k = sum_j x_j w^(j k), k < m, by Bluestein's algorithm:
    w^(j k) = w^(j^2/2) w^(k^2/2) w^(-(k-j)^2/2) turns it into one convolution,
    done with three FFTs of a power-of-two length >= x.size + m - 1."""
    x = np.asarray(x)
    size = x.size
    chirp = w ** (np.arange(max(m, size)) ** 2 / 2.0)
    length = 1 << (size + m - 2).bit_length()
    kernel = np.fft.fft(1.0 / np.concatenate([chirp[size - 1:0:-1], chirp[:m]]), length)
    y = np.fft.ifft(np.fft.fft(x * chirp[:size], length) * kernel)
    return y[size - 1:size - 1 + m] * chirp[:m]


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
        n = nu.size
        f2 = filter_amplitude(nu, setup.filter) ** 2
        fe = etalon_transfer(nu, setup.etalon, setup.center_frequency)
        # one trailing zero each: a block's padding cells index it and add nothing
        w = np.append(f2 * np.abs(fe) ** 2, 0.0)
        g = np.append(f2 * fe, 0.0)
        gc = np.conj(g)
        f2 = np.append(f2, 0.0)
        # Cell (a, b) has S = (p - n + 1) h with p = a + b; the band keeps |p - n + 1| <= k.
        k = _band_half_width(setup, grid.spacing, n)
        p_min, p_max = max(0, n - 1 - k), min(2 * n - 2, n - 1 + k)
        s_band = (np.arange(p_min, p_max + 1) - (n - 1)) * grid.spacing
        pump2 = pump_envelope(s_band, setup.pump) ** 2
        # a fixed diagonal order keeps the sums reproducible
        offsets = np.arange(n - 1, -n, -1)  # u ascending; diagonal o holds the cells (a, a + o)
        self._u = -offsets * (nu[1] - nu[0])
        h, base, peak2 = [], 0.0, 0.0
        for first in range(0, offsets.size, DIAGONAL_BLOCK):
            o = offsets[first:first + DIAGONAL_BLOCK, None]
            # p runs in steps of 2 over the band, clipped to the grid: 0 <= (p -+ o)/2 < n
            lo = np.maximum(np.abs(o), p_min)
            lo += (lo - o) % 2
            count = (np.minimum(2 * n - 2 - np.abs(o), p_max) - lo) // 2 + 1
            j = np.arange(count.max())
            p = lo + 2 * j
            valid = j < count
            a = np.where(valid, (p - o) // 2, n)
            b = np.where(valid, (p + o) // 2, n)
            band = np.minimum(p, p_max) - p_min
            s, d = s_band[band], -o * grid.spacing  # nu_s + nu_i, nu_s - nu_i
            amp = phase_matching(s, d, setup.phase_matching)
            cross = np.conj(phase_matching(s, -d, setup.phase_matching))
            amp2 = pump2[band] * np.abs(amp) ** 2
            peak2 = max(peak2, float(np.max(amp2, where=valid, initial=0.0)))
            base += float(np.sum(amp2 * w[a] * f2[b]))
            cross *= amp
            cross *= pump2[band]
            cross *= g[a]
            cross *= gc[b]
            h.append(cross.sum(axis=1))
        if peak2 == 0.0:
            raise ConfigError("joint spectral amplitude vanishes everywhere on the grid")
        # phi = pump * phase matching, normalised to peak magnitude 1 over the band
        weight = 0.25 * grid.spacing**2 / peak2
        self.baseline = weight * base
        if not 0.0 < self.baseline < np.inf:
            raise NumericalConsistencyError(f"baseline rate {self.baseline:.6e} is not finite and > 0")
        self._h = weight * np.concatenate(h)
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
