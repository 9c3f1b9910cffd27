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
band |S| <= S_max of the grid is visited, and no n x n array is formed.  The
diagonals of one parity of b - a, cell (a, b), meet the band in the same
columns p = a + b; over a block of such diagonals the factors of a and of b
are read as strided views of zero-padded vectors, and the baseline and h(u)
are their products reduced with `np.einsum`.  The dense sum splits each
phase e^{-iu tau} into a coarse and a fine factor, so a delay takes about
2 sqrt(2n) exponentials instead of 2n - 1.

Delay convention: positive tau is extra idler path delay.  The etalon's
single-pass (half round-trip) delay is absorbed into the tau origin, so the
ordinary HOM dip sits at tau = 0 and recurrences at tau_j = j T / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# Delays per block of the dense sum: its phase tables, about 2 sqrt(2n)
# entries per delay, stay under 1 MB at n = 2048 however many delays a sweep has.
DENSE_BLOCK_DELAYS = 256
# Diagonals per block of the banded assembly, all of one parity of b - a: a
# block is DIAGONAL_BLOCK x (band cells per diagonal) cells.
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
        # Cell (a, b) has S = (p - n + 1) h with p = a + b; the band keeps |p - n + 1| <= k.
        k = _band_half_width(setup, grid.spacing, n)
        p_min, p_max = max(0, n - 1 - k), min(2 * n - 2, n - 1 + k)
        width = (p_max - p_min) // 2 + 1  # band cells p = p_0 + 2j of a diagonal, p_0 - p_min = 0 or 1

        def view(x):
            # row n + c, column j reads x[c + j], or 0 where c + j is off the grid
            pad = np.zeros_like(x)
            return sliding_window_view(np.concatenate([pad, x, pad]), width)

        w, f2, g, gc = (view(x) for x in (f2 * np.abs(fe) ** 2, f2, f2 * fe, np.conj(f2 * fe)))
        inside = view(np.ones(n, dtype=bool))
        self._u = np.arange(-(n - 1), n) * grid.spacing
        h = np.empty(2 * n - 1, dtype=complex)
        base, peak2 = 0.0, 0.0
        for first in (0, 1):
            # The diagonals o = b - a of one parity, u = -o h ascending.  On row r
            # (o = o_0 - 2r) and column j (p = p_0 + 2j), a = a_0 + r + j and
            # b = b_0 - r + j: the a factors are views with row step +1, the b ones -1
            # (with n zeros of padding no slice bound falls below 0).
            o = np.arange(n - 1 - first, -n, -2)
            p = p_min + (o[0] - p_min) % 2 + 2 * np.arange(width)
            a0, b0 = n + (p[0] - o[0]) // 2, n + (p[0] + o[0]) // 2
            s = (p - (n - 1)) * grid.spacing
            pump2 = np.where(p <= p_max, pump_envelope(s, setup.pump) ** 2, 0.0)
            for r in range(0, o.size, DIAGONAL_BLOCK):
                block = o[r:r + DIAGONAL_BLOCK]
                rows = block.size
                # the columns inside the grid on the block's row of least |o|
                near = np.abs(block).min()
                cols = slice(max(0, (near - p[0]) // 2),
                             min(width, (2 * n - 2 - near - p[0]) // 2 + 1))
                at_a = (slice(a0 + r, a0 + r + rows), cols)
                at_b = (slice(b0 - r, b0 - r - rows, -1), cols)
                d = (-block * grid.spacing)[:, None]  # nu_s - nu_i
                amp = phase_matching(s[cols], d, setup.phase_matching)
                cross = np.conj(phase_matching(s[cols], -d, setup.phase_matching))
                amp2 = pump2[cols] * np.abs(amp) ** 2
                in_grid = inside[at_a] & inside[at_b]
                peak2 = max(peak2, float(np.max(amp2, where=in_grid, initial=0.0)))
                base += float(np.einsum("rj,rj,rj->", amp2, w[at_a], f2[at_b]))
                cross *= amp
                cross *= pump2[cols]
                h[first + 2 * r:first + 2 * (r + rows):2] = np.einsum(
                    "rj,rj,rj->r", cross, g[at_a], gc[at_b])
        if peak2 == 0.0:
            raise ConfigError("joint spectral amplitude vanishes everywhere on the grid")
        # phi = pump * phase matching, normalised to peak magnitude 1 over the band
        weight = 0.25 * grid.spacing**2 / peak2
        self.baseline = weight * base
        if not 0.0 < self.baseline < np.inf:
            raise NumericalConsistencyError(f"baseline rate {self.baseline:.6e} is not finite and > 0")
        self._h = weight * h
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
        h(-u) = conj h(u) makes the exact sum real.

        With u = k du, |k| <= N, and k = K q + r, |r| <= R = isqrt(N / 2),
        K = 2R + 1, the phase e^{-iu tau} = e^{-i q K du tau} e^{-i r du tau}:
        each delay takes (2Q + 1) + K exponentials instead of 2N + 1.  The q
        and r ranges are symmetric, so the phases of k and -k are exact
        conjugates, and each delay's sum runs in an order of its own.
        """
        n_max = self._h.size // 2
        r_max = math.isqrt(n_max // 2)
        period = 2 * r_max + 1
        q_max = -(-(n_max - r_max) // period)
        # table[r + R, q + Q] = h(k du) with k = K q + r, zero beyond |k| <= N
        pad = q_max * period + r_max - n_max
        table = np.concatenate([np.zeros(pad), self._h, np.zeros(pad)])
        table = table.reshape(2 * q_max + 1, period).T
        fine = np.arange(-r_max, r_max + 1) * self.grid.spacing
        coarse = np.arange(-q_max, q_max + 1) * (period * self.grid.spacing)
        tau_eff = tau + self.delay_offset
        value = np.empty(tau.size, dtype=complex)
        for start in range(0, tau.size, DENSE_BLOCK_DELAYS):
            t = tau_eff[start:start + DENSE_BLOCK_DELAYS, None]
            partial = np.einsum("tr,rq->tq", np.exp(-1j * t * fine), table)
            value[start:start + DENSE_BLOCK_DELAYS] = np.einsum(
                "tq,tq->t", np.exp(-1j * t * coarse), partial)
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
        du = self.grid.spacing
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
