"""Independent reference computations used only for verification.

Nothing here reuses the quadrature engine or the firing-scheme formulas; each
oracle is derived separately (closed form, geometric series, or literal
amplitude enumeration) so it can arbitrate the implementations it checks.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConfigError
from .spectral import (EtalonSpec, FilterSpec, OpticalSetup, PhaseMatchingModel,
                       PhaseMatchingSpec, PumpSpec, etalon_from_geometry,
                       etalon_transfer)

MAX_BRUTE_FORCE_INDEX = 12
PARSEVAL_POINTS = 1 << 16


def hom_closed_form_params(setup: OpticalSetup) -> tuple[float, float]:
    """(visibility, width) of the no-etalon HOM dip, derived in closed form.

    With flat phase matching and Gaussian pump and filters, the double
    integral separates in the sum/difference detunings.  The delay phase only
    couples to the difference coordinate, where the integrand is
    exp(-u^2 / (4 sigma_f^2)); its Fourier transform gives

        normalized rate = 1 - exp(-sigma_f^2 tau^2)

    i.e. unit visibility and Gaussian width s = 1 / (sqrt(2) sigma_f), with
    sigma_f the filter intensity standard deviation.  The pump width cancels
    between the two terms.
    """
    if setup.etalon.enabled:
        raise ConfigError("closed-form HOM oracle requires the etalon to be disabled")
    if setup.phase_matching.model is not PhaseMatchingModel.FLAT:
        raise ConfigError("closed-form HOM oracle requires flat phase matching")
    sigma_f = setup.filter.intensity_sigma
    return 1.0, 1.0 / (math.sqrt(2.0) * sigma_f)


def hom_closed_form(setup: OpticalSetup, tau) -> np.ndarray:
    """Normalized no-etalon coincidence rate 1 - V exp(-tau^2 / (2 s^2))."""
    visibility, width = hom_closed_form_params(setup)
    tau = np.asarray(tau, dtype=float)
    return 1.0 - visibility * np.exp(-tau**2 / (2.0 * width * width))


SERIES_TOLERANCE = 1e-12


def etalon_series_tail_bound(reflectivity: float, terms: int) -> float:
    """Bound on the truncation error of the normalized rate of etalon_series_trace.

    Keeping m, m' < M of the double series drops interference terms of total
    weight at most e = 2 R^M and baseline terms of at most e / (1 + R), both
    in units of the etalon-free baseline.  The baseline itself is at least
    beta = ((1-R)/(1+R))^2 of that (the minimum of |f_e|^2), so the error of
    1 - I/B is at most 2 e / (beta - e) while e < beta, and unbounded otherwise.
    """
    e = 2.0 * reflectivity**terms
    beta = ((1.0 - reflectivity) / (1.0 + reflectivity)) ** 2
    return 2.0 * e / (beta - e) if e < beta else math.inf


def etalon_series_trace(setup: OpticalSetup, tau, terms: int | None = None) -> np.ndarray:
    """Normalized coincidence rate with the etalon, as a series of Gaussian integrals.

    With flat phase matching and Gaussian pump and filters, expand the etalon
    amplitude as f_e(nu) = sum_m (1-R) R^m e^{i(m+1/2)phi}, phi = nu T + dphi.
    In the sum/difference detunings S = nu_s + nu_i, D = nu_s - nu_i the
    cross term of the (m, m') pair carries e^{i (m-m') (S T/2 + dphi)} and
    e^{i D ((m+m') T/2 - tau)} (the single-pass delay T/2 is absorbed in the
    tau origin, as in the engine), so it separates into two Gaussian integrals:

        I(tau) ~ (1-R)^2 sum_{m,m'} R^(m+m') cos((m-m') dphi)
                 gamma((m-m') T/2) g((m+m') T/2 - tau)

    with g(x) = exp(-sigma_f^2 x^2) the HOM dip shape of hom_closed_form and
    gamma(x) = exp(-x^2 sigma_f^2 sigma_p^2 / (sigma_p^2 + 2 sigma_f^2)) the
    sum-frequency coherence (sigma_p the pump field width).  The baseline
    is the Poisson-kernel series of |f_e|^2,

        B ~ (1-R)/(1+R) [1 + 2 sum_{l>=1} R^l cos(l dphi) gamma(l T/2) g(l T/2)],

    and the result is 1 - I/B.  Grouping the pairs by order j = m + m' puts a
    Gaussian dip or peak at tau_j = j T/2; where neighbouring orders do not
    overlap (g(T/2) << 1) its depth is

        depth_j = (1-R^2) R^j sum_{m=0..j} cos((j-2m) dphi) gamma((j-2m) T/2),

    so depth_0 = 1 - R^2 for any pump.  The series keeps m, m' < terms; the
    default takes the smallest count whose etalon_series_tail_bound (of order
    R^terms) is below SERIES_TOLERANCE.  Nothing here uses the quadrature grid.
    """
    if not setup.etalon.enabled:
        raise ConfigError("etalon series oracle requires an enabled etalon")
    if setup.phase_matching.model is not PhaseMatchingModel.FLAT:
        raise ConfigError("etalon series oracle requires flat phase matching")
    r = setup.etalon.reflectivity
    if terms is None:
        terms = 1
        while etalon_series_tail_bound(r, terms) > SERIES_TOLERANCE:
            terms += 1
    elif terms < 1:
        raise ConfigError(f"series needs at least one term, got {terms}")
    half_trip = 0.5 * setup.etalon.round_trip_time
    sigma_f2 = setup.filter.intensity_sigma ** 2
    sigma_p2 = setup.pump.spectral_sigma ** 2
    sum_rate = sigma_f2 * sigma_p2 / (sigma_p2 + 2.0 * sigma_f2)

    # c_l = cos(l dphi) gamma(l T/2) for |m - m'| = l < terms
    lag = np.arange(terms)
    c = np.cos(lag * setup.etalon.tune_phase) * np.exp(-sum_rate * (lag * half_trip) ** 2)
    overlap = np.exp(-sigma_f2 * (lag * half_trip) ** 2)
    baseline = 1.0 + 2.0 * np.sum((r ** lag * c * overlap)[1:])

    # Order j = m + m' collects l = m - m' in -L..L (step 2, parity of j) with
    # L = min(j, 2 terms - 2 - j); parity-wise prefix sums of c give its weight.
    prefix = np.empty_like(c)
    prefix[0::2] = np.cumsum(c[0::2])
    prefix[1::2] = np.cumsum(c[1::2])
    order = np.arange(2 * terms - 1)
    reach = np.minimum(order, 2 * terms - 2 - order)
    weight = 2.0 * prefix[reach] - np.where(reach % 2 == 0, c[0], 0.0)

    tau = np.asarray(tau, dtype=float)
    dips = np.exp(-sigma_f2 * (order * half_trip - tau[..., None]) ** 2)
    interference = (1.0 - r * r) * (dips @ (r ** order * weight))
    return 1.0 - interference / baseline


def etalon_impulse_train(etalon: EtalonSpec, n_pulses: int) -> list[tuple[float, complex]]:
    """Time-domain picture of the etalon: (delay m T, amplitude (1-R) R^m e^{i m dphi})."""
    if not etalon.enabled:
        raise ConfigError("impulse train requires an enabled etalon")
    r = etalon.reflectivity
    return [(m * etalon.round_trip_time,
             (1.0 - r) * r**m * cmath.exp(1j * m * etalon.tune_phase))
            for m in range(n_pulses)]


def geometric_intensity_sum(reflectivity: float) -> float:
    """Total transmitted intensity sum (1-R)^2 R^(2m) = (1-R)/(1+R)."""
    return (1.0 - reflectivity) / (1.0 + reflectivity)


def mean_transfer_intensity(etalon: EtalonSpec, center_frequency: float) -> float:
    """Numerical mean of |f_e|^2 over one free spectral range (Parseval check)."""
    fsr = etalon.free_spectral_range
    nu = (np.arange(PARSEVAL_POINTS) + 0.5) / PARSEVAL_POINTS * fsr
    return float(np.mean(np.abs(etalon_transfer(nu, etalon, center_frequency)) ** 2))


def brute_force_schemes(j: int, delta_phi: float, weights,
                        coherence_factor: float = 1.0) -> float:
    """Relative rate at delay index j by literal amplitude enumeration.

    For each scheme m the two interfering amplitudes are built explicitly:
    the first with weights[m], the second with weights[j-m] and a phase
    accumulated one round trip at a time.  Partial pump coherence mixes the
    coherent and incoherent scheme probabilities.  Deliberately independent of
    feynman.relative_rate, which this function arbitrates.
    """
    if j < 0:
        raise ConfigError(f"delay index must be >= 0, got {j}")
    if j > MAX_BRUTE_FORCE_INDEX:
        raise ConfigError(f"brute-force enumeration refuses j > {MAX_BRUTE_FORCE_INDEX}")
    if len(weights) < j + 1:
        raise ConfigError(f"need {j + 1} weights, got {len(weights)}")
    if not 0.0 <= coherence_factor <= 1.0:
        raise ConfigError(f"coherence factor must lie in [0, 1], got {coherence_factor}")

    step = cmath.exp(1j * delta_phi)
    coincident = 0.0
    incoherent = 0.0
    for m in range(j + 1):
        first = complex(weights[m])
        second = complex(weights[j - m])
        for _ in range(j - m):       # round trips of the second amplitude
            second *= step
        for _ in range(m):           # minus those of the first
            second /= step
        interfered = abs(first - second) ** 2
        separate = abs(first) ** 2 + abs(second) ** 2
        coincident += coherence_factor * interfered + (1.0 - coherence_factor) * separate
        incoherent += separate
    return coincident / incoherent


def high_r_reference_setup(delta_phi: float = 0.0) -> OpticalSetup:
    """Configuration in the regime where the firing-scheme model is exact.

    Near-unit mirror reflectivity and a pump much longer than the interesting
    delays, with the standard filter and etalon geometry; here the engine's
    feature signs must match the firing-scheme classifications.
    """
    return OpticalSetup(
        pump=PumpSpec(duration_fwhm=20.0),
        phase_matching=PhaseMatchingSpec(model=PhaseMatchingModel.FLAT),
        filter=FilterSpec(center_wavelength=786.0, fwhm=10.0),
        etalon=etalon_from_geometry(spacing_um=100.0, incidence_angle=0.0,
                                    reflectivity=0.98, tune_phase=delta_phi),
        spdc_center_wavelength=786.0,
    )
