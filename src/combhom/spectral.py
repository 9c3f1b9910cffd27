"""Spectral elements of the interferometer.

Everything here is a complex-valued function of optical frequency, expressed
as an angular detuning (rad/ps) from the degenerate down-conversion center.
Keeping detunings near unity instead of absolute optical frequencies avoids
catastrophic cancellation in the delay phases downstream.

Conventions:
    - times in ps, angular frequencies in rad/ps
    - lengths enter in nm (wavelengths), um (etalon spacing), mm (crystal)
      and are converted at the boundary
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

# Speed of light in the unit systems used at the boundaries.
C_NM_PER_PS = 2.99792458e5
C_UM_PER_PS = 2.99792458e2

_TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))
_TWO_SQRT_2LN2 = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class PumpSpec:
    """Transform-limited Gaussian pump pulse, centred on half the SPDC wavelength.

    duration_fwhm: ps, intensity FWHM of the fundamental pulse whose second
        harmonic pumps the crystal
    """

    duration_fwhm: float

    def __post_init__(self):
        if not 0 < self.duration_fwhm < math.inf:
            raise ConfigError(f"PumpSpec: duration_fwhm must be finite and > 0, got {self.duration_fwhm}")

    @property
    def spectral_sigma(self) -> float:
        """Gaussian width sigma_p (rad/ps) of the pump field envelope exp(-w^2/(4 sigma_p^2))."""
        return _TWO_SQRT_LN2 / self.duration_fwhm

    @property
    def coherence_time(self) -> float:
        """1/sigma_p, the time scale over which pair birth times stay coherent (ps)."""
        return 1.0 / self.spectral_sigma


class PhaseMatchingModel(Enum):
    FLAT = "flat"
    SINC = "sinc"


@dataclass(frozen=True)
class PhaseMatchingSpec:
    """Phase-matching factor of the nonlinear crystal.

    FLAT ignores all other fields and returns unity (the filters are much
    narrower than the natural SPDC bandwidth).  SINC evaluates
    sinc(x) exp(-ix) with x = (c_sum*nu_sum + c_diff*nu_diff) * L / 2,
    where the coefficients are group-delay mismatches in ps/mm.
    """

    model: PhaseMatchingModel = PhaseMatchingModel.FLAT
    crystal_length: float = 3.0      # mm
    sum_coefficient: float = 0.0     # ps/mm
    difference_coefficient: float = 0.0  # ps/mm

    def __post_init__(self):
        for name in ("crystal_length", "sum_coefficient", "difference_coefficient"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"PhaseMatchingSpec: {name} must be finite, got {getattr(self, name)}")
        if self.model is PhaseMatchingModel.SINC and not self.crystal_length > 0:
            raise ConfigError(f"PhaseMatchingSpec: crystal_length must be > 0, got {self.crystal_length}")


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian interference filter, identical in front of both detectors.

    center_wavelength: nm; fwhm: nm, FWHM of the intensity transmission.
    """

    center_wavelength: float
    fwhm: float

    def __post_init__(self):
        for name in ("center_wavelength", "fwhm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"FilterSpec: {name} must be finite and > 0, got {getattr(self, name)}")

    @property
    def intensity_fwhm_angular(self) -> float:
        """Intensity-transmission FWHM converted to angular frequency (rad/ps)."""
        return 2.0 * math.pi * C_NM_PER_PS * self.fwhm / self.center_wavelength**2

    @property
    def intensity_sigma(self) -> float:
        """Standard deviation of the Gaussian intensity transmission (rad/ps)."""
        return self.intensity_fwhm_angular / _TWO_SQRT_2LN2


@dataclass(frozen=True)
class EtalonSpec:
    """Plane-mirror etalon in the signal path.

    reflectivity: intensity reflectivity R of each mirror, in [0, 1)
    round_trip_time: T = 2 d cos(theta) / c, ps
    tune_phase: residual inter-pulse phase delta_phi in [0, 2 pi); zero aligns
        a transmission maximum with the filter center
    """

    enabled: bool = True
    reflectivity: float = 0.9
    round_trip_time: float = 2.0 * 100.0 / C_UM_PER_PS
    tune_phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.reflectivity < 1.0:
            raise ConfigError(f"EtalonSpec: reflectivity must lie in [0, 1), got {self.reflectivity}")
        if not 0 < self.round_trip_time < math.inf:
            raise ConfigError(
                f"EtalonSpec: round_trip_time must be finite and > 0, got {self.round_trip_time}")
        if not math.isfinite(self.tune_phase):
            raise ConfigError(f"EtalonSpec: tune_phase must be finite, got {self.tune_phase}")
        object.__setattr__(self, "tune_phase", self.tune_phase % (2.0 * math.pi))

    @property
    def free_spectral_range(self) -> float:
        """Comb spacing 2 pi / T in rad/ps."""
        return 2.0 * math.pi / self.round_trip_time


def etalon_from_geometry(spacing_um: float, incidence_angle: float = 0.0,
                         reflectivity: float = 0.9, tune_phase: float = 0.0,
                         enabled: bool = True) -> EtalonSpec:
    """Build an EtalonSpec from the mirror spacing (um) and internal angle."""
    if not spacing_um > 0:
        raise ConfigError(f"etalon spacing must be > 0, got {spacing_um}")
    round_trip = 2.0 * spacing_um * math.cos(incidence_angle) / C_UM_PER_PS
    return EtalonSpec(enabled=enabled, reflectivity=reflectivity,
                      round_trip_time=round_trip, tune_phase=tune_phase)


@dataclass(frozen=True)
class OpticalSetup:
    """Complete parameterization of one simulation run.

    The engine centres the filter and the pump on the SPDC centre, so the
    filter's must match it to 1e-9 relative.
    """

    pump: PumpSpec
    phase_matching: PhaseMatchingSpec
    filter: FilterSpec
    etalon: EtalonSpec
    spdc_center_wavelength: float  # nm

    def __post_init__(self):
        spdc = self.spdc_center_wavelength
        if not 0 < spdc < math.inf:
            raise ConfigError(f"OpticalSetup: spdc_center_wavelength must be finite and > 0, got {spdc}")
        if not math.isclose(self.filter.center_wavelength, spdc, rel_tol=1e-9):
            raise ConfigError(
                f"OpticalSetup: FilterSpec center_wavelength {self.filter.center_wavelength} nm "
                f"must be {spdc} nm, set by spdc_center_wavelength")

    @property
    def center_frequency(self) -> float:
        """Degenerate center angular frequency omega_0 = 2 pi c / lambda (rad/ps)."""
        return 2.0 * math.pi * C_NM_PER_PS / self.spdc_center_wavelength


def _check_finite(x, name: str):
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"non-finite {name}")


def pump_envelope(sum_detuning, pump: PumpSpec):
    """Pump field envelope at the sum detuning nu_s + nu_i; real, peak 1."""
    sum_detuning = np.asarray(sum_detuning, dtype=float)
    _check_finite(sum_detuning, "detuning")
    s = pump.spectral_sigma
    return np.exp(-sum_detuning**2 / (4.0 * s * s))


def phase_matching(sum_detuning, diff_detuning, pm: PhaseMatchingSpec):
    """Complex phase-matching amplitude sinc(x) exp(-ix); unity for FLAT."""
    sum_detuning = np.asarray(sum_detuning, dtype=float)
    diff_detuning = np.asarray(diff_detuning, dtype=float)
    _check_finite(sum_detuning, "detuning")
    _check_finite(diff_detuning, "detuning")
    if pm.model is PhaseMatchingModel.FLAT:
        return np.ones(np.broadcast(sum_detuning, diff_detuning).shape, dtype=complex)
    x = 0.5 * (pm.sum_coefficient * sum_detuning
               + pm.difference_coefficient * diff_detuning) * pm.crystal_length
    return np.sinc(x / np.pi) * np.exp(-1j * x)


def filter_amplitude(detuning, filt: FilterSpec):
    """Filter field amplitude f(nu); f^2 has the configured intensity FWHM, peak 1."""
    detuning = np.asarray(detuning, dtype=float)
    _check_finite(detuning, "detuning")
    s = filt.intensity_sigma
    return np.exp(-detuning**2 / (4.0 * s * s))


def etalon_transfer(detuning, etalon: EtalonSpec, center_frequency: float):
    """Complex etalon amplitude transmission at a detuning from the comb reference.

    Parameterized by the round-trip phase phi = (omega_0 + nu) T + offset, with
    the offset fixed so that tune_phase = 0 puts a transmission maximum at zero
    detuning (the filter center).  Returns (1-R) e^{i phi/2} / (1 - R e^{i phi}),
    which keeps the single-pass (half round-trip) phase of the physical etalon.
    """
    detuning = np.asarray(detuning, dtype=float)
    _check_finite(detuning, "detuning")
    if not etalon.enabled:
        return np.ones(detuning.shape, dtype=complex)
    r = etalon.reflectivity
    offset = etalon.tune_phase - center_frequency * etalon.round_trip_time
    phi = (center_frequency + detuning) * etalon.round_trip_time + offset
    return (1.0 - r) * np.exp(0.5j * phi) / (1.0 - r * np.exp(1j * phi))


def build_jsa(setup: OpticalSetup, grid) -> np.ndarray:
    """Sample the joint spectral amplitude pump * phase-matching over a grid.

    `grid` is any object with an ``axis()`` method returning the 1D detuning
    samples (see engine.FrequencyGrid).  Returns the complex (n, n) array
    phi[i, j] = phi(axis[i], axis[j]), peak magnitude 1.
    """
    nu = np.asarray(grid.axis(), dtype=float)
    if nu.size <= 1:
        raise ConfigError("build_jsa: grid must have more than one point per axis")
    ss = nu[:, None] + nu[None, :]
    dd = nu[:, None] - nu[None, :]
    phi = pump_envelope(ss, setup.pump) * phase_matching(ss, dd, setup.phase_matching)
    del ss, dd
    peak = np.abs(phi).max()
    if peak == 0.0:
        raise ConfigError("build_jsa: amplitude vanishes everywhere on the grid")
    phi /= peak
    return phi
