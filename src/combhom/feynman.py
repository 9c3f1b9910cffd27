"""Simplified firing-scheme model of the recurrent interference features.

At idler delay tau_j = j T / 2 there are j+1 firing schemes (m = 0..j signal
round trips for the first amplitude, j-m for the second).  The two amplitudes
of scheme m differ by the phase (j - 2m) * delta_phi and carry round-trip
amplitude weights R^m and R^(j-m).  Summing the schemes gives a relative
coincidence rate (1 = flat baseline) and a dip/peak/flat character for each
delay position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError

FLAT_BAND_TOLERANCE = 0.02


class Feature(Enum):
    DIP = "dip"
    PEAK = "peak"
    FLAT = "flat"


@dataclass(frozen=True)
class FeaturePrediction:
    j: int
    relative_rate: float
    classification: Feature
    pump_coherence_factor: float


def coherence_factor(j: int, round_trip_time: float, pump_coherence_time: float) -> float:
    """Gaussian suppression of the interference for birth-time offsets of j T / 2."""
    if math.isinf(pump_coherence_time):
        return 1.0
    dt = 0.5 * j * round_trip_time
    return math.exp(-dt * dt / (2.0 * pump_coherence_time**2))


def relative_rate(j: int, delta_phi: float, reflectivity: float,
                  pump_coherence_time: float = math.inf,
                  round_trip_time: float = 1.0,
                  equal_weights: bool = False) -> FeaturePrediction:
    """Relative coincidence rate at tau_j and its dip/peak/flat character.

    rate = 1 - gamma_j * [2 sum_m w_m w_{j-m} cos((j-2m) delta_phi)]
                       / [sum_m (w_m^2 + w_{j-m}^2)]

    with w_m = R^m, or w_m = 1 when equal_weights is set (the high-reflectivity
    limit, where the amplitude decay between wavepackets is neglected).  The
    coherence factor gamma_j damps only the interference part, so a fully
    incoherent pump flattens every j >= 1 while j = 0 keeps its dip.
    """
    if j < 0:
        raise ConfigError(f"delay index must be >= 0, got {j}")
    if not 0.0 <= reflectivity < 1.0:
        raise ConfigError(f"reflectivity must lie in [0, 1), got {reflectivity}")
    gamma = coherence_factor(j, round_trip_time, pump_coherence_time)
    weights = [1.0] * (j + 1) if equal_weights else [reflectivity**m for m in range(j + 1)]
    cross = sum(2.0 * weights[m] * weights[j - m] * math.cos((j - 2 * m) * delta_phi)
                for m in range(j + 1))
    norm = sum(weights[m] ** 2 + weights[j - m] ** 2 for m in range(j + 1))
    rate = 1.0 - gamma * cross / norm
    if rate < 1.0 - FLAT_BAND_TOLERANCE:
        kind = Feature.DIP
    elif rate > 1.0 + FLAT_BAND_TOLERANCE:
        kind = Feature.PEAK
    else:
        kind = Feature.FLAT
    return FeaturePrediction(j=j, relative_rate=rate, classification=kind,
                             pump_coherence_factor=gamma)


def predict_trace_skeleton(delta_phi: float, reflectivity: float,
                           pump_coherence_time: float, round_trip_time: float,
                           j_max: int, equal_weights: bool = False) -> list[FeaturePrediction]:
    """Predictions for every delay index j = 0..j_max."""
    if j_max < 0:
        raise ConfigError(f"j_max must be >= 0, got {j_max}")
    return [relative_rate(j, delta_phi, reflectivity, pump_coherence_time,
                          round_trip_time, equal_weights)
            for j in range(j_max + 1)]
