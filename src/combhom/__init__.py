"""Fourth-order interference with comb-like two-photon states.

Simulates the coincidence rate of a Hong-Ou-Mandel interferometer whose
signal arm contains a plane-mirror etalon, and predicts the dip/peak/flat
character of each recurrent feature from a firing-scheme enumeration.
"""

from .engine import (CoincidenceTrace, ConvergenceReport, DelaySweep, Engine,
                     FrequencyGrid, convergence_report, default_grid)
from .errors import ConfigError, NumericalConsistencyError, ResolutionError
from .feynman import (Feature, FeaturePrediction, predict_trace_skeleton,
                      relative_rate)
from .spectral import (EtalonSpec, FilterSpec, OpticalSetup, PhaseMatchingModel,
                       PhaseMatchingSpec, PumpSpec, build_jsa,
                       etalon_from_geometry, etalon_transfer, filter_amplitude,
                       phase_matching, pump_envelope)

__all__ = [
    "CoincidenceTrace", "ConvergenceReport", "DelaySweep", "Engine", "FrequencyGrid",
    "convergence_report", "default_grid",
    "ConfigError", "NumericalConsistencyError", "ResolutionError",
    "Feature", "FeaturePrediction", "predict_trace_skeleton", "relative_rate",
    "EtalonSpec", "FilterSpec", "OpticalSetup", "PhaseMatchingModel",
    "PhaseMatchingSpec", "PumpSpec", "build_jsa",
    "etalon_from_geometry", "etalon_transfer", "filter_amplitude",
    "phase_matching", "pump_envelope",
]

__version__ = "0.1.0"
