"""The ordered registry of oracle checks behind ``combhom verify``.

Each entry is (name, check); check() returns (passed, detail).  Quick mode
uses smaller grids and fewer presets.  Entries run in registry order:
``convergence_<preset>`` reports on the fft trace that ``fft_vs_direct_<preset>``
computed before it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from . import engine, feynman, oracles
from .config import PRESET_NAMES, preset_config
from .engine import DelaySweep, Engine, FrequencyGrid
from .spectral import etalon_from_geometry, etalon_transfer

# Etalon geometry: 100 um spacing gives the 1500 GHz comb.
_ETALON = etalon_from_geometry(100.0, 0.0, 0.9)
_OMEGA0 = 2396.0
_ANTI_RESONANCE = (1.0 - _ETALON.reflectivity) / (1.0 + _ETALON.reflectivity)


def _fsr_from_geometry():
    fsr_thz = 1.0 / _ETALON.round_trip_time
    return abs(fsr_thz / 1.5 - 1.0) < 5e-3, f"FSR {fsr_thz:.5f} THz vs 1.5 THz"


def _anti_resonance_magnitude():
    """The magnitude half an FSR from a transmission maximum is (1-R)/(1+R) exactly."""
    anti = math.pi / _ETALON.round_trip_time
    mag = abs(etalon_transfer(np.array([anti]), _ETALON, _OMEGA0)[0])
    return (abs(mag - _ANTI_RESONANCE) < 1e-12,
            f"|f_e| {mag:.12f} vs {_ANTI_RESONANCE:.12f}")


def _parseval_mean_intensity():
    """The spectral mean of |f_e|^2 equals the geometric intensity sum."""
    mean_i = oracles.mean_transfer_intensity(_ETALON, _OMEGA0)
    return (abs(mean_i - _ANTI_RESONANCE) < 1e-6,
            f"mean |f_e|^2 {mean_i:.9f} vs {_ANTI_RESONANCE:.9f}")


def _feynman_brute_force():
    """The firing-scheme model against literal enumeration."""
    worst = 0.0
    for j in range(9):
        for dphi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            for r, equal in ((0.9, False), (0.5, False), (0.0, True)):
                w = [1.0] * (j + 1) if equal else [r**m for m in range(j + 1)]
                ref = oracles.brute_force_schemes(j, dphi, w)
                got = feynman.relative_rate(j, dphi, r, equal_weights=equal).relative_rate
                worst = max(worst, abs(ref - got))
    return worst < 1e-12, f"max |delta| {worst:.2e}"


def _hom_closed_form(quick: bool):
    """The engine against the closed-form no-etalon HOM dip."""
    hom = preset_config("hom")
    grid = hom.grid if not quick else FrequencyGrid(1024, hom.grid.span)
    trace = Engine(hom.setup, grid).sweep(DelaySweep(-3.0, 3.0, 241))
    ref = oracles.hom_closed_form(hom.setup, trace.tau)
    delta = float(np.abs(trace.normalized_rate - ref).max())
    return delta < 1e-3, f"sup delta {delta:.2e}"


def _engine_feynman_signs(quick: bool):
    """Engine feature signs at tau_j against the firing-scheme classifications.

    Uses a long pump (scheme amplitudes stay coherent) and the standard etalon,
    the regime where the simplified model applies.
    """
    base = preset_config("fig3a").setup
    base = replace(base, pump=replace(base.pump, duration_fwhm=20.0))
    grid = FrequencyGrid(1024 if quick else 2048,
                         5.0 * base.filter.intensity_sigma)
    t_round = base.etalon.round_trip_time
    j_top = 2 if quick else 4
    mismatches = []
    for dphi in (0.0, 0.5 * math.pi, math.pi):
        setup = replace(base, etalon=replace(base.etalon, tune_phase=dphi))
        eng = Engine(setup, grid)
        for j in range(j_top + 1):
            n = 1.0 - eng.interference(0.5 * j * t_round) / eng.baseline
            predicted = feynman.relative_rate(
                j, dphi, base.etalon.reflectivity,
                pump_coherence_time=base.pump.coherence_time,
                round_trip_time=t_round).classification
            if predicted is feynman.Feature.FLAT:
                ok = abs(n - 1.0) < 0.05
            elif predicted is feynman.Feature.DIP:
                ok = n < 1.0 - 0.01
            else:
                ok = n > 1.0 + 0.01
            if not ok:
                mismatches.append(f"j={j} dphi={dphi:.3f}: "
                                  f"norm {n:.4f} vs {predicted.value}")
    detail = "; ".join(mismatches) if mismatches else f"j <= {j_top}, all phases agree"
    return not mismatches, detail


def _fft_vs_direct(name: str, quick: bool, traces: dict):
    """The chirp-z sweep against the dense sum over h(u) on one preset, on one Engine."""
    cfg = preset_config(name)
    grid = cfg.grid if not quick else FrequencyGrid(1024, cfg.grid.span)
    sweep = cfg.sweep if not quick else DelaySweep(cfg.sweep.start, cfg.sweep.end, 120)
    eng = Engine(cfg.setup, grid)
    direct = eng.sweep(sweep, direct=True)
    traces[name] = fast = eng.sweep(sweep)
    delta = float(np.abs(fast.normalized_rate - direct.normalized_rate).max()
                  / np.abs(direct.normalized_rate).max())
    return delta < 1e-6, f"rel sup delta {delta:.2e}"


def _convergence(name: str, traces: dict):
    """Grid convergence of the preset's fft trace (full mode only; the slow check)."""
    cfg = preset_config(name)
    report = engine.convergence_report(cfg.setup, cfg.sweep, cfg.grid, traces.pop(name))
    return report.passed, f"points {report.delta_points:.2e}, span {report.delta_span:.2e}"


def registry(quick: bool) -> list:
    """[(name, check)] in the order verify runs and prints them."""
    traces: dict = {}  # preset -> fft trace, from fft_vs_direct_* to convergence_*
    presets = ("fig3a",) if quick else PRESET_NAMES
    return ([("fsr_from_geometry", _fsr_from_geometry),
             ("anti_resonance_magnitude", _anti_resonance_magnitude),
             ("parseval_mean_intensity", _parseval_mean_intensity),
             ("feynman_brute_force", _feynman_brute_force),
             ("hom_closed_form", partial(_hom_closed_form, quick)),
             ("engine_feynman_signs", partial(_engine_feynman_signs, quick))]
            + [(f"fft_vs_direct_{name}", partial(_fft_vs_direct, name, quick, traces))
               for name in presets]
            + [(f"convergence_{name}", partial(_convergence, name, traces))
               for name in presets if not quick])
