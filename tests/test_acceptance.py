"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The heavy preset traces are computed once per session (conftest).
"""

import math
import time

import numpy as np
import pytest

from combhom import checks, cli, feynman, oracles
from combhom.config import PRESET_NAMES, preset_config
from combhom.engine import DelaySweep, Engine, FrequencyGrid

T_ROUND = 0.6667  # ps, etalon round-trip time of the standard presets


def _report(criterion: str, clauses):
    ok = all(passed for _, passed in clauses)
    detail = "; ".join(f"{name} {'ok' if passed else 'FAILED'}"
                       for name, passed in clauses)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _local_extremum(trace, tau_center, window=0.15, kind="min"):
    """(tau, normalized) of the extremum of the trace near tau_center."""
    mask = np.abs(trace.tau - tau_center) <= window
    idx = np.flatnonzero(mask)
    values = trace.normalized_rate[idx]
    k = idx[np.argmin(values) if kind == "min" else np.argmax(values)]
    return trace.tau[k], trace.normalized_rate[k]


def _value_at(trace, tau):
    return trace.normalized_rate[np.argmin(np.abs(trace.tau - tau))]


def _registry_passed(names):
    """{name: passed} for the named `combhom verify` checks, run in registry order."""
    return {name: check()[0] for name, check in checks.registry(quick=False) if name in names}


class TestAcceptance:
    def test_criterion_1_fig3a_dips(self, preset_traces):
        cfg, trace = preset_traces["fig3a"]
        clauses = []
        for j in range(5):
            tau_min, _ = _local_extremum(trace, 0.5 * j * T_ROUND)
            clauses.append((f"min_{j}_position", abs(tau_min - 0.5 * j * T_ROUND) <= 0.02))
        # The dip depths follow the closed-form etalon series (oracles docstring):
        # depth_j = (1-R^2) R^j sum_m gamma((j-2m) T/2).  So depth_0 = 1 - R^2, and
        # the depths rise while 2 R gamma(T/2) > 1 before R^j damps them.
        centres = 0.5 * cfg.setup.etalon.round_trip_time * np.arange(11)
        centres = centres[(centres >= trace.tau[0]) & (centres <= trace.tau[-1])]
        minima = np.array([_local_extremum(trace, c) for c in centres])
        depths = 1.0 - minima[:, 1]
        series = oracles.etalon_series_trace(cfg.setup, minima[:, 0])
        mismatch = float(np.abs(minima[:, 1] - series).max())
        peak = int(np.argmax(1.0 - oracles.etalon_series_trace(cfg.setup, centres)))
        clauses.append(("depths_match_series_1e-6", mismatch <= 1e-6))
        clauses.append(("damped_beyond_peak",
                        all(a > b for a, b in zip(depths[peak:], depths[peak + 1:]))))
        # the sampled minimum lies within half a delay step of the dip centre
        r = cfg.setup.etalon.reflectivity
        half_step = 0.5 * (trace.tau[1] - trace.tau[0])
        sampling = (1.0 - r * r) * -math.expm1(-(cfg.setup.filter.intensity_sigma * half_step) ** 2)
        clauses.append(("depth_0_is_1-R^2", 0.0 <= (1.0 - r * r) - depths[0] <= sampling))
        start = time.perf_counter()
        Engine(cfg.setup, cfg.grid).sweep(cfg.sweep)
        clauses.append(("fft_sweep_under_10s", time.perf_counter() - start < 10.0))
        print(f"  fig3a depths by j: {[f'{d:.4f}' for d in depths]}; series peak at j = {peak}, "
              f"sup mismatch {mismatch:.2e}")
        _report("1 (fig3a structure)", clauses)

    def test_criterion_2_fig3b_alternation(self, preset_traces):
        _, trace = preset_traces["fig3b"]
        clauses = []
        for j in (0, 2, 4):
            tau_min, n_min = _local_extremum(trace, 0.5 * j * T_ROUND)
            clauses.append((f"min_at_j{j}",
                            abs(tau_min - 0.5 * j * T_ROUND) <= 0.02 and n_min < 1.0))
        for j in (1, 3):
            tau_max, n_max = _local_extremum(trace, 0.5 * j * T_ROUND, kind="max")
            clauses.append((f"peak_at_j{j}",
                            abs(tau_max - 0.5 * j * T_ROUND) <= 0.02 and n_max > 1.0))
        _report("2 (fig3b structure)", clauses)

    def test_criterion_3_fig3c_flats(self, preset_traces):
        _, trace = preset_traces["fig3c"]
        _, n0 = _local_extremum(trace, 0.0)
        clauses = [("dip_at_j0", n0 < 0.95)]
        for j in (1, 3):
            n = _value_at(trace, 0.5 * j * T_ROUND)
            clauses.append((f"flat_at_j{j}", abs(n - 1.0) < 0.05))
        clauses.append(("peak_at_j2", _value_at(trace, T_ROUND) > 1.0))
        _report("3 (fig3c structure)", clauses)

    def test_criterion_4_hom_oracle(self, preset_traces):
        cfg, _ = preset_traces["hom"]
        trace = Engine(cfg.setup, cfg.grid).sweep(DelaySweep(-3.0, 3.0, 301))
        ref = oracles.hom_closed_form(cfg.setup, trace.tau)
        sup = float(np.abs(trace.normalized_rate - ref).max())
        clauses = [("closed_form_within_1e-3", sup < 1e-3),
                   ("zero_delay_below_0.05", _value_at(trace, 0.0) < 0.05)]
        _report("4 (HOM oracle)", clauses)

    def test_criterion_5_feynman_oracle(self):
        brute_force = _registry_passed({"feynman_brute_force"})["feynman_brute_force"]
        pinned = (
            abs(feynman.relative_rate(2, math.pi / 2, 0.9, equal_weights=True).relative_rate
                - 4.0 / 3.0) < 1e-12,
            abs(feynman.relative_rate(1, math.pi, 0.9, equal_weights=True).relative_rate
                - 2.0) < 1e-12,
            all(feynman.relative_rate(j, 0.0, 0.9, equal_weights=True).relative_rate < 1e-12
                for j in range(9)),
        )
        clauses = [("brute_force_within_1e-12", brute_force),
                   ("pinned_values", all(pinned))]
        _report("5 (firing-scheme oracle)", clauses)

    def test_criterion_6_cross_model(self):
        from dataclasses import replace

        base = oracles.high_r_reference_setup()
        grid = FrequencyGrid(4096, 5.0 * base.filter.intensity_sigma)
        t_round = base.etalon.round_trip_time
        clauses = []
        for dphi in (0.0, 0.5 * math.pi, math.pi):
            setup = replace(base, etalon=replace(base.etalon, tune_phase=dphi))
            eng = Engine(setup, grid)
            for j in range(7):
                n = 1.0 - eng.interference(0.5 * j * t_round) / eng.baseline
                predicted = feynman.relative_rate(
                    j, dphi, base.etalon.reflectivity,
                    pump_coherence_time=base.pump.coherence_time,
                    round_trip_time=t_round).classification
                if predicted is feynman.Feature.FLAT:
                    ok = abs(n - 1.0) < 0.05
                elif predicted is feynman.Feature.DIP:
                    ok = n < 1.0
                else:
                    ok = n > 1.0
                clauses.append((f"dphi_{dphi:.2f}_j{j}_{predicted.value}", ok))
        _report("6 (engine/firing-scheme consistency)", clauses)

    def test_criterion_7_numerical_integrity(self, preset_traces, midpoint_reference):
        # fft/direct relative sup delta < 1e-6 and convergence within 1e-4, per preset
        passed = _registry_passed({f"{check}_{name}" for name in PRESET_NAMES
                                   for check in ("fft_vs_direct", "convergence")})
        clauses = [(f"fft_direct_{name}_1e-6", passed[f"fft_vs_direct_{name}"])
                   for name in PRESET_NAMES]
        clauses += [(f"convergence_{name}_1e-4", passed[f"convergence_{name}"])
                    for name in PRESET_NAMES]
        # imaginary residue of the 2-D cross integral on the fig3a grid
        cfg, _ = preset_traces["fig3a"]
        baseline, integral = midpoint_reference(cfg.setup, cfg.grid, np.linspace(-0.5, 3.5, 21))
        residue = float(np.abs(integral.imag).max())
        clauses.append(("imag_residue_1e-9_baseline", residue < 1e-9 * baseline))
        _report("7 (numerical integrity)", clauses)

    def test_criterion_8_etalon_elements(self):
        # 100 um spacing, R = 0.9: FSR 1.5 THz within 0.5%, anti-resonance magnitude
        # (1-R)/(1+R) within 1e-12, mean |f_e|^2 the geometric sum within 1e-6
        passed = _registry_passed({"fsr_from_geometry", "anti_resonance_magnitude",
                                   "parseval_mean_intensity"})
        clauses = [
            ("fsr_1500GHz_within_0.5pct", passed["fsr_from_geometry"]),
            ("anti_resonance_1e-12", passed["anti_resonance_magnitude"]),
            ("parseval_1e-6", passed["parseval_mean_intensity"]),
        ]
        _report("8 (etalon elements)", clauses)

    def test_criterion_9_determinism(self, tmp_path):
        args = ["sweep", "--preset", "fig3a", "--no-convergence"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        clauses = [("byte_identical_csv", a.read_bytes() == b.read_bytes())]
        _report("9 (determinism)", clauses)
