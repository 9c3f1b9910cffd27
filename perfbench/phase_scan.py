"""phase-scan inputs and its independent correctness oracle.

Each trace is a flat config layered on ``preset = fig3a`` with
``grid.points = 1024``.  The pump duration is drawn from three values, so some
traces share a joint spectral amplitude and some do not; the etalon tuning
phase and reflectivity are drawn from continuous ranges.
"""

from __future__ import annotations

import math
import random

POINTS = 1024
DURATIONS_PS = (1.4, 5.0, 20.0)
CHECKED_DELAYS = 3          # delays per trace compared against the oracle
TOLERANCE = 1e-6            # |normalized rate - oracle|, i.e. relative to the baseline


def params(seed: int):
    """Endless deterministic stream of (duration, tune_phase, reflectivity)."""
    rng = random.Random(seed)
    while True:
        yield (rng.choice(DURATIONS_PS), rng.uniform(0.0, 2.0 * math.pi),
               rng.uniform(0.5, 0.9))


def config_text(p, out_path: str | None = None) -> str:
    duration, phase, reflectivity = p
    lines = ["preset = fig3a", f"grid.points = {POINTS}",
             f"pump.duration_fwhm = {duration!r}",
             f"etalon.tune_phase = {phase!r}",
             f"etalon.reflectivity = {reflectivity!r}"]
    if out_path:
        lines.append(f"output.path = {out_path}")
    return "\n".join(lines) + "\n"


def checked_indices(seed: int, k: int, steps: int) -> list[int]:
    rng = random.Random(f"{seed}:{k}")
    return sorted(rng.sample(range(steps), CHECKED_DELAYS))


class Oracle:
    """Plain-numpy 2-D midpoint sum of the coincidence rate.

    Uses only the element functions of ``combhom.spectral``; the grid axis,
    the cross integrand and the delay phases are formed here, not taken from
    the engine.  The n x n pump products are cached per pump duration.
    """

    def __init__(self):
        import numpy as np
        from combhom import config, spectral

        self.np, self.config, self.spectral = np, config, spectral
        self._pump_cache: dict = {}

    def _pump_terms(self, setup, nu):
        key = (setup.pump.duration_fwhm, nu.size)
        if key not in self._pump_cache:
            np, sp = self.np, self.spectral
            s = nu[:, None] + nu[None, :]
            d = nu[:, None] - nu[None, :]
            phi = sp.pump_envelope(s, setup.pump) * sp.phase_matching(s, d, setup.phase_matching)
            phi = phi / np.abs(phi).max()
            self._pump_cache[key] = (np.abs(phi) ** 2, phi * np.conj(phi.T))
        return self._pump_cache[key]

    def normalized_rate(self, p, indices):
        """Normalized coincidence rate at the given indices of the trace's delays."""
        np, sp = self.np, self.spectral
        cfg = self.config.config_from_text(config_text(p))
        setup, n, span = cfg.setup, cfg.grid.points_per_axis, cfg.grid.span
        nu = (np.arange(n) - 0.5 * (n - 1)) * (2.0 * span / n)
        tau = np.linspace(cfg.sweep.start, cfg.sweep.end, cfg.sweep.steps)[indices]
        f2 = sp.filter_amplitude(nu, setup.filter) ** 2
        fe = sp.etalon_transfer(nu, setup.etalon, setup.center_frequency)
        offset = 0.5 * setup.etalon.round_trip_time if setup.etalon.enabled else 0.0
        abs2, pair = self._pump_terms(setup, nu)
        baseline = (f2 * np.abs(fe) ** 2) @ abs2 @ f2
        # Row k: the integrand's s-factor at delay tau[k]; the i-factor is its conjugate.
        a = f2 * fe * np.exp(-1j * np.outer(tau + offset, nu))
        interference = np.sum((a @ pair) * np.conj(a), axis=1).real
        return tau, 1.0 - interference / baseline
