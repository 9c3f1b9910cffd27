"""Per-stage wall time and tracemalloc peak of the engine on the fig3a preset.

    python3 tools/bench_stages.py SRC --label NAME [--out BENCH_9.json]

SRC is the ``src`` directory of a combhom checkout; its ``combhom`` package is
imported, so two checkouts can be measured on one machine and compared.  The
stages are ``Engine`` assembly at n = 1024, 2048 and 4096, the dense sum over
the preset's 600 delays (``sweep(direct=True)``), the chirp-z sweep
(``sweep()``, its 8-delay spot-check included) and ``convergence_report``, all
on fig3a, plus the assembly of two wide pump bands: a 0.02 ps pump at n = 2048
and sinc phase matching at n = 4096.  Each stage records the best wall time of
``REPEAT`` runs and the tracemalloc peak of one more run.  The result is
stored under ``--label`` in the ``--out`` JSON file, whose other labels are
kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

# best-of-5 throughout, so that numbers in one BENCH file compare
REPEAT = 5


def _measure(fn):
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"best_s": round(best, 6), "peak_mib": round(peak / 2**20, 3)}


def stages():
    from combhom.config import preset_config
    from combhom.engine import Engine, FrequencyGrid, convergence_report
    from combhom.spectral import PhaseMatchingModel, PhaseMatchingSpec

    cfg = preset_config("fig3a")
    setup, grid, sweep = cfg.setup, cfg.grid, cfg.sweep
    eng = Engine(setup, grid)
    base = eng.sweep(sweep)
    broad = replace(setup, pump=replace(setup.pump, duration_fwhm=0.02))
    sinc = replace(setup, phase_matching=PhaseMatchingSpec(
        model=PhaseMatchingModel.SINC, crystal_length=3.0, sum_coefficient=0.05,
        difference_coefficient=0.1))
    runs = {f"engine_n{n}": (lambda n=n: Engine(setup, FrequencyGrid(n, grid.span)))
            for n in (1024, 2048, 4096)}
    runs.update({
        "dense_sum_600": lambda: eng.sweep(sweep, direct=True),
        "chirp_z_sweep_600": lambda: eng.sweep(sweep),
        "convergence_report": lambda: convergence_report(setup, sweep, grid, base),
        "engine_pump_0.02ps_n2048": lambda: Engine(broad, FrequencyGrid(2048, grid.span)),
        "engine_sinc_n4096": lambda: Engine(sinc, FrequencyGrid(4096, grid.span)),
    })
    return {name: _measure(fn) for name, fn in runs.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="src directory of the combhom checkout to measure")
    parser.add_argument("--label", required=True, help="key of this measurement in --out")
    parser.add_argument("--out", default="BENCH_9.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    result = {
        "stages": stages(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data[args.label] = result
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    for name, value in result["stages"].items():
        print(f"{name:28s} {value['best_s']:9.4f} s  {value['peak_mib']:8.2f} MiB")


if __name__ == "__main__":
    main()
