"""combhom benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
Load is one closed loop: the next op starts when the previous one has ended,
with no client threads, and BLAS runs with as many threads as this process
may use cores (``nproc``).

Workloads (BENCHMARK.json says why each exists):

- fig3a-converged: one op is ``combhom sweep --preset fig3a --out CSV`` in a
  fresh process.  Fixed inputs; the seed is recorded but not used.
- phase-scan: one process runs seeded flat configs through
  ``config.config_from_text`` and ``cli.run_sweep``; one op is one trace.
- verify: one op is ``combhom verify`` (14 checks) in a fresh process.
  Fixed inputs; the seed is recorded but not used.

With ``--trace 0`` the last line of stdout is the JSON result with every
end-to-end metric.  With ``--trace 1`` half of the time runs untraced ops and
half runs the same ops traced (see tracer.py); the result holds the per-layer
metrics, the tracing overhead and the harness self-tests.  Files go to
``perfbench/out/``.  An op fails when its process exits non-zero, a value is
not finite, or its output fails the workload's correctness gate.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import phase_scan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE_CSV = HERE / "reference" / "fig3a.csv"
CHILD = str(HERE / "child.py")
PY = sys.executable
CLI_MAIN = "import sys; from combhom.cli import main; sys.exit(main())"

WORKLOADS = ("fig3a-converged", "phase-scan", "verify")
SETUP_SAMPLES = 3            # before the ops and again after them, so a run's drift averages out
DEADLINE_S = 170            # the whole run, so that it ends within 180 s
FIG3A_TOLERANCE = 1e-9      # |normalized rate - reference|
FFT_MISMATCH_LIMIT = 1e-6
SPAN_COVERAGE_LIMIT = 0.10  # span self times vs traced op wall time
VERIFY_CHECKS = (
    "fsr_from_geometry", "anti_resonance_magnitude", "parseval_mean_intensity",
    "feynman_brute_force", "hom_closed_form", "engine_feynman_signs",
    "fft_vs_direct_fig3a", "fft_vs_direct_fig3b", "fft_vs_direct_fig3c",
    "fft_vs_direct_hom", "convergence_fig3a", "convergence_fig3b",
    "convergence_fig3c", "convergence_hom")

_active: list[subprocess.Popen] = []


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


# --------------------------------------------------------------------------
# Child processes


def child_env(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    return env


def spawn(argv, env, log_stem: Path, start: float | None = None) -> dict:
    """Run one child to completion; its wall time, CPU time, peak RSS and output."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter() if start is None else start
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        _active.append(proc)  # killed by stop_children() if the deadline interrupts the wait
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        _active.remove(proc)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": t0, "wall": t1 - t0, "exit": proc.returncode,
            "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
            "stdout": Path(f"{log_stem}.out").read_bytes()}


def stop_children():
    for proc in list(_active):
        proc.kill()
        proc.wait()
    _active.clear()


# --------------------------------------------------------------------------
# Run header


def blas_probe(env) -> dict:
    code = r"""
import ctypes, glob, json, os, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*blas*"))
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_config": blas.get("openblas configuration"),
                  "blas_threads_reported": threads, "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "python": sys.version.split()[0]}))
"""
    out = subprocess.run([PY, "-c", code], capture_output=True, text=True, env=env,
                         cwd=ROOT, timeout=60, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_header(args, threads: int, env) -> dict:
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "seed_used": args.workload == "phase-scan",
              "git_commit": git_commit(), "source_sha256_16": source_digest(),
              "nproc": threads, "blas_threads_set": threads, "cpu": cpu_model(),
              "mem_total_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                                    / 2**30, 1),
              "load": "closed loop, one op at a time, one benchmark process"}
    header.update(blas_probe(env))
    return header


# --------------------------------------------------------------------------
# Correctness gates: each returns None when the op is correct, else a reason.


def _read_trace(path) -> tuple[list[float], list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["tau_ps", "rate", "normalized_rate"]:
        raise ValueError(f"unexpected header {rows[0]}")
    values = [[float(x) for x in row] for row in rows[1:]]
    if not values or not all(math.isfinite(x) for row in values for x in row):
        raise ValueError("empty or non-finite trace")
    return [row[0] for row in values], [row[2] for row in values]


@functools.cache
def reference_trace() -> tuple[list[float], list[float]]:
    return _read_trace(REFERENCE_CSV)


def gate_fig3a(op: dict, csv_path: Path) -> str | None:
    if op["exit"] != 0:
        return f"exit status {op['exit']}"
    try:
        tau, norm = _read_trace(csv_path)
        with open(f"{csv_path}.meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    ref_tau, ref_norm = reference_trace()
    if len(tau) != len(ref_tau) or max(abs(a - b) for a, b in zip(tau, ref_tau)) > 1e-12:
        return "delays differ from the reference"
    worst = max(abs(a - b) for a, b in zip(norm, ref_norm))
    if not worst <= FIG3A_TOLERANCE:
        return f"normalized rate off the reference by {worst:.3e}"
    conv = meta.get("convergence")
    if not isinstance(conv, dict) or conv.get("passed") is not True:
        return "convergence.passed is not set"
    mismatch = meta.get("fft_check_mismatch")
    if not (isinstance(mismatch, float) and mismatch <= FFT_MISMATCH_LIMIT):
        return f"fft_check_mismatch {mismatch!r}"
    return None


def gate_verify(op: dict) -> str | None:
    if op["exit"] != 0:
        return f"exit status {op['exit']}"
    lines = op["stdout"].decode("utf-8", "replace").splitlines()
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    names = [line.split()[1].rstrip(":") for line in checks]
    if sorted(names) != sorted(VERIFY_CHECKS):
        return f"check names {names}"
    failed = [line for line in checks if not line.startswith("PASS ")]
    if failed:
        return f"failed checks {failed}"
    if any(word in ("nan", "inf") for line in checks for word in line.lower().split()):
        return "non-finite value in verify output"
    if not lines or lines[-1] != "all checks passed":
        return "missing 'all checks passed'"
    return None


def oracle_deviation(engine_norm, oracle_norm) -> float:
    return max(abs(a - b) for a, b in zip(engine_norm, oracle_norm))


def gate_phase_scan(ops: list, seed: int) -> tuple[dict, str | None]:
    """Check every trace against the oracle; returns failures by op and the self-test."""
    sys.path.insert(0, str(ROOT / "src"))
    oracle = phase_scan.Oracle()
    failures: dict = {}
    stream = phase_scan.params(seed)
    selftest = "no trace was checked"
    for op in ops:
        p = next(stream)
        if op["error"]:
            failures[op["k"]] = op["error"]
            continue
        try:
            tau, norm = _read_trace(op["path"])
            with open(op["path"] + ".meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError, IndexError) as exc:
            failures[op["k"]] = f"unreadable output: {exc}"
            continue
        if not all(isinstance(v, float) and math.isfinite(v)
                   for v in (meta.get("baseline_rate"), meta.get("fft_check_mismatch"))):
            failures[op["k"]] = "non-finite sidecar value"
            continue
        idx = phase_scan.checked_indices(seed, op["k"], len(tau))
        oracle_tau, oracle_norm = oracle.normalized_rate(p, idx)
        got = [norm[i] for i in idx]
        if max(abs(tau[i] - t) for i, t in zip(idx, oracle_tau)) > 1e-9:
            failures[op["k"]] = "delays differ from the config"
            continue
        deviation = oracle_deviation(got, oracle_norm)
        if not deviation <= phase_scan.TOLERANCE:
            failures[op["k"]] = f"off the oracle by {deviation:.3e}"
        if op["k"] == 0:
            # Harness self-test: the same trace moved by the tolerance must fail.
            moved = [g + math.copysign(phase_scan.TOLERANCE, g - o)
                     for g, o in zip(got, oracle_norm)]
            caught = not oracle_deviation(moved, oracle_norm) <= phase_scan.TOLERANCE
            selftest = None if caught else "a trace moved by 1e-6 passed the gate"
    return failures, selftest


# --------------------------------------------------------------------------
# Workloads


def closed_loop(budget: float, run_op) -> list[dict]:
    """Start ops one after another while the next one should fit in `budget`."""
    ops: list[dict] = []
    start = time.perf_counter()
    while not ops or (time.perf_counter() - start
                      + statistics.median(op["wall"] for op in ops)) <= budget:
        ops.append(run_op(len(ops)))
    return ops


def cli_op(args_for, workload: str, env, work: Path, traced: bool):
    label = "traced" if traced else "untraced"
    (work / label).mkdir(parents=True, exist_ok=True)

    def run_op(k: int) -> dict:
        stem = work / label / f"op_{k:03d}"
        argv_tail = args_for(stem)
        t0 = time.perf_counter()
        if traced:
            argv = [PY, CHILD, "cli", repr(t0), f"{stem}.spans.json", *argv_tail]
        else:
            argv = [PY, "-c", CLI_MAIN, *argv_tail]
        op = spawn(argv, env, stem, start=t0)
        op["k"], op["stem"] = k, stem
        op["failure"] = (gate_verify(op) if workload == "verify"
                         else gate_fig3a(op, Path(f"{stem}.csv")))
        return op

    return run_op


def run_cli_workload(workload: str, seconds: float, trace: bool, env, work: Path) -> dict:
    if workload == "verify":
        def args_for(stem):
            return ["verify"]
    else:
        def args_for(stem):
            return ["sweep", "--preset", "fig3a", "--out", f"{stem}.csv"]
    budget = seconds / 2 if trace else seconds
    untraced = closed_loop(budget, cli_op(args_for, workload, env, work, False))
    result = {"untraced": untraced, "selftests": {}}
    if trace:
        traced = closed_loop(budget, cli_op(args_for, workload, env, work, True))
        result["traced"] = traced
        for op in traced:
            with open(f"{op['stem']}.spans.json", encoding="utf-8") as fh:
                op["trace"] = json.load(fh)
        suffixes = [".out"] if workload == "verify" else [".csv", ".csv.meta.json"]
        same = all(Path(f"{untraced[0]['stem']}{s}").read_bytes()
                   == Path(f"{traced[0]['stem']}{s}").read_bytes() for s in suffixes)
        result["selftests"]["traced_output_identical"] = (
            None if same else "traced and untraced outputs differ")
    return result


def run_phase_scan(seed: int, seconds: float, trace: bool, env, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    rel = os.path.relpath(work, ROOT)
    proc = spawn([PY, CHILD, "phase-scan", str(seed), repr(seconds), "1" if trace else "0", rel],
                 env, work / "worker")
    if proc["exit"] != 0:
        raise RuntimeError("phase-scan process failed: "
                           + Path(f"{work / 'worker'}.err").read_text()[-2000:])
    with open(work / "result.json", encoding="utf-8") as fh:
        data = json.load(fh)
    untraced = data["untraced"]["ops"]
    for op in untraced:
        op["path"] = str(ROOT / op["path"])
    failures, perturb = gate_phase_scan(untraced, seed)
    for op in untraced:
        op["failure"] = failures.get(op["k"])
    result = {"untraced": untraced, "loop_wall": data["untraced"]["loop_wall"],
              "maxrss_kb": proc["maxrss_kb"],
              "selftests": {"perturbed_trace_fails": perturb}}
    if trace:
        traced = data["traced"]["ops"]
        with open(work / "spans.json", encoding="utf-8") as fh:
            spans = json.load(fh)
        for op in traced:
            op["failure"] = op["error"]
        differ = []
        for a, b in zip(untraced, traced):
            for suffix in ("", ".meta.json"):
                if Path(a["path"] + suffix).read_bytes() != (ROOT / (b["path"] + suffix)).read_bytes():
                    differ.append(b["k"])
        result["traced"] = traced
        result["spans"] = spans
        result["selftests"]["traced_output_identical"] = (
            f"traced outputs differ for ops {differ[:5]}" if differ else None)
    for label in ("untraced", "traced"):  # hundreds of checked traces
        shutil.rmtree(work / label, ignore_errors=True)
    return result


def measure_setup(workload: str, seed: int, env, work: Path) -> list[float]:
    """Process start through `import combhom.cli` and the first config."""
    times = []
    for _ in range(SETUP_SAMPLES):
        op = spawn([PY, CHILD, "setup", workload, str(seed)], env, work / "setup")
        if op["exit"] != 0:
            raise RuntimeError(f"setup child failed: {(work / 'setup.err').read_text()}")
        times.append(float(op["stdout"].decode().strip().splitlines()[-1]) - op["start"])
    return times


# --------------------------------------------------------------------------
# Metrics


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The p90, or the highest percentile with at least 10 samples beyond it.

    Below 20 samples no percentile above the median has 10 beyond it, and the
    median is reported.  Returns (value, percentile as a fraction).
    """
    n = len(values)
    q = 0.9 if n >= 100 else (1.0 - 10.0 / n if n >= 20 else 0.5)
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), q


def end_to_end(workload: str, result: dict, setup: list[float]) -> tuple[dict, dict]:
    ops = result["untraced"]
    walls = [op["wall"] for op in ops]
    tail, q = tail_percentile(walls)
    if workload == "phase-scan":
        loop_wall = result["loop_wall"]
        peak_kb = result["maxrss_kb"]
    else:
        loop_wall = ops[-1]["start"] + ops[-1]["wall"] - ops[0]["start"]
        peak_kb = max(op["maxrss_kb"] for op in ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.p90": (tail, "s"),
        "ops_per_s": (len(ops) / loop_wall, "1/s"),
        "cpu_s_per_op": (sum(op["cpu"] for op in ops) / len(ops), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes = {"op_s.p90": f"p{100 * q:.0f} of {len(ops)} ops",
             "op_s.p50": f"median of {len(ops)} ops",
             "setup_s": f"median of {len(setup)} fresh processes"}
    return metrics, notes


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict = defaultdict(float)
    for s in spans:
        if s[4] is not None and s[3] is not None:
            covered[s[4]] += s[3] - s[2]
    return {s[0]: s[3] - s[2] - covered[s[0]] for s in spans if s[3] is not None}


def layer_breakdown(spans: list, verify_lines: list) -> dict:
    """Per-layer times and counts of one op's spans."""
    m: dict = defaultdict(float)
    m["engine.fft_check_mismatch.max"] = 0.0
    own = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    for sid, name, t0, t1, parent, _op, note in spans:
        if t1 is None:
            continue
        dur, note = t1 - t0, note or {}
        layer = name.split(".")[0]
        m["_self_total"] += own[sid]
        if layer in ("engine", "spectral"):
            m["_engine_spectral"] += own[sid]
        if name in ("cli.main", "phase_scan.op"):
            m["_in_process"] += dur
        if layer == "config":
            m["config.parse_s"] += own[sid]
        elif name == "startup.import":
            m["startup.import_s"] += dur
        elif name == "spectral.build_jsa":
            m["spectral.build_jsa_s"] += dur
            m["spectral.build_jsa_calls"] += 1
            m["spectral.jsa_points"] += note.get("n", 0) ** 2
            m["spectral.build_jsa_peak_mb"] = max(m["spectral.build_jsa_peak_mb"],
                                                  note["peak_bytes"] / 1e6)
        elif name == "engine.assemble":
            m["engine.assemble_s"] += own[sid]
            m["engine.assemble_calls"] += 1
            m["engine.assemble_peak_mb"] = max(m["engine.assemble_peak_mb"],
                                               note["peak_bytes"] / 1e6)
            m["work.nxn_array_mb"] += 16 * note.get("n", 0) ** 2 / 1e6
        elif name == "engine.collapse":
            m["engine.collapse_s"] += dur
        elif name == "engine.czt":
            m["engine.czt_s"] += dur
        elif name == "engine.interference":
            m["work.delays"] += 1
            if names.get(parent) == "engine.sweep_fft":
                m["engine.spot_check_s"] += dur
            else:
                m["engine.direct_s"] += dur
                m["engine.direct_points"] += 1
        elif name == "engine.convergence_report":
            m["engine.convergence_s"] += dur
        elif name == "engine.sweep_fft":
            m["engine.fft_sweeps"] += 1
            m["engine.fft_fallbacks"] += note.get("fallback", False)
            m["work.delays"] += note.get("delays", 0)
            mismatch = note.get("mismatch")
            if mismatch is not None:
                m["engine.fft_check_mismatch.max"] = max(m["engine.fft_check_mismatch.max"],
                                                         mismatch)
        elif name == "feynman.relative_rate":
            m["feynman.relative_rate_s"] += dur
            m["feynman.calls"] += 1
        elif layer == "oracles":
            m[name + "_s"] += dur
        elif name == "cli.run_sweep":
            m["cli.write_s"] += own[sid]
    previous = None
    for stamp, line in verify_lines:
        if line and line.startswith(("PASS ", "FAIL ")):
            m["cli.verify_check_s." + line.split()[1].rstrip(":")] += stamp - previous
        previous = stamp
    return m


def per_layer(workload: str, result: dict) -> tuple[dict, dict]:
    """Mean per traced op of every layer metric, plus overhead and self-tests."""
    traced = result["traced"]
    if workload == "phase-scan":
        by_op: dict = defaultdict(list)
        for span in result["spans"]["spans"]:
            by_op[span[5]].append(span)
        breakdowns = [layer_breakdown(by_op[op["k"]], []) for op in traced]
        missing = result["spans"]["missing"]
    else:
        breakdowns = [layer_breakdown(op["trace"]["spans"], op["trace"]["verify_lines"])
                      for op in traced]
        missing = traced[0]["trace"]["missing"]
    keys = set().union(*breakdowns)
    metrics = {}
    for key in keys:
        values = [b.get(key, 0.0) for b in breakdowns]
        metrics[key] = (max(values) if key.endswith(("peak_mb", ".max"))
                        else sum(values) / len(values))
    walls = [op["wall"] for op in traced]
    coverage = [b["_self_total"] / w for b, w in zip(breakdowns, walls)]
    untraced_p50 = statistics.median(op["wall"] for op in result["untraced"])
    traced_p50 = statistics.median(walls)
    metrics.update({
        "trace.untraced_op_s.p50": untraced_p50,
        "trace.traced_op_s.p50": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.span_coverage": 100.0 * statistics.median(coverage),
        "trace.engine_spectral_share": 100.0 * statistics.median(
            b["_engine_spectral"] / w for b, w in zip(breakdowns, walls)),
        "trace.engine_spectral_share_in_process": 100.0 * statistics.median(
            b["_engine_spectral"] / b["_in_process"] if b["_in_process"] else 0.0
            for b in breakdowns),
        "trace.missing_wrappers": float(len(missing)),
        "trace.ops": float(len(traced)),
    })
    if workload == "fig3a-converged":
        worst = max(abs(c - 1.0) for c in coverage)
        result["selftests"]["span_self_times_cover_op"] = (
            None if worst <= SPAN_COVERAGE_LIMIT
            else f"span self times off the op wall time by {100 * worst:.1f}%")
    return metrics, {"trace.missing_wrappers": ", ".join(missing)}


# --------------------------------------------------------------------------


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "combhom" / "cli.py").is_file():
        print(f"error: no combhom source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        return run(args, spec)
    except Deadline as exc:
        stop_children()
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)


def run(args, spec: dict) -> int:
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    work = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    header = run_header(args, threads, env)
    print("header " + json.dumps(header), flush=True)
    setup = [] if args.trace else measure_setup(args.workload, args.seed, env, work)
    if args.workload == "phase-scan":
        result = run_phase_scan(args.seed, args.seconds, bool(args.trace), env, work)
    else:
        result = run_cli_workload(args.workload, args.seconds, bool(args.trace), env, work)
    if not args.trace:
        setup += measure_setup(args.workload, args.seed, env, work)

    ops = result["untraced"] + result.get("traced", [])
    failed = [op for op in ops if op["failure"]]
    if args.trace:
        values, notes = per_layer(args.workload, result)
        wanted = spec["per_layer"]
    else:
        measured, notes = end_to_end(args.workload, result, setup)
        values = {name: value for name, (value, _unit) in measured.items()}
        wanted = spec["end_to_end"]
    selftest_failures = {k: v for k, v in result["selftests"].items() if v}

    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        note = notes.get(entry["name"], "")
        print(f"{entry['name']:<44} {value:>14.6g} {entry['unit']:<6} {note}")
    print(f"{'failed_frac':<44} {len(failed) / len(ops):>14.6g} {'1':<6} "
          f"{len(failed)} of {len(ops)} ops")
    for op in failed[:5]:
        print(f"failed op {op['k']}: {op['failure']}")
    for name, problem in result["selftests"].items():
        print(f"selftest {name}: {'PASS' if not problem else 'FAIL ' + problem}")

    summary = {"correct": not failed and not selftest_failures,
               "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"header": header, "summary": summary, "notes": notes, "setup_s": setup,
                   "ops": [{k: v for k, v in op.items() if k in ("k", "wall", "cpu", "maxrss_kb",
                                                                 "exit", "failure")}
                           for op in ops]}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
