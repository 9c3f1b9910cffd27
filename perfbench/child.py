"""Child processes of the benchmark.

    child.py setup WORKLOAD SEED
        import combhom.cli, build the workload's first config, print the
        monotonic clock (shared by all processes on Linux) and exit.
    child.py cli SPAWN_TIME SPANS_FILE ARG...
        one traced CLI op: ``combhom ARG...`` with every layer wrapped.
    child.py phase-scan SEED SECONDS TRACE WORKDIR
        the phase-scan process: seeded configs through
        config.config_from_text and cli.run_sweep until SECONDS pass.
"""

import json
import os
import resource
import sys
import time


def setup(workload: str, seed: int):
    import combhom.cli as cli

    if workload == "phase-scan":
        from combhom import config

        import phase_scan

        config.config_from_text(phase_scan.config_text(next(phase_scan.params(seed))))
    else:
        cli.preset_config("fig3a")
    print(repr(time.perf_counter()))


def traced_cli(spawn_time: float, spans_file: str, argv: list) -> int:
    import combhom.cli as cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.close(tracer.open("startup.import", start=spawn_time))
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file, {"ops": 1})


def phase_scan_process(seed: int, seconds: float, trace: bool, workdir: str):
    """Run the scan untraced; with `trace`, split the time and rerun traced."""
    from combhom import cli, config

    import phase_scan

    def scan(label: str, budget: float, tracer=None):
        out_dir = os.path.join(workdir, label)
        os.makedirs(out_dir, exist_ok=True)
        ops = []
        stream = phase_scan.params(seed)
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < budget:
            k = len(ops)
            path = os.path.join(out_dir, f"trace_{k:05d}.csv")
            text = phase_scan.config_text(next(stream), path)
            if tracer is not None:
                tracer.op = k
            t0, c0 = time.perf_counter(), time.process_time()
            sid = tracer.open("phase_scan.op", start=t0) if tracer is not None else None
            error = None
            try:
                cli.run_sweep(config.config_from_text(text), check_convergence=False)
            except Exception as exc:  # a failed op is counted, the scan goes on
                error = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.close(sid)
            t1, c1 = time.perf_counter(), time.process_time()
            ops.append({"k": k, "wall": t1 - t0, "cpu": c1 - c0, "path": path,
                        "error": error})
        return {"ops": ops, "loop_wall": time.perf_counter() - start}

    result = {"untraced": scan("untraced", seconds / 2 if trace else seconds)}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["traced"] = scan("traced", seconds / 2, tracer)
        tracer.dump(os.path.join(workdir, "spans.json"), {"ops": len(result["traced"]["ops"])})
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], int(argv[2]))
        return 0
    if mode == "cli":
        return traced_cli(float(argv[1]), argv[2], argv[3:])
    if mode == "phase-scan":
        phase_scan_process(int(argv[1]), float(argv[2]), argv[3] == "1", argv[4])
        return 0
    print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
