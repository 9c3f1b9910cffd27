"""Outside-in span tracer for combhom.

Wraps each layer's functions at the name its callers bind (for example
``combhom.cli.sweep_fft`` and ``combhom.engine.sweep_fft`` separately), so the
program itself is not edited.  Spans stay in memory and are written out once,
when the traced process ends.  Allocation peaks come from ``tracemalloc``,
which runs only while an assembly span is open, so Python-heavy layers are
not slowed by it.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import sys
import time
import tracemalloc

# (owner, attribute, span name); the owner is "module" or "module:Class".
# Every binding a caller looks up is listed, so a call through any of them is
# seen once.
TARGETS = [
    ("combhom.cli", "main", "cli.main"),
    ("combhom.cli", "run_sweep", "cli.run_sweep"),
    ("combhom.cli", "run_verify", "cli.run_verify"),
    ("combhom.cli", "_config_from_args", "config.from_args"),
    ("combhom.cli", "preset_config", "config.preset_config"),
    ("combhom.cli", "load_config", "config.load_config"),
    ("combhom.config", "config_from_text", "config.config_from_text"),
    ("combhom.config", "preset_config", "config.preset_config"),
    ("combhom.cli", "sweep_fft", "engine.sweep_fft"),
    ("combhom.cli", "sweep_direct", "engine.sweep_direct"),
    ("combhom.engine", "sweep_fft", "engine.sweep_fft"),
    ("combhom.engine", "sweep_direct", "engine.sweep_direct"),
    ("combhom.engine", "convergence_report", "engine.convergence_report"),
    ("combhom.engine", "build_jsa", "spectral.build_jsa"),
    ("combhom.engine", "czt", "engine.czt"),
    ("combhom.engine:_EngineArrays", "build", "engine.assemble"),
    ("combhom.engine:_EngineArrays", "interference", "engine.interference"),
    ("combhom.engine:_EngineArrays", "anti_diagonal_profile", "engine.collapse"),
    ("combhom.feynman", "relative_rate", "feynman.relative_rate"),
    ("combhom.oracles", "brute_force_schemes", "oracles.brute_force_schemes"),
    ("combhom.oracles", "hom_closed_form", "oracles.hom_closed_form"),
    ("combhom.oracles", "mean_transfer_intensity", "oracles.mean_transfer_intensity"),
]

# Spans whose allocation high-water mark is recorded.
MEMORY_SPANS = {"engine.assemble", "spectral.build_jsa"}


def _grid_note(args, kwargs, result):
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return {"n": grid.points_per_axis}


def _sweep_note(args, kwargs, result):
    sweep = kwargs.get("sweep", args[2] if len(args) > 2 else None)
    meta = result.metadata
    return {"delays": sweep.steps,
            "fallback": bool(meta.get("fft_fallback", False)),
            "mismatch": meta.get("fft_check_mismatch")}


NOTES = {"spectral.build_jsa": _grid_note, "engine.assemble": _grid_note,
         "engine.sweep_fft": _sweep_note, "engine.sweep_direct": _sweep_note}


def _resolve(owner: str):
    module_path, _, cls = owner.partition(":")
    module = importlib.import_module(module_path)
    return getattr(module, cls) if cls else module


class Tracer:
    """Collects spans [id, name, start, end, parent id, op id, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.verify_lines: list = []   # (time, line) per line run_verify writes
        self.op = 0
        self._mem: list[list[int]] = []  # [base, peak] per open memory span

    def _fold_peak(self):
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()

    def open(self, name: str, start: float | None = None) -> int:
        if name in MEMORY_SPANS:
            if not self._mem:
                tracemalloc.start()
            self._fold_peak()
            current = tracemalloc.get_traced_memory()[0]
            self._mem.append([current, current])
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, time.perf_counter() if start is None else start,
                           None, parent, self.op, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, note: dict | None = None):
        span = self.spans[sid]
        span[3] = time.perf_counter()
        self.stack.pop()
        if span[1] in MEMORY_SPANS:
            self._fold_peak()
            base, peak = self._mem.pop()
            note = dict(note or {}, peak_bytes=peak - base)
            if not self._mem:
                tracemalloc.stop()
        span[6] = note

    def wrap(self, owner, attr: str, name: str):
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.close(sid, {"error": True})
                raise
            details = None
            if note is not None:
                try:
                    details = note(args[1:] if is_classmethod else args, kwargs, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    details = {"note_error": repr(exc)}  # a changed signature must not stop the run
            tracer.close(sid, details)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        for owner, attr, name in TARGETS:
            try:
                resolved = _resolve(owner)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            self.wrap(resolved, attr, name)

        # Per-check verify time: stamp each line run_verify writes to `out`.
        cli = _resolve("combhom.cli")
        run_verify = vars(cli).get("run_verify")
        if run_verify is None:
            return

        def stamped(quick=False, out=None):
            stream = _StampedStream(out if out is not None else sys.stdout)
            self.verify_lines.append((time.perf_counter(), None))
            stream.lines = self.verify_lines
            return run_verify(quick=quick, out=stream)

        cli.run_verify = stamped

    def dump(self, path: str, extra: dict):
        payload = dict(extra, spans=self.spans, missing=self.missing,
                       verify_lines=self.verify_lines)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _StampedStream(io.TextIOBase):
    """Passes text through and records (time, line) for every full line."""

    def __init__(self, target):
        self.target = target
        self.lines: list = []
        self._partial = ""

    def write(self, text: str) -> int:
        self.target.write(text)
        self._partial += text
        *done, self._partial = self._partial.split("\n")
        now = time.perf_counter()
        self.lines.extend((now, line) for line in done)
        return len(text)

    def flush(self):
        self.target.flush()
