"""In-process tracing of atomtrap's public functions for the benchmark's traced run.

Each target is wrapped at every name under which an atomtrap module holds it,
so calls made through ``from .x import f`` bindings (``atomtrap.runner.simulate_sequence``,
``atomtrap.sequence.gillespie_mot``, ...) are seen as well as module-global
lookups. Spans are kept in memory with parent links and folded into per-name
totals after each op; a span's self time is its duration minus the time its
child spans cover. A target that no longer exists is skipped and reports zero
calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter


def _bins(args, out):
    return {"bins": len(out.counts)}


def _input_bytes(args, out):
    # from_csv is wrapped below its classmethod, so args[0] is the class
    src = args[1]
    if isinstance(src, str) and "\n" in src:
        return {"bytes": len(src)}
    if isinstance(src, (str, os.PathLike)):
        return {"bytes": os.path.getsize(src)}
    return {}


def _export_bytes(args, out):
    return {"bytes": sum(os.path.getsize(p) for p in out)}


def _gillespie_events(args, out):
    return {"events": len(out.times) - 1}


def _segmentation(args, out):
    return {"bins": out.n_bins, "change_points": len(out.change_points)}


def _text_bytes(args, out):
    return {"bytes": len(out)}


# (layer module, qualified name, work counter mapping (args, result) -> counts)
TARGETS = (
    ("streams", "run_stream", None),
    ("physics", "effective_relaxation_rates", None),
    ("kinetics", "gillespie_mot", _gillespie_events),
    ("kinetics", "dipole_survival", None),
    ("kinetics", "magnetic_trap_survival", None),
    ("kinetics", "hyperfine_telegraph", None),
    ("signals", "synthesize_counts", _bins),
    ("signals", "synthesize_mot_trace", _bins),
    ("signals", "synthesize_detection_burst", _bins),
    ("signals", "PhotonTrace.to_csv", _text_bytes),
    ("signals", "PhotonTrace.from_csv", _input_bytes),
    ("analysis", "detect_steps", _segmentation),
    ("analysis", "infer_atom_numbers", None),
    ("analysis", "classify_burst", None),
    ("analysis", "fit_exponential_survival", None),
    ("analysis", "fit_relaxation", None),
    ("analysis", "fit_relaxation_joint", None),
    ("sequence", "validate_sequence", None),
    ("sequence", "simulate_sequence", None),
    ("runner", "parse_config", None),
    ("runner", "run_experiment", None),
    ("runner", "export_dataset", _export_bytes),
)


def _atomtrap_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "atomtrap" or name.startswith("atomtrap."))]


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores them."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn, counter):
        spans, stack, totals = self._spans, self._stack, self.totals
        calls_key, failed_key = f"{name}.calls", f"{name}.failed"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            totals[calls_key] += 1
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[2] = perf_counter()
                stack.pop()
                totals[failed_key] += 1
                raise
            span[2] = perf_counter()
            stack.pop()
            if counter is not None:
                for key, value in counter(args, out).items():
                    totals[f"{name}.{key}"] += value
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = _atomtrap_modules()
        for layer, qualname, counter in TARGETS:
            name = f"{layer}.{qualname}"
            try:
                owner = importlib.import_module(f"atomtrap.{layer}")
            except ImportError:
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                continue
            if inspect.isclass(owner):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------
    def call(self, name, fn, *args):
        """Run fn(*args) as a root span called ``name`` and fold its spans."""
        try:
            return self._wrap(name, fn, None)(*args)
        finally:
            self._fold()

    def _fold(self) -> None:
        spans = self._spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            self.totals[f"{name}.self_s"] += (end - start) - child[i]
        spans.clear()
