"""Benchmark workloads: configs per master seed, one op each, and its correctness gate.

Every op calls atomtrap through module attributes (``runner.run_experiment``,
``analysis.detect_steps``, ...) so that the traced run sees the calls.
An op returns the run_stream indices it consumed, the files it exported and
the list of correctness checks it failed (empty when the output is correct).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from atomtrap import analysis, runner, signals

# Storage fits are plain binomial MLEs with calibrated errors: 6 standard
# errors is a ~1e-9 two-sided chance for a correct program.
SE_BAND = 6.0
# The relaxation p4 points carry photon shot noise the binomial fit does not
# model, so its standard errors under-report the seed-to-seed scatter
# (~12 % on tau, ~0.03 on p4_eq over master seeds 0-59). The bands are
# therefore absolute, 3.5 to 4 times that scatter wide, and not a coverage
# test; swapped branching ratios (p4_eq = 7/16) fall outside them.
RELAX_TAU_REL = 0.5
RELAX_P4_EQ_HALF_WIDTH = 0.10
P4_EQ_TRUTH = 9.0 / 16.0
SPIN_PROJECTION = 0.5
# criterion 11's per-bin accuracy level
STAIRCASE_ACCURACY = 0.99


@dataclass
class OpResult:
    runs: int
    paths: list[str]
    problems: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[tuple[str, str], ...]  # (experiment kind, extra INI lines)
    cycle_length: int
    op: Callable[[list, dict, str], OpResult]
    truth: Callable[[list], dict]

    def config_texts(self, master_seed: int) -> list[str]:
        return [f"[experiment]\nkind = {kind}\nmaster_seed = {master_seed}\n{extra}"
                for kind, extra in self.configs]

    def cycle(self, seed: int) -> list[int]:
        """Master seeds in op order: the fixed cycle 0..L-1 rotated by the workload seed."""
        offset = seed % self.cycle_length
        return [(offset + i) % self.cycle_length for i in range(self.cycle_length)]

    def parse(self, seed: int) -> dict[int, list]:
        return {ms: [runner.parse_config(text) for text in self.config_texts(ms)]
                for ms in self.cycle(seed)}


def _runs(ds) -> int:
    return sum(len(used) for used in ds.run_counters.values())


def _se_band(problems, label, fit, name, truth):
    value, se = fit.parameters[name], fit.standard_errors[name]
    if not (math.isfinite(se) and se > 0 and abs(value - truth) <= SE_BAND * se):
        problems.append(f"{label} {name} = {value:.6g} +/- {se:.3g}, expected {truth:.6g}")


def _storage_truth(cfgs):
    lifetime, magnetic = cfgs
    return {"tau": lifetime.trap["dipole_lifetime_s"],
            "tau_magnetic": magnetic.trap["magnetic_lifetime_s"]}


def storage_op(cfgs, truth, work_dir) -> OpResult:
    lifetime, magnetic = (runner.run_experiment(cfg) for cfg in cfgs)
    paths = runner.export_dataset(lifetime, work_dir) + runner.export_dataset(magnetic, work_dir)
    problems: list[str] = []
    _se_band(problems, "lifetime", lifetime.fits["survival"], "tau", truth["tau"])
    fit = magnetic.fits["survival"]
    _se_band(problems, "magnetic_lifetime", fit, "tau", truth["tau_magnetic"])
    _se_band(problems, "magnetic_lifetime", fit, "a", SPIN_PROJECTION)
    return OpResult(_runs(lifetime) + _runs(magnetic), paths, problems)


def _relaxation_truth(cfgs):
    return {"tau": 1.0 / cfgs[0].hyperfine_rates().total}


def relaxation_op(cfgs, truth, work_dir) -> OpResult:
    (cfg,) = cfgs
    ds = runner.run_experiment(cfg)
    paths = runner.export_dataset(ds, work_dir)
    fit = ds.fits["relaxation_joint"]
    tau, p4_eq = fit.parameters["tau"], fit.parameters["p4_eq"]
    problems = []
    if not abs(tau / truth["tau"] - 1.0) <= RELAX_TAU_REL:
        problems.append(f"joint tau = {tau:.6g}, expected {truth['tau']:.6g} "
                        f"+/- {RELAX_TAU_REL:.0%}")
    if not abs(p4_eq - P4_EQ_TRUTH) <= RELAX_P4_EQ_HALF_WIDTH:
        problems.append(f"joint p4_eq = {p4_eq:.6g}, expected {P4_EQ_TRUTH} "
                        f"+/- {RELAX_P4_EQ_HALF_WIDTH}")
    return OpResult(_runs(ds), paths, problems)


def staircase_op(cfgs, truth, work_dir) -> OpResult:
    (cfg,) = cfgs
    ds = runner.run_experiment(cfg)
    paths = runner.export_dataset(ds, work_dir)
    by_name = {os.path.basename(p): p for p in paths}
    trace = signals.PhotonTrace.from_csv(by_name[f"{cfg.kind}_{cfg.kind}.csv"])
    seg = analysis.infer_atom_numbers(analysis.detect_steps(trace), cfg.detector_model())
    # score against the trajectory as exported, not the in-memory dataset
    points = runner.load_dataset_json(by_name[f"{cfg.kind}.json"])["points"]
    times = np.array([p["time_s"] for p in points])
    n_atoms = np.array([p["n_atoms"] for p in points])
    mids = trace.t0 + (np.arange(len(trace.counts)) + 0.5) * trace.bin_width
    expected = n_atoms[np.searchsorted(times, mids, side="right") - 1]
    inferred = np.repeat(seg.inferred_n, np.diff(seg.boundaries))
    accuracy = float(np.mean(inferred == expected))
    problems = []
    if accuracy < STAIRCASE_ACCURACY:
        problems.append(f"per-bin accuracy {accuracy:.5f} < {STAIRCASE_ACCURACY}")
    return OpResult(_runs(ds), paths, problems)


# Every cycle holds at least 20 ops, so op_tail_s of a one-cycle run lies
# above the median. A 30 s run holds several storage and staircase cycles and
# one relaxation cycle (30-35 s on a 2-core Xeon).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("storage", (("lifetime", ""), ("magnetic_lifetime", "")), 20,
                 storage_op, _storage_truth),
        Workload("relaxation", (("relaxation", ""),), 24, relaxation_op, _relaxation_truth),
        Workload("staircase", (("mot_monitor", "schedule_s = 3600\n"),), 20,
                 staircase_op, lambda cfgs: {}),
    )
}
