"""Experiment orchestration: config ingestion, figure-level runs, export.

Configs are INI files with one section per module and unit-suffixed keys;
unknown keys are hard errors and missing keys take the documented
defaults. Every run of an experiment draws from its own counter-based
random stream, so results are a pure function of (config, master_seed)
and independent of execution order.
"""

from __future__ import annotations

import configparser
import io
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import physics
from .analysis import (
    FitError,
    FitResult,
    fit_exponential_survival,
    fit_relaxation,
    fit_relaxation_joint,
)
from .kinetics import HyperfineRates, MotRates, gillespie_mot, magnetic_trap_survival
from .sequence import PhysicsBundle, build_protocol, chain, compile_sequence, run_plan
from .signals import BurstModel, DetectorModel, PhotonTrace, synthesize_mot_trace
from .streams import run_stream

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Dataset",
    "EXPERIMENT_KINDS",
    "load_config",
    "parse_config",
    "serialize_config",
    "run_experiment",
    "export_dataset",
    "load_dataset_json",
]


class ConfigError(ValueError):
    pass


EXPERIMENT_KINDS = (
    "mot_monitor",
    "lifetime",
    "magnetic_lifetime",
    "transfer_efficiency",
    "detection_demo",
    "relaxation",
)

_DOPPLER_K = physics.AtomParams().doppler_temperature


def _positive(v):
    if v <= 0:
        raise ValueError("must be positive")
    return v


def _non_negative(v):
    if v < 0:
        raise ValueError("must be non-negative")
    return v


def _at_least_one(v):
    if v < 1:
        raise ValueError("must be >= 1")
    return v


def _seed(v):
    if not 0 <= v < 2**64:
        raise ValueError("must be in [0, 2**64)")
    return v


def _fraction(v):
    if not (0 <= v <= 1):
        raise ValueError("must be in [0, 1]")
    return v


def _unit_fraction(v):
    if not (0 < v <= 1):
        raise ValueError("must be in (0, 1]")
    return v


# section -> key -> (default, converter/validator)
_SCHEMA = {
    "experiment": {
        "kind": (None, str),
        "master_seed": (0, int),
        "repetitions": (None, int),
        "atoms_per_run": (None, int),
        "schedule_s": (None, str),
        "output_dir": (".", str),
        "loading_mode": ("perfect", str),
    },
    "trap": {
        "power_w": (2.5, float),
        "waist_m": (5e-6, float),
        "wavelength_m": (1.064e-6, float),
        "raman_suppression": (90.0, float),
        "intensity_averaging_factor": (0.125, float),
        "dipole_lifetime_s": (51.0, float),
        "magnetic_lifetime_s": (51.0, float),
    },
    "mot": {
        "loading_rate_per_s": (0.1, float),
        "one_body_loss_per_s": (0.02, float),
        "two_body_pair_rate_per_s": (0.0, float),
        "two_body_multiplicity": (2, int),
        "radius_m": (10e-6, float),
        "temperature_k": (_DOPPLER_K, float),
    },
    "detector": {
        "per_atom_rate_per_s": (1.6e4, float),
        "background_rate_per_s": (5e3, float),
        "bin_width_s": (0.1, float),
        "overlap_suppression": (0.3, float),
        "dipole_stray_rate_per_s": (5e3, float),
    },
    "burst": {
        "mean_photons_per_atom": (3.0, float),
        "background_photons_per_window": (0.5, float),
        "burst_duration_s": (400e-6, float),
        "detection_bin_s": (200e-6, float),
    },
    "sequence": {
        "overlap_s": (5e-3, float),
        "delay_s": (8e-3, float),
        "gap_s": (50e-6, float),
        "window_s": (2e-3, float),
    },
}

_RANGES = {
    ("experiment", "master_seed"): _seed,
    ("trap", "power_w"): _positive,
    ("trap", "waist_m"): _positive,
    ("trap", "wavelength_m"): _positive,
    ("trap", "raman_suppression"): _at_least_one,
    ("trap", "intensity_averaging_factor"): _unit_fraction,
    ("trap", "dipole_lifetime_s"): _positive,
    ("trap", "magnetic_lifetime_s"): _positive,
    ("mot", "loading_rate_per_s"): _non_negative,
    ("mot", "one_body_loss_per_s"): _non_negative,
    ("mot", "two_body_pair_rate_per_s"): _non_negative,
    ("mot", "radius_m"): _positive,
    ("mot", "temperature_k"): _positive,
    ("detector", "per_atom_rate_per_s"): _non_negative,
    ("detector", "background_rate_per_s"): _non_negative,
    ("detector", "bin_width_s"): _positive,
    ("detector", "overlap_suppression"): _fraction,
    ("detector", "dipole_stray_rate_per_s"): _non_negative,
    ("burst", "mean_photons_per_atom"): _non_negative,
    ("burst", "background_photons_per_window"): _non_negative,
    ("burst", "burst_duration_s"): _positive,
    ("burst", "detection_bin_s"): _positive,
    ("sequence", "overlap_s"): _positive,
    ("sequence", "delay_s"): _positive,
    ("sequence", "gap_s"): _positive,
    ("sequence", "window_s"): _positive,
}

# per-kind (schedule, repetitions, atoms_per_run) defaults
_KIND_DEFAULTS = {
    "lifetime": ([1, 5, 10, 20, 40, 60, 80], 100, 4),
    "magnetic_lifetime": ([1, 5, 10, 20, 40, 60, 80], 250, 4),
    "transfer_efficiency": ([1.0], 10000, 1),
    "relaxation": ([3, 4, 4.5, 5, 5.5, 6, 8, 12], 30, 3),
    "detection_demo": ([0.1], 1, 3),
    "mot_monitor": ([60.0], 1, 0),
}


@dataclass
class ExperimentConfig:
    kind: str
    master_seed: int
    repetitions: int
    atoms_per_run: int
    schedule: list[float]
    output_dir: str
    loading_mode: str
    trap: dict
    mot: dict
    detector: dict
    burst: dict
    sequence: dict

    # -- derived physics objects ------------------------------------------
    def beam(self) -> physics.GaussianBeam:
        return physics.GaussianBeam(
            power=self.trap["power_w"],
            waist=self.trap["waist_m"],
            wavelength=self.trap["wavelength_m"],
        )

    def trap_model(self) -> physics.TrapModel:
        return physics.TrapModel.from_beam(
            self.beam(),
            physics.AtomParams.cesium(),
            raman_suppression=self.trap["raman_suppression"],
            intensity_averaging_factor=self.trap["intensity_averaging_factor"],
        )

    def hyperfine_rates(self) -> HyperfineRates:
        rr = physics.effective_relaxation_rates(self.trap_model())
        return HyperfineRates(r_4to3=rr.r_4to3, r_3to4=rr.r_3to4)

    def mot_rates(self) -> MotRates:
        return MotRates(
            loading_rate_r=self.mot["loading_rate_per_s"],
            one_body_loss=self.mot["one_body_loss_per_s"],
            two_body_pair_rate=self.mot["two_body_pair_rate_per_s"],
            two_body_loss_multiplicity=self.mot["two_body_multiplicity"],
        )

    def detector_model(self) -> DetectorModel:
        return DetectorModel(
            per_atom_rate=self.detector["per_atom_rate_per_s"],
            background_rate=self.detector["background_rate_per_s"],
            bin_width=self.detector["bin_width_s"],
            overlap_suppression=self.detector["overlap_suppression"],
            dipole_stray_rate=self.detector["dipole_stray_rate_per_s"],
        )

    def burst_model(self) -> BurstModel:
        return BurstModel(
            mean_photons_per_atom=self.burst["mean_photons_per_atom"],
            background_photons_per_window=self.burst["background_photons_per_window"],
            burst_duration_mean=self.burst["burst_duration_s"],
            detection_bin=self.burst["detection_bin_s"],
        )

    def loading_efficiency(self) -> float:
        if self.loading_mode == "perfect":
            return 1.0
        cloud = physics.MotCloud(
            radius_r0=self.mot["radius_m"], temperature=self.mot["temperature_k"]
        )
        trap = self.trap_model()
        return physics.geometric_loading_efficiency(
            cloud.kinetic_energy, trap.depth_u0, trap.waist, cloud.radius_r0
        )

    def physics_bundle(self) -> PhysicsBundle:
        return PhysicsBundle(
            mot_rates=self.mot_rates(),
            hyperfine=self.hyperfine_rates(),
            detector=self.detector_model(),
            burst=self.burst_model(),
            dipole_lifetime=self.trap["dipole_lifetime_s"],
            magnetic_lifetime=self.trap["magnetic_lifetime_s"],
            loading_efficiency=self.loading_efficiency(),
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into a fully defaulted ExperimentConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, (default, conv) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    val = conv(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
            else:
                val = default
            if val is not None and (section, key) in _RANGES:
                try:
                    _RANGES[(section, key)](val)
                except ValueError as exc:
                    raise ConfigError(f"out-of-range value for {section}.{key}: {val} ({exc})") from exc
            values[section][key] = val

    exp = values["experiment"]
    kind = exp["kind"]
    if kind is None:
        raise ConfigError("missing required key experiment.kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")
    if exp["loading_mode"] not in ("perfect", "geometric"):
        raise ConfigError("experiment.loading_mode must be 'perfect' or 'geometric'")
    if values["mot"]["two_body_multiplicity"] not in (1, 2):
        raise ConfigError("mot.two_body_multiplicity must be 1 or 2")

    sched_default, reps_default, atoms_default = _KIND_DEFAULTS[kind]
    if exp["schedule_s"] is not None:
        try:
            schedule = [float(x) for x in str(exp["schedule_s"]).split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad schedule_s: {exp['schedule_s']!r}") from exc
    else:
        schedule = [float(x) for x in sched_default]
    if not schedule or any(t < 0 for t in schedule):
        raise ConfigError("schedule_s must be a non-empty list of non-negative times")
    repetitions = exp["repetitions"] if exp["repetitions"] is not None else reps_default
    if repetitions < 1:
        raise ConfigError("experiment.repetitions must be >= 1")
    atoms_per_run = exp["atoms_per_run"] if exp["atoms_per_run"] is not None else atoms_default
    if atoms_per_run < 0:
        raise ConfigError("experiment.atoms_per_run must be >= 0")

    return ExperimentConfig(
        kind=kind,
        master_seed=exp["master_seed"],
        repetitions=repetitions,
        atoms_per_run=atoms_per_run,
        schedule=schedule,
        output_dir=exp["output_dir"],
        loading_mode=exp["loading_mode"],
        trap=values["trap"],
        mot=values["mot"],
        detector=values["detector"],
        burst=values["burst"],
        sequence=values["sequence"],
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Echo of the full effective configuration, including applied defaults."""
    out = io.StringIO()
    out.write("[experiment]\n")
    out.write(f"kind = {cfg.kind}\n")
    out.write(f"master_seed = {cfg.master_seed}\n")
    out.write(f"repetitions = {cfg.repetitions}\n")
    out.write(f"atoms_per_run = {cfg.atoms_per_run}\n")
    out.write(f"schedule_s = {','.join(repr(t) for t in cfg.schedule)}\n")
    out.write(f"output_dir = {cfg.output_dir}\n")
    out.write(f"loading_mode = {cfg.loading_mode}\n")
    for section in ("trap", "mot", "detector", "burst", "sequence"):
        out.write(f"\n[{section}]\n")
        for key, value in getattr(cfg, section).items():
            out.write(f"{key} = {value!r}\n")
    return out.getvalue()


@dataclass
class Dataset:
    """Aggregated experiment outcome plus everything needed to reproduce it."""

    kind: str
    master_seed: int
    config_echo: str
    points: list[dict]
    fits: dict[str, FitResult] = field(default_factory=dict)
    run_counters: dict[str, list[int]] = field(default_factory=dict)
    traces: list[tuple[str, PhotonTrace]] = field(default_factory=list)


def _dataset(cfg: ExperimentConfig, points, counters, fits=None, traces=None) -> Dataset:
    return Dataset(
        kind=cfg.kind,
        master_seed=cfg.master_seed,
        config_echo=serialize_config(cfg),
        points=points,
        fits=fits or {},
        run_counters=counters,
        traces=traces or [],
    )


def _repeat(cfg: ExperimentConfig, arms) -> tuple[list[tuple[int, int]], dict[str, list[int]]]:
    """Run every arm cfg.repetitions times, each run on its own stream.

    arms: (run_counters key, run) pairs in schedule order, where run(rng)
    returns two counts to be summed over the repetitions. Run counters are
    consecutive across the arms. Returns the per-arm sums and the counters.
    """
    sums = []
    counters: dict[str, list[int]] = {}
    counter = 0
    for key, run in arms:
        used = list(range(counter, counter + cfg.repetitions))
        counter += cfg.repetitions
        a = b = 0
        for index in used:
            x, y = run(run_stream(cfg.master_seed, index))
            a += x
            b += y
        sums.append((a, b))
        counters[key] = used
    return sums, counters


def _survival_experiment(cfg: ExperimentConfig) -> Dataset:
    """Survival against hold time: magnetic-trap holds, or transfer -> hold -> recapture.

    A magnetic run applies the spin projection then exponential decay to the
    loaded atoms and counts against the atoms per run; a dipole run counts
    recaptured against prepared atoms. lifetime and magnetic_lifetime fit
    the decay.
    """
    if cfg.kind == "magnetic_lifetime":
        tau = cfg.trap["magnetic_lifetime_s"]
        load_p = cfg.loading_efficiency()

        def runs_at(t_hold):
            def run(rng):
                n0 = cfg.atoms_per_run
                if load_p < 1.0 and n0:
                    n0 = int(rng.binomial(n0, load_p))
                return magnetic_trap_survival(n0, tau, t_hold, rng), cfg.atoms_per_run
            return run
    else:
        bundle = cfg.physics_bundle()
        overlap = cfg.sequence["overlap_s"]

        def runs_at(t_hold):
            plan = compile_sequence(chain(
                build_protocol("transfer", overlap_s=overlap),
                t_hold,
                build_protocol("recapture", overlap_s=overlap),
            ))

            def run(rng):
                rec = run_plan(plan, cfg.atoms_per_run, bundle, rng)
                return rec.recaptured_n or 0, rec.prepared_n or 0
            return run
    sums, counters = _repeat(cfg, [(f"t={t!r}", runs_at(t)) for t in cfg.schedule])
    points = [
        {
            "t_hold_s": t_hold,
            "survived": survived,
            "total": total,
            "fraction": survived / total if total else 0.0,
        }
        for t_hold, (survived, total) in zip(cfg.schedule, sums)
    ]
    fits = {}
    if cfg.kind != "transfer_efficiency" and len(cfg.schedule) >= 2:
        fit_points = [(p["t_hold_s"], p["survived"], p["total"]) for p in points]
        fits["survival"] = fit_exponential_survival(
            fit_points, offset_free=cfg.kind == "magnetic_lifetime")
    return _dataset(cfg, points, counters, fits)


def _prepare_detect_plan(cfg: ExperimentConfig, f_init: int, t_hold: float):
    seqp = cfg.sequence
    return compile_sequence(chain(
        build_protocol(f"prepare_f{f_init}", overlap_s=seqp["overlap_s"], delay_s=seqp["delay_s"]),
        t_hold,
        build_protocol("detect", gap_s=seqp["gap_s"], window_s=seqp["window_s"]),
    ))


def _burst(rec) -> PhotonTrace:
    return next(tr for name, tr in rec.traces if name == "detect")


def _relaxation_experiment(cfg: ExperimentConfig) -> Dataset:
    bundle = cfg.physics_bundle()
    burst = cfg.burst_model()

    def arm(f_init, t_hold):
        plan = _prepare_detect_plan(cfg, f_init, t_hold)

        def run(rng):
            rec = run_plan(plan, cfg.atoms_per_run, bundle, rng)
            return int(_burst(rec).counts.sum()), rec.survivors or 0
        return run

    grid = [(t, f) for t in cfg.schedule for f in (3, 4)]
    sums, counters = _repeat(cfg, [(f"t={t!r},f={f}", arm(f, t)) for t, f in grid])
    points = []
    bg = burst.background_photons_per_window * cfg.repetitions
    for (t_hold, f_init), (total_counts, total_atoms) in zip(grid, sums):
        if total_atoms and burst.mean_photons_per_atom > 0:
            p4_hat = (total_counts - bg) / (burst.mean_photons_per_atom * total_atoms)
            p4_hat = min(max(p4_hat, 0.0), 1.0)
        else:
            p4_hat = 0.0
        points.append({"t_s": t_hold, "f_initial": f_init, "p4": p4_hat, "n": total_atoms})
    fits = {}
    arm3 = [(p["t_s"], p["p4"], p["n"]) for p in points if p["f_initial"] == 3 and p["n"] > 0]
    arm4 = [(p["t_s"], p["p4"], p["n"]) for p in points if p["f_initial"] == 4 and p["n"] > 0]
    # a per-arm fit raises FitError only on points that do not identify all
    # three parameters (a flat arm, say); the joint fit is the headline
    # estimator
    if len(arm3) >= 3:
        try:
            fits["relaxation_f3"] = fit_relaxation(arm3, f_initial=3)
        except FitError:
            pass
    if len(arm4) >= 3:
        try:
            fits["relaxation_f4"] = fit_relaxation(arm4, f_initial=4)
        except FitError:
            pass
    if arm3 and arm4:
        fits["relaxation_joint"] = fit_relaxation_joint(arm3, arm4)
    return _dataset(cfg, points, counters, fits)


def _mot_monitor_experiment(cfg: ExperimentConfig) -> Dataset:
    det = cfg.detector_model()
    rng = run_stream(cfg.master_seed, 0)
    duration = cfg.schedule[0]
    traj = gillespie_mot(cfg.mot_rates(), cfg.atoms_per_run, duration, rng)
    trace = synthesize_mot_trace(traj, det, overlap_windows=(), rng=rng)
    points = [
        {"time_s": float(t), "n_atoms": int(v)} for t, v in zip(traj.times, traj.values)
    ]
    return Dataset(
        kind=cfg.kind,
        master_seed=cfg.master_seed,
        config_echo=serialize_config(cfg),
        points=points,
        run_counters={"runs": [0]},
        traces=[("mot_monitor", trace)],
    )


def _detection_demo_experiment(cfg: ExperimentConfig) -> Dataset:
    bundle = cfg.physics_bundle()
    points = []
    traces = []
    counters: dict[str, list[int]] = {}
    for counter, f_init in enumerate((3, 4)):
        plan = _prepare_detect_plan(cfg, f_init, cfg.schedule[0])
        rec = run_plan(plan, cfg.atoms_per_run, bundle, run_stream(cfg.master_seed, counter))
        burst_trace = _burst(rec)
        traces.append((f"detect_f{f_init}", burst_trace))
        points.append(
            {
                "f_initial": f_init,
                "n_atoms": rec.survivors or 0,
                "window_counts": int(burst_trace.counts.sum()),
                "map_bright_atoms": rec.classification.map_k if rec.classification else 0,
            }
        )
        counters[f"f={f_init}"] = [counter]
    return _dataset(cfg, points, counters, traces=traces)


def run_experiment(cfg: ExperimentConfig) -> Dataset:
    if cfg.kind in ("lifetime", "magnetic_lifetime", "transfer_efficiency"):
        return _survival_experiment(cfg)
    if cfg.kind == "relaxation":
        return _relaxation_experiment(cfg)
    if cfg.kind == "mot_monitor":
        return _mot_monitor_experiment(cfg)
    if cfg.kind == "detection_demo":
        return _detection_demo_experiment(cfg)
    raise ConfigError(f"unknown experiment kind {cfg.kind!r}")


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _points_csv(ds: Dataset) -> str:
    if not ds.points:
        return "\n"
    cols = list(ds.points[0].keys())
    lines = [",".join(cols)]
    for p in ds.points:
        lines.append(",".join(repr(p[c]) if isinstance(p[c], float) else str(p[c]) for c in cols))
    return "\n".join(lines) + "\n"


def dataset_to_json(ds: Dataset) -> str:
    rec = {
        "kind": ds.kind,
        "master_seed": ds.master_seed,
        "config_echo": ds.config_echo,
        "points": ds.points,
        "fits": {name: json.loads(fit.to_json()) for name, fit in ds.fits.items()},
        "run_counters": ds.run_counters,
        "trace_names": [name for name, _ in ds.traces],
    }
    return json.dumps(rec, sort_keys=True, indent=2) + "\n"


def export_dataset(ds: Dataset, out_dir: str, formats=("csv", "json"), basename=None) -> list[str]:
    """Write the dataset; returns the list of file paths written.

    Output directory precedence: ATOMTRAP_OUTPUT_DIR environment variable,
    then the out_dir argument. Writes are atomic (temp file + rename).
    """
    out_dir = os.environ.get("ATOMTRAP_OUTPUT_DIR", out_dir)
    basename = basename or ds.kind
    written = []
    for fmt in formats:
        if fmt == "csv":
            path = os.path.join(out_dir, f"{basename}.csv")
            _atomic_write(path, _points_csv(ds))
            written.append(path)
        elif fmt == "json":
            path = os.path.join(out_dir, f"{basename}.json")
            _atomic_write(path, dataset_to_json(ds))
            written.append(path)
        else:
            raise ValueError(f"unknown export format {fmt!r}")
    for name, trace in ds.traces:
        path = os.path.join(out_dir, f"{basename}_{name}.csv")
        _atomic_write(path, trace.to_csv())
        written.append(path)
    return written


def load_dataset_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
