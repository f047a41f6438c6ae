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
import math
import os
import tempfile
from dataclasses import dataclass, field

from . import physics, streams
from .analysis import (
    FitError,
    FitResult,
    classify_burst,
    fit_exponential_survival,
    fit_relaxation,
    fit_relaxation_joint,
)
from .kinetics import HyperfineRates, MotRates, gillespie_mot, magnetic_trap_survival
from .sequence import PhysicsBundle, build_protocol, chain, compile_sequence, run_plan
from .signals import BurstModel, DetectorModel, PhotonTrace, synthesize_mot_trace

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


_DOPPLER_K = physics.AtomParams().doppler_temperature


def finite(raw: str) -> float:
    """The one float parser, for config values and CLI options: nan and +-inf
    pass no range check, so reject them here."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _checked(convert, ok, reason: str):
    """A parser that converts the raw text, then raises ValueError(reason) unless ok(value)."""
    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(reason)
        return value
    return parse


_positive = _checked(finite, lambda v: v > 0, "must be positive")
_non_negative = _checked(finite, lambda v: v >= 0, "must be non-negative")
_fraction = _checked(finite, lambda v: 0 <= v <= 1, "must be in [0, 1]")
_unit_fraction = _checked(finite, lambda v: 0 < v <= 1, "must be in (0, 1]")
_at_least_one = _checked(finite, lambda v: v >= 1, "must be >= 1")
_seed = _checked(int, lambda v: 0 <= v < 2**64, "must be in [0, 2**64)")
_repetitions = _checked(int, lambda v: v >= 1, "must be >= 1")
_atom_count = _checked(int, lambda v: v >= 0, "must be >= 0")
_multiplicity = _checked(int, lambda v: v in (1, 2), "must be 1 or 2")


def _schedule(raw: str) -> list[float]:
    times = [finite(x) for x in raw.split(",") if x.strip()]
    if not times or min(times) < 0:
        raise ValueError("must be a non-empty list of non-negative times")
    return times


# section -> key -> (default, parser); a parser converts the raw text and
# raises ValueError with the reason when the value is out of range. kind is
# required; the other defaults of None come from the kind's row of _KINDS.
_SCHEMA = {
    "experiment": {
        "kind": (None, str),
        "master_seed": (0, _seed),
        "repetitions": (None, _repetitions),
        "atoms_per_run": (None, _atom_count),
        "schedule_s": (None, _schedule),
        "output_dir": (".", str),
        "loading_mode": ("perfect", str),
    },
    "trap": {
        "power_w": (2.5, _positive),
        "waist_m": (5e-6, _positive),
        "wavelength_m": (1.064e-6, _positive),
        "raman_suppression": (90.0, _at_least_one),
        "intensity_averaging_factor": (0.125, _unit_fraction),
        "dipole_lifetime_s": (51.0, _positive),
        "magnetic_lifetime_s": (51.0, _positive),
    },
    "mot": {
        "loading_rate_per_s": (0.1, _non_negative),
        "one_body_loss_per_s": (0.02, _non_negative),
        "two_body_pair_rate_per_s": (0.0, _non_negative),
        "two_body_multiplicity": (2, _multiplicity),
        "radius_m": (10e-6, _positive),
        "temperature_k": (_DOPPLER_K, _positive),
    },
    "detector": {
        "per_atom_rate_per_s": (1.6e4, _non_negative),
        "background_rate_per_s": (5e3, _non_negative),
        "bin_width_s": (0.1, _positive),
        "overlap_suppression": (0.3, _fraction),
        "dipole_stray_rate_per_s": (5e3, _non_negative),
    },
    "burst": {
        "mean_photons_per_atom": (3.0, _non_negative),
        "background_photons_per_window": (0.5, _non_negative),
        "burst_duration_s": (400e-6, _positive),
        "detection_bin_s": (200e-6, _positive),
    },
    "sequence": {
        "overlap_s": (5e-3, _positive),
        "delay_s": (8e-3, _positive),
        "gap_s": (50e-6, _positive),
        "window_s": (2e-3, _positive),
    },
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
            physics.AtomParams(),
            raman_suppression=self.trap["raman_suppression"],
            intensity_averaging_factor=self.trap["intensity_averaging_factor"],
        )

    def hyperfine_rates(self) -> HyperfineRates:
        return physics.effective_relaxation_rates(self.trap_model())

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
        for key, (default, parse) in keys.items():
            if not parser.has_option(section, key):
                values[section][key] = default
                continue
            raw = parser.get(section, key)
            try:
                values[section][key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc

    exp = values["experiment"]
    kind = exp["kind"]
    if kind is None:
        raise ConfigError("missing required key experiment.kind")
    if kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")
    if exp["loading_mode"] not in ("perfect", "geometric"):
        raise ConfigError("experiment.loading_mode must be 'perfect' or 'geometric'")

    _, sched_default, reps_default, atoms_default = _KINDS[kind]
    schedule = exp["schedule_s"]
    if schedule is None:
        schedule = [float(t) for t in sched_default]
    repetitions = exp["repetitions"] if exp["repetitions"] is not None else reps_default
    if reps_default == 1 and repetitions != 1:
        raise ConfigError(f"experiment.repetitions must be 1 for {kind}, got {repetitions}")
    if reps_default == 1 and len(schedule) != 1:
        raise ConfigError(
            f"experiment.schedule_s must hold one time for {kind}, got {len(schedule)}")
    atoms_per_run = exp["atoms_per_run"] if exp["atoms_per_run"] is not None else atoms_default

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


def _repeat(cfg: ExperimentConfig, arms) -> tuple[list[list], dict[str, list[int]]]:
    """Run every arm cfg.repetitions times, each run on its own stream.

    The one place where the runner draws a random stream, for every kind.
    arms: (run_counters key, run) pairs in schedule order, where run(rng)
    returns the outcome of one run. Run counters are consecutive across the
    arms. Returns each arm's list of outcomes, in run order, and the counters.
    """
    outcomes = []
    counters: dict[str, list[int]] = {}
    counter = 0
    for key, run in arms:
        used = range(counter, counter + cfg.repetitions)
        counter += cfg.repetitions
        outcomes.append([run(streams.run_stream(cfg.master_seed, i)) for i in used])
        counters[key] = list(used)
    return outcomes, counters


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
    outcomes, counters = _repeat(cfg, [(f"t={t!r}", runs_at(t)) for t in cfg.schedule])
    points = []
    for t_hold, runs in zip(cfg.schedule, outcomes):
        survived, total = map(sum, zip(*runs))
        points.append({"t_hold_s": t_hold, "survived": survived, "total": total,
                       "fraction": survived / total if total else 0.0})
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
    burst = bundle.burst

    def arm(f_init, t_hold):
        plan = _prepare_detect_plan(cfg, f_init, t_hold)

        def run(rng):
            rec = run_plan(plan, cfg.atoms_per_run, bundle, rng)
            return int(_burst(rec).counts.sum()), rec.survivors or 0
        return run

    grid = [(t, f) for t in cfg.schedule for f in (3, 4)]
    outcomes, counters = _repeat(cfg, [(f"t={t!r},f={f}", arm(f, t)) for t, f in grid])
    points = []
    bg = burst.background_photons_per_window * cfg.repetitions
    for (t_hold, f_init), runs in zip(grid, outcomes):
        total_counts, total_atoms = map(sum, zip(*runs))
        if total_atoms and burst.mean_photons_per_atom > 0:
            p4_hat = (total_counts - bg) / (burst.mean_photons_per_atom * total_atoms)
            p4_hat = min(max(p4_hat, 0.0), 1.0)
        else:
            p4_hat = 0.0
        points.append({"t_s": t_hold, "f_initial": f_init, "p4": p4_hat, "n": total_atoms})
    fits = {}
    arm3, arm4 = ([(p["t_s"], p["p4"], p["n"]) for p in points
                   if p["f_initial"] == f and p["n"] > 0] for f in (3, 4))
    # a per-arm fit raises FitError only on points that do not identify all
    # three parameters (a flat arm, say); the joint fit is the headline
    # estimator
    for f_init, arm_points in ((3, arm3), (4, arm4)):
        if len(arm_points) >= 3:
            try:
                fits[f"relaxation_f{f_init}"] = fit_relaxation(arm_points, f_initial=f_init)
            except FitError:
                pass
    if arm3 and arm4:
        fits["relaxation_joint"] = fit_relaxation_joint(arm3, arm4)
    return _dataset(cfg, points, counters, fits)


def _mot_monitor_experiment(cfg: ExperimentConfig) -> Dataset:
    det = cfg.detector_model()

    def run(rng):
        traj = gillespie_mot(cfg.mot_rates(), cfg.atoms_per_run, cfg.schedule[0], rng)
        return traj, synthesize_mot_trace(traj, det, rng)

    [[(traj, trace)]], counters = _repeat(cfg, [("runs", run)])
    points = [
        {"time_s": float(t), "n_atoms": int(v)} for t, v in zip(traj.times, traj.values)
    ]
    return _dataset(cfg, points, counters, traces=[("mot_monitor", trace)])


def _detection_demo_experiment(cfg: ExperimentConfig) -> Dataset:
    """One prepare -> hold -> detect run per prepared state; the burst is
    classified here, against the atoms in the trap when the detection starts."""
    bundle = cfg.physics_bundle()

    def arm(f_init):
        plan = _prepare_detect_plan(cfg, f_init, cfg.schedule[0])

        def run(rng):
            rec = run_plan(plan, cfg.atoms_per_run, bundle, rng)
            return rec.final_n, _burst(rec)
        return run

    outcomes, counters = _repeat(cfg, [(f"f={f}", arm(f)) for f in (3, 4)])
    points = []
    traces = []
    for f_init, [(n_atoms, burst_trace)] in zip((3, 4), outcomes):
        window_counts = int(burst_trace.counts.sum())
        traces.append((f"detect_f{f_init}", burst_trace))
        points.append({
            "f_initial": f_init,
            "n_atoms": n_atoms,
            "window_counts": window_counts,
            "map_bright_atoms": classify_burst(window_counts, n_atoms, bundle.burst).map_k,
        })
    return _dataset(cfg, points, counters, traces=traces)


# kind -> (driver, default schedule_s, default repetitions, default
# atoms_per_run). A kind whose default is one repetition runs once at one
# time: parse_config rejects other repetitions and further schedule entries.
_KINDS = {
    "mot_monitor": (_mot_monitor_experiment, [60.0], 1, 0),
    "lifetime": (_survival_experiment, [1, 5, 10, 20, 40, 60, 80], 100, 4),
    "magnetic_lifetime": (_survival_experiment, [1, 5, 10, 20, 40, 60, 80], 250, 4),
    "transfer_efficiency": (_survival_experiment, [1.0], 10000, 1),
    "detection_demo": (_detection_demo_experiment, [0.1], 1, 3),
    "relaxation": (_relaxation_experiment, [3, 4, 4.5, 5, 5.5, 6, 8, 12], 30, 3),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> Dataset:
    if cfg.kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    return _KINDS[cfg.kind][0](cfg)


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


def export_dataset(ds: Dataset, out_dir: str, formats=("csv", "json")) -> list[str]:
    """Write the dataset; returns the list of file paths written.

    Files are named after the experiment kind. Output directory precedence:
    ATOMTRAP_OUTPUT_DIR environment variable, then the out_dir argument.
    Writes are atomic (temp file + rename).
    """
    out_dir = os.environ.get("ATOMTRAP_OUTPUT_DIR", out_dir)
    written = []
    for fmt in formats:
        if fmt == "csv":
            path = os.path.join(out_dir, f"{ds.kind}.csv")
            _atomic_write(path, _points_csv(ds))
            written.append(path)
        elif fmt == "json":
            path = os.path.join(out_dir, f"{ds.kind}.json")
            _atomic_write(path, dataset_to_json(ds))
            written.append(path)
        else:
            raise ValueError(f"unknown export format {fmt!r}")
    for name, trace in ds.traces:
        path = os.path.join(out_dir, f"{ds.kind}_{name}.csv")
        _atomic_write(path, trace.to_csv())
        written.append(path)
    return written


def load_dataset_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
