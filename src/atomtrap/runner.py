"""Experiment orchestration: config ingestion, figure-level runs, export.

Configs are INI files with one section per module and unit-suffixed keys;
unknown keys are hard errors and missing keys take the documented
defaults. Every arm of an experiment (one schedule point, say) draws all
of its runs from its own counter-based random stream, so results are a
pure function of (config, master_seed) and independent of execution order.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

from . import physics, streams
from .analysis import (
    FitResult,
    classify_burst,
    fit_exponential_survival,
    fit_relaxation_joint,
)
from .kinetics import HyperfineRates, MotRates, gillespie_mot
from .sequence import (PROTOCOL_DEFAULTS, Phase, PhysicsBundle, SequencePlan, bind_plan,
                       build_protocol, chain, compile_sequence)
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


def finite(raw: str) -> float:
    """The one float parser, for config values and CLI options: nan and +-inf
    pass no range check, so reject them here."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _checked(convert, ok, reason: str, name: str):
    """A parser that converts the raw text, then raises ValueError(reason)
    unless ok(value); name is what argparse prints when a CLI option fails it."""
    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(reason)
        return value
    parse.__name__ = name
    return parse


positive = _checked(finite, lambda v: v > 0, "must be positive", "positive")
non_negative = _checked(finite, lambda v: v >= 0, "must be non-negative", "non_negative")
count = _checked(int, lambda v: v >= 0, "must be >= 0", "count")
seed = _checked(int, lambda v: 0 <= v < 2**64, "must be in [0, 2**64)", "seed")
_unit_fraction = _checked(finite, lambda v: 0 < v <= 1, "must be in (0, 1]", "unit_fraction")
_at_least_one = _checked(finite, lambda v: v >= 1, "must be >= 1", "at_least_one")
_repetitions = _checked(int, lambda v: v >= 1, "must be >= 1", "repetitions")
_multiplicity = _checked(int, lambda v: v in (1, 2), "must be 1 or 2", "multiplicity")
_loading_mode = _checked(str, lambda v: v in ("perfect", "geometric"),
                         "must be 'perfect' or 'geometric'", "loading_mode")


def _physical(check):
    """finite, then check(value), the physics layer's own check: it raises ValueError."""
    def parse(raw: str) -> float:
        value = finite(raw)
        check(value)
        return value
    return parse


_cloud_radius = _physical(lambda r: physics.MotCloud(radius_r0=r))
_red_detuned = _physical(lambda w: physics.check_red_detuned(w, physics.AtomParams()))


def _schedule(raw: str) -> list[float]:
    times = [finite(x) for x in raw.split(",") if x.strip()]
    if not times or min(times) < 0:
        raise ValueError("must be a non-empty list of non-negative times")
    return times


# The [experiment] defaults by ExperimentConfig field. kind is required;
# the other defaults of None come from the kind's row of _KINDS.
_EXPERIMENT = {"kind": None, "master_seed": 0, "repetitions": None, "atoms_per_run": None,
               "schedule": None, "output_dir": ".", "loading_mode": "perfect"}

# section -> key -> (owner, field, parser). owner is the model class whose
# field the key sets, or a dict of defaults keyed by field; the key's default
# is that attribute or entry. A parser converts the raw text and raises
# ValueError with the reason when the value is out of range.
_SCHEMA = {
    "experiment": {
        "kind": (_EXPERIMENT, "kind", str),
        "master_seed": (_EXPERIMENT, "master_seed", seed),
        "repetitions": (_EXPERIMENT, "repetitions", _repetitions),
        "atoms_per_run": (_EXPERIMENT, "atoms_per_run", count),
        "schedule_s": (_EXPERIMENT, "schedule", _schedule),
        "output_dir": (_EXPERIMENT, "output_dir", str),
        "loading_mode": (_EXPERIMENT, "loading_mode", _loading_mode),
    },
    "trap": {
        "power_w": (physics.GaussianBeam, "power", positive),
        "waist_m": (physics.GaussianBeam, "waist", positive),
        "wavelength_m": (physics.GaussianBeam, "wavelength", _red_detuned),
        "raman_suppression": (physics.TrapModel, "raman_suppression", _at_least_one),
        "intensity_averaging_factor": (physics.TrapModel, "intensity_averaging_factor",
                                       _unit_fraction),
        "dipole_lifetime_s": (PhysicsBundle, "dipole_lifetime", positive),
        "magnetic_lifetime_s": (PhysicsBundle, "magnetic_lifetime", positive),
    },
    "mot": {
        "loading_rate_per_s": (MotRates, "loading_rate_r", non_negative),
        "one_body_loss_per_s": (MotRates, "one_body_loss", non_negative),
        "two_body_pair_rate_per_s": (MotRates, "two_body_pair_rate", non_negative),
        "two_body_multiplicity": (MotRates, "two_body_loss_multiplicity", _multiplicity),
        "radius_m": (physics.MotCloud, "radius_r0", _cloud_radius),
        "temperature_k": (physics.MotCloud, "temperature", positive),
    },
    "detector": {
        "per_atom_rate_per_s": (DetectorModel, "per_atom_rate", non_negative),
        "background_rate_per_s": (DetectorModel, "background_rate", non_negative),
        "bin_width_s": (DetectorModel, "bin_width", positive),
    },
    "burst": {
        "mean_photons_per_atom": (BurstModel, "mean_photons_per_atom", non_negative),
        "background_photons_per_window": (BurstModel, "background_photons_per_window",
                                          non_negative),
        "burst_duration_s": (BurstModel, "burst_duration_mean", positive),
        "detection_bin_s": (BurstModel, "detection_bin", positive),
    },
    "sequence": {key: (PROTOCOL_DEFAULTS, key, positive) for key in PROTOCOL_DEFAULTS},
}


def _default(owner, name: str):
    """The default of a _SCHEMA row: the owner's entry or attribute name."""
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


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

    def _fields(self, owner) -> dict:
        """The values of the keys whose _SCHEMA row names owner, by field name."""
        return {name: getattr(self, section)[key] for section, rows in _SCHEMA.items()
                for key, (row_owner, name, _) in rows.items() if row_owner is owner}

    # -- derived physics objects ------------------------------------------
    def beam(self) -> physics.GaussianBeam:
        return physics.GaussianBeam(**self._fields(physics.GaussianBeam))

    def trap_model(self) -> physics.TrapModel:
        return physics.TrapModel.from_beam(self.beam(), physics.AtomParams(),
                                           **self._fields(physics.TrapModel))

    def hyperfine_rates(self) -> HyperfineRates:
        return physics.effective_relaxation_rates(self.trap_model())

    def mot_rates(self) -> MotRates:
        return MotRates(**self._fields(MotRates))

    def detector_model(self) -> DetectorModel:
        return DetectorModel(**self._fields(DetectorModel))

    def burst_model(self) -> BurstModel:
        return BurstModel(**self._fields(BurstModel))

    def loading_efficiency(self) -> float:
        if self.loading_mode == "perfect":
            return 1.0
        cloud = physics.MotCloud(**self._fields(physics.MotCloud))
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
            loading_efficiency=self.loading_efficiency(),
            **self._fields(PhysicsBundle),
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
    for section, rows in _SCHEMA.items():
        values[section] = {}
        for key, (owner, name, parse) in rows.items():
            if not parser.has_option(section, key):
                values[section][key] = _default(owner, name)
                continue
            raw = parser.get(section, key)
            try:
                values[section][key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc

    given = values.pop("experiment")
    exp = {name: given[key] for key, (_, name, _) in _SCHEMA["experiment"].items()}
    kind = exp["kind"]
    if kind is None:
        raise ConfigError("missing required key experiment.kind")
    if kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")

    _, sched_default, reps_default, atoms_default = _KINDS[kind]
    if exp["schedule"] is None:
        exp["schedule"] = [float(t) for t in sched_default]
    if exp["repetitions"] is None:
        exp["repetitions"] = reps_default
    if exp["atoms_per_run"] is None:
        exp["atoms_per_run"] = atoms_default
    if reps_default == 1 and exp["repetitions"] != 1:
        raise ConfigError(
            f"experiment.repetitions must be 1 for {kind}, got {exp['repetitions']}")
    if reps_default == 1 and len(exp["schedule"]) != 1:
        raise ConfigError(
            f"experiment.schedule_s must hold one time for {kind}, got {len(exp['schedule'])}")
    return ExperimentConfig(**exp, **values)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Echo of the full effective configuration, including applied defaults.

    A list is written as its comma-joined reprs, a str as itself, anything
    else as its repr.
    """
    blocks = []
    for section, rows in _SCHEMA.items():
        lines = [f"[{section}]\n"]
        for key, (_, name, _) in rows.items():
            value = getattr(cfg, name) if section == "experiment" else getattr(cfg, section)[key]
            if isinstance(value, list):
                value = ",".join(map(repr, value))
            elif not isinstance(value, str):
                value = repr(value)
            lines.append(f"{key} = {value}\n")
        blocks.append("".join(lines))
    return "\n".join(blocks)


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


def _repeat(cfg: ExperimentConfig, arms) -> tuple[list, dict[str, list[int]]]:
    """Run every arm once, on its own stream.

    The one place where the runner makes a random stream, for every kind.
    arms: (run_counters key, run) pairs in schedule order, where run(rng)
    draws the arm's cfg.repetitions runs from rng and returns their
    outcome. Each arm owns the next cfg.repetitions run counters, so the
    counters are consecutive across the arms, and its stream is
    run_stream(master_seed, the first of them). Returns each arm's outcome
    and the counters.
    """
    outcomes = []
    counters: dict[str, list[int]] = {}
    counter = 0
    for key, run in arms:
        counters[key] = list(range(counter, counter + cfg.repetitions))
        outcomes.append(run(streams.run_stream(cfg.master_seed, counter)))
        counter += cfg.repetitions
    return outcomes, counters


def _survival_experiment(cfg: ExperimentConfig) -> Dataset:
    """Survival against hold time: magnetic-trap holds, or transfer -> hold -> recapture.

    A magnetic arm holds the atoms per run, which no dipole-trap transfer
    loads, and counts the survivors against them; a dipole arm counts
    recaptured against prepared atoms. lifetime and magnetic_lifetime fit
    the decay.
    """
    bundle = cfg.physics_bundle()
    overlap = cfg.sequence["overlap_s"]

    def arm(t_hold):
        if cfg.kind == "magnetic_lifetime":
            plan = SequencePlan((Phase("magnetic_hold", t_hold, prepared_state="mixed"),))
        else:
            plan = compile_sequence(chain(build_protocol("transfer", overlap_s=overlap), t_hold,
                                          build_protocol("recapture", overlap_s=overlap)))
        bound = bind_plan(plan, bundle)

        def run(rng):
            rec = bound(cfg.atoms_per_run, rng, cfg.repetitions)
            survived = rec.survivors if cfg.kind == "magnetic_lifetime" else rec.recaptured_n
            return int(survived.sum()), int(rec.prepared_n.sum())
        return run
    outcomes, counters = _repeat(cfg, [(f"t={t!r}", arm(t)) for t in cfg.schedule])
    points = []
    for t_hold, (survived, total) in zip(cfg.schedule, outcomes):
        points.append({"t_hold_s": t_hold, "survived": survived, "total": total,
                       "fraction": survived / total if total else 0.0})
    fits = {}
    if cfg.kind != "transfer_efficiency" and len(cfg.schedule) >= 2:
        fit_points = [(p["t_hold_s"], p["survived"], p["total"]) for p in points]
        fits["survival"] = fit_exponential_survival(
            fit_points, offset_free=cfg.kind == "magnetic_lifetime")
    return _dataset(cfg, points, counters, fits)


def _detect_arm(cfg: ExperimentConfig, bundle: PhysicsBundle, f_init: int, t_hold: float):
    """The prepare F=f_init -> hold t_hold -> detect runs: (atoms in the trap when
    the detection starts, per run; photon counts per detection bin, (runs, bins))."""
    seqp = cfg.sequence
    bound = bind_plan(compile_sequence(chain(
        build_protocol(f"prepare_f{f_init}", overlap_s=seqp["overlap_s"], delay_s=seqp["delay_s"]),
        t_hold,
        build_protocol("detect", window_s=seqp["window_s"]),
    )), bundle)

    def run(rng):
        rec = bound(cfg.atoms_per_run, rng, cfg.repetitions)
        return rec.final_n, dict(rec.traces)["detect"]
    return run


def _relaxation_experiment(cfg: ExperimentConfig) -> Dataset:
    bundle = cfg.physics_bundle()
    burst = bundle.burst
    grid = [(t, f) for t in cfg.schedule for f in (3, 4)]
    outcomes, counters = _repeat(
        cfg, [(f"t={t!r},f={f}", _detect_arm(cfg, bundle, f, t)) for t, f in grid])
    points = []
    bg = burst.background_photons_per_window * cfg.repetitions
    for (t_hold, f_init), (n_atoms, counts) in zip(grid, outcomes):
        total_atoms, total_counts = int(n_atoms.sum()), int(counts.sum())
        if total_atoms and burst.mean_photons_per_atom > 0:
            p4_hat = (total_counts - bg) / (burst.mean_photons_per_atom * total_atoms)
            p4_hat = min(max(p4_hat, 0.0), 1.0)
        else:
            p4_hat = 0.0
        points.append({"t_s": t_hold, "f_initial": f_init, "p4": p4_hat, "n": total_atoms})
    arm3, arm4 = ([(p["t_s"], p["p4"], p["n"]) for p in points
                   if p["f_initial"] == f and p["n"] > 0] for f in (3, 4))
    fits = {"relaxation_joint": fit_relaxation_joint(arm3, arm4)} if arm3 and arm4 else {}
    return _dataset(cfg, points, counters, fits)


def _mot_monitor_experiment(cfg: ExperimentConfig) -> Dataset:
    det = cfg.detector_model()

    def run(rng):
        traj = gillespie_mot(cfg.mot_rates(), cfg.atoms_per_run, cfg.schedule[0], rng)
        return traj, synthesize_mot_trace(traj, det, rng)

    [(traj, trace)], counters = _repeat(cfg, [("runs", run)])
    points = [
        {"time_s": float(t), "n_atoms": int(v)} for t, v in zip(traj.times, traj.values)
    ]
    return _dataset(cfg, points, counters, traces=[("mot_monitor", trace)])


def _detection_demo_experiment(cfg: ExperimentConfig) -> Dataset:
    """One prepare -> hold -> detect run per prepared state; the burst is
    classified here, against the atoms in the trap when the detection starts."""
    bundle = cfg.physics_bundle()
    outcomes, counters = _repeat(
        cfg, [(f"f={f}", _detect_arm(cfg, bundle, f, cfg.schedule[0])) for f in (3, 4)])
    points = []
    traces = []
    for f_init, ([n_atoms], [counts]) in zip((3, 4), outcomes):
        n_atoms, window_counts = int(n_atoms), int(counts.sum())
        traces.append((f"detect_f{f_init}",
                       PhotonTrace(t0=0.0, bin_width=bundle.burst.detection_bin, counts=counts)))
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


# export format -> writer of the dataset file named after it
_WRITERS = {"csv": _points_csv, "json": dataset_to_json}


def export_dataset(ds: Dataset, out_dir: str, formats=("csv", "json")) -> list[str]:
    """Write the dataset; returns the list of file paths written.

    Files are named after the experiment kind and written to out_dir.
    Writes are atomic (temp file + rename). formats is a sequence of "csv"
    and "json"; a bare string raises TypeError and an unknown format
    ValueError, both before any file is written.
    """
    if isinstance(formats, str):
        raise TypeError(f"formats must be a sequence of format names, not the string {formats!r}")
    formats = list(formats)
    for fmt in formats:
        if fmt not in _WRITERS:
            raise ValueError(f"unknown export format {fmt!r}")
    written = []
    for fmt in formats:
        path = os.path.join(out_dir, f"{ds.kind}.{fmt}")
        _atomic_write(path, _WRITERS[fmt](ds))
        written.append(path)
    for name, trace in ds.traces:
        path = os.path.join(out_dir, f"{ds.kind}_{name}.csv")
        _atomic_write(path, trace.to_csv())
        written.append(path)
    return written


def load_dataset_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
