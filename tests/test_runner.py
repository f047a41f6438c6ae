import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomtrap import (
    EXPERIMENT_KINDS,
    AtomParams,
    BurstModel,
    ConfigError,
    DetectorModel,
    GaussianBeam,
    MotCloud,
    MotRates,
    Phase,
    PhysicsBundle,
    SequencePlan,
    TrapModel,
    bind_plan,
    build_protocol,
    chain,
    classify_burst,
    compile_sequence,
    export_dataset,
    geometric_loading_efficiency,
    gillespie_mot,
    load_config,
    load_dataset_json,
    parse_config,
    run_experiment,
    run_stream,
    serialize_config,
)
from atomtrap import runner

MINIMAL = "[experiment]\nkind = lifetime\n"

# every float key of the schema, with the section it belongs to
_FLOAT_KEYS = [(section, key) for section, rows in runner._SCHEMA.items()
               for key, (owner, name, _) in rows.items()
               if isinstance(runner._default(owner, name), float)]


class TestConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.kind == "lifetime"
        assert cfg.master_seed == 0
        assert cfg.repetitions == 100
        assert cfg.atoms_per_run == 4
        assert cfg.schedule == [1, 5, 10, 20, 40, 60, 80]
        assert cfg.trap["power_w"] == 2.5
        assert cfg.trap["waist_m"] == 5e-6
        assert cfg.detector["per_atom_rate_per_s"] == 1.6e4
        assert cfg.burst["mean_photons_per_atom"] == 3.0
        assert cfg.sequence["overlap_s"] == 5e-3

    def test_kind_required(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nmaster_seed = 1\n")

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "frobnicator = 2\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "[laser]\npower_w = 1\n")

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="waist_m"):
            parse_config(MINIMAL + "[trap]\nwaist_m = -1\n")

    def test_master_seed_beyond_64_bits(self):
        assert parse_config(MINIMAL + f"master_seed = {2**64 - 1}\n").master_seed == 2**64 - 1
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(MINIMAL + f"master_seed = {2**64}\n")

    def test_raman_suppression_at_least_one(self):
        with pytest.raises(ConfigError, match="must be >= 1"):
            parse_config(MINIMAL + "[trap]\nraman_suppression = 0.5\n")

    def test_bad_value_names_key_raw_text_and_reason(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "[trap]\nwaist_m = -1\n")
        assert str(exc.value) == "bad value for trap.waist_m: '-1' (must be positive)"
        for line, reason in (("repetitions = 0", "must be >= 1"),
                             ("atoms_per_run = -1", "must be >= 0"),
                             ("[mot]\ntwo_body_multiplicity = 3", "must be 1 or 2")):
            with pytest.raises(ConfigError, match=re.escape(reason)):
                parse_config(MINIMAL + line + "\n")

    @pytest.mark.parametrize("kind", ["lifetime", "magnetic_lifetime"])
    @pytest.mark.parametrize("mode", ["perfect", "geometric"])
    @pytest.mark.parametrize("line,message", [
        ("[mot]\nradius_m = 200e-6", "bad value for mot.radius_m: '200e-6' "
                                     "(radius_r0 outside the supported 1-100 um range)"),
        ("[trap]\nwavelength_m = 8e-7", "bad value for trap.wavelength_m: '8e-7' (two-line "
                                        "model requires the trap wavelength red of both D lines"),
    ], ids=["radius", "wavelength"])
    def test_value_the_physics_rejects_fails_at_parse(self, kind, mode, line, message):
        # perfect loading never builds the cloud, magnetic_lifetime never the trap
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[experiment]\nkind = {kind}\nloading_mode = {mode}\n{line}\n")
        assert str(exc.value).startswith(message)

    def test_bad_loading_mode_names_key_raw_text_and_reason(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "loading_mode = Geometric\n")
        assert str(exc.value) == ("bad value for experiment.loading_mode: 'Geometric' "
                                  "(must be 'perfect' or 'geometric')")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", _FLOAT_KEYS)
    def test_non_finite_float_rejected(self, section, key, raw):
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}: '{raw}' (must be finite)")):
            parse_config(MINIMAL + f"[{section}]\n{key} = {raw}\n")

    @pytest.mark.parametrize("kind,schedule", [
        ("lifetime", "nan"), ("lifetime", "inf"), ("lifetime", "1, nan"),
        ("lifetime", "-inf, 2"), ("mot_monitor", "nan"), ("mot_monitor", "inf"),
    ])
    def test_non_finite_schedule_rejected(self, kind, schedule):
        # parsing only: mot_monitor at an infinite time would never end
        with pytest.raises(ConfigError, match="experiment.schedule_s"):
            parse_config(f"[experiment]\nkind = {kind}\nschedule_s = {schedule}\n")

    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("[experiment\nkind = lifetime\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            parse_config("[experiment]\nkind = levitation\n")

    def test_schedule_parsing(self):
        cfg = parse_config(MINIMAL + "schedule_s = 1, 2.5, 10\n")
        assert cfg.schedule == [1.0, 2.5, 10.0]

    def test_serialize_round_trip(self):
        cfg = parse_config(MINIMAL + "master_seed = 9\n[mot]\nradius_m = 12e-6\n")
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    @given(data=st.data(), kind=st.sampled_from(EXPERIMENT_KINDS))
    @settings(max_examples=40, deadline=None)
    def test_serialize_round_trip_property(self, data, kind):
        single = kind in ("mot_monitor", "detection_demo")
        times = st.floats(0.0, 1e4)
        schedule = data.draw(st.lists(times, min_size=1, max_size=1 if single else 8))
        lines = [
            "[experiment]", f"kind = {kind}",
            f"master_seed = {data.draw(st.integers(0, 2**64 - 1))}",
            f"repetitions = {1 if single else data.draw(st.integers(1, 10**5))}",
            f"atoms_per_run = {data.draw(st.integers(0, 50))}",
            f"schedule_s = {', '.join(repr(t) for t in schedule)}",
            f"loading_mode = {data.draw(st.sampled_from(['perfect', 'geometric']))}",
            "[trap]",
            f"power_w = {data.draw(st.floats(1e-3, 100.0))!r}",
            f"intensity_averaging_factor = {data.draw(st.floats(1e-3, 1.0))!r}",
            "[mot]",
            f"loading_rate_per_s = {data.draw(st.floats(0.0, 1e3))!r}",
            f"two_body_multiplicity = {data.draw(st.sampled_from([1, 2]))}",
        ]
        cfg = parse_config("\n".join(lines) + "\n")
        assert cfg.schedule == schedule
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("kind", ["mot_monitor", "detection_demo"])
    def test_single_run_kind_rejects_repetitions(self, kind):
        with pytest.raises(ConfigError, match=f"repetitions must be 1 for {kind}"):
            parse_config(f"[experiment]\nkind = {kind}\nrepetitions = 3\n")

    @pytest.mark.parametrize("kind", ["mot_monitor", "detection_demo"])
    def test_single_run_kind_rejects_schedule(self, kind):
        with pytest.raises(ConfigError, match=f"schedule_s must hold one time for {kind}"):
            parse_config(f"[experiment]\nkind = {kind}\nschedule_s = 0.1, 0.2\n")
        # one entry, or one repetition spelled out, is fine
        cfg = parse_config(f"[experiment]\nkind = {kind}\nschedule_s = 3600\nrepetitions = 1\n")
        assert (cfg.schedule, cfg.repetitions) == ([3600.0], 1)

    def test_echo_contains_all_defaults(self):
        echo = serialize_config(parse_config(MINIMAL))
        for key in ("power_w", "waist_m", "wavelength_m", "loading_rate_per_s",
                    "per_atom_rate_per_s", "mean_photons_per_atom", "overlap_s",
                    "master_seed", "schedule_s"):
            assert key in echo

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL)
        assert load_config(path).kind == "lifetime"

    def test_derived_physics(self):
        cfg = parse_config(MINIMAL)
        rr = cfg.hyperfine_rates()
        assert rr.r_3to4 / rr.r_4to3 == pytest.approx(9 / 7, abs=1e-9)
        assert cfg.loading_efficiency() == 1.0
        cfg2 = parse_config(MINIMAL + "loading_mode = geometric\n")
        assert 0.6 < cfg2.loading_efficiency() < 0.8

    def test_config_defaults_are_the_model_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.beam() == GaussianBeam()
        assert cfg.trap_model() == TrapModel.from_beam(GaussianBeam(), AtomParams())
        assert cfg.detector_model() == DetectorModel()
        assert cfg.burst_model() == BurstModel()
        assert cfg.mot_rates() == MotRates()
        assert cfg.physics_bundle() == PhysicsBundle()
        cloud, trap = MotCloud(), cfg.trap_model()
        assert parse_config(MINIMAL + "loading_mode = geometric\n").loading_efficiency() == (
            geometric_loading_efficiency(cloud.kinetic_energy, trap.depth_u0, trap.waist,
                                         cloud.radius_r0))


def small(kind, seed=5, **extra):
    lines = [f"[experiment]", f"kind = {kind}", f"master_seed = {seed}"]
    for k, v in extra.items():
        lines.append(f"{k} = {v}")
    return parse_config("\n".join(lines) + "\n")


def _exports(cfg, out_dir) -> dict:
    """Every export of cfg's run by file name, a JSON one without its config echo."""
    files = {}
    for path in export_dataset(run_experiment(cfg), str(out_dir)):
        with open(path) as fh:
            text = fh.read()
        if path.endswith(".json"):
            text = {k: v for k, v in json.loads(text).items() if k != "config_echo"}
        files[os.path.basename(path)] = text
    return files


class TestRunExperiment:
    def test_lifetime(self):
        ds = run_experiment(small("lifetime", repetitions=30))
        assert [p["t_hold_s"] for p in ds.points] == [1, 5, 10, 20, 40, 60, 80]
        for p in ds.points:
            assert 0 <= p["survived"] <= p["total"]
        assert 40 < ds.fits["survival"].parameters["tau"] < 65

    def test_zero_hold_is_booked(self):
        ds = run_experiment(small("lifetime", schedule_s="0, 1"))
        zero = ds.points[0]
        assert zero["t_hold_s"] == 0.0
        assert zero["total"] > 0
        # nothing decays in a zero-length hold
        assert zero["survived"] == zero["total"]

    def test_magnetic_lifetime(self):
        ds = run_experiment(small("magnetic_lifetime", repetitions=50))
        fit = ds.fits["survival"]
        assert 0.4 < fit.parameters["a"] < 0.6

    def test_magnetic_lifetime_ignores_the_dipole_loading_mode(self, tmp_path):
        # no dipole-trap transfer loads a magnetic-trap run
        perfect, geometric = (
            _exports(small("magnetic_lifetime", loading_mode=mode), tmp_path / mode)
            for mode in ("perfect", "geometric"))
        assert perfect == geometric

    def test_transfer_efficiency(self):
        ds = run_experiment(small("transfer_efficiency", repetitions=800))
        assert ds.points[0]["fraction"] >= 0.96

    def test_relaxation(self):
        ds = run_experiment(small("relaxation"))
        assert len(ds.points) == 16  # 8 times x 2 arms
        assert "relaxation_joint" in ds.fits
        tau = ds.fits["relaxation_joint"].parameters["tau"]
        assert 1.5 < tau < 8.0

    def test_relaxation_exports_the_joint_fit_only(self):
        # tau and p4_eq are shared by both prepared states, so one joint fit
        # is the estimator; no per-arm fit is exported beside it
        ds = run_experiment(small("relaxation", repetitions=5))
        assert set(ds.fits) == {"relaxation_joint"}

    def test_mot_monitor(self):
        ds = run_experiment(small("mot_monitor", schedule_s="30"))
        assert ds.traces and ds.traces[0][0] == "mot_monitor"
        assert len(ds.traces[0][1].counts) == 300

    def test_detection_demo(self):
        ds = run_experiment(small("detection_demo"))
        names = [n for n, _ in ds.traces]
        assert names == ["detect_f3", "detect_f4"]

    @pytest.mark.parametrize("schedule", ["0.1", "0"])
    def test_detection_demo_classifies_the_exported_burst(self, schedule):
        # at a zero hold a zero-length hold books the transfer: n_atoms is
        # the number of atoms the detection light sees
        for seed in range(50):
            cfg = small("detection_demo", seed=seed, schedule_s=schedule)
            for p in run_experiment(cfg).points:
                assert p["map_bright_atoms"] == classify_burst(
                    p["window_counts"], p["n_atoms"], cfg.burst_model()).map_k
                assert p["n_atoms"] > 0

    def test_relaxation_at_zero_hold_counts_the_atoms(self):
        # the zero-length hold before the detection books the survivors, so
        # the t = 0 point keeps its atoms and its prepared state
        ds = run_experiment(small("relaxation", schedule_s="0, 3"))
        at_zero = {p["f_initial"]: p for p in ds.points if p["t_s"] == 0.0}
        assert at_zero[3]["n"] > 0 and at_zero[4]["n"] > 0
        assert at_zero[3]["p4"] < 0.2
        assert at_zero[4]["p4"] > 0.8

    def test_deterministic(self):
        a = run_experiment(small("relaxation", repetitions=5))
        b = run_experiment(small("relaxation", repetitions=5))
        assert a.points == b.points

    def test_seed_changes_results(self):
        a = run_experiment(small("lifetime", seed=1, repetitions=10))
        b = run_experiment(small("lifetime", seed=2, repetitions=10))
        assert a.points != b.points


class TestExport:
    def test_lifetime_csv_header(self, tmp_path):
        ds = run_experiment(small("lifetime", repetitions=5))
        paths = export_dataset(ds, str(tmp_path))
        csv_path = next(p for p in paths if p.endswith("lifetime.csv"))
        header = Path(csv_path).read_text().splitlines()[0].strip()
        assert header == "t_hold_s,survived,total,fraction"

    def test_relaxation_csv_header(self, tmp_path):
        ds = run_experiment(small("relaxation", repetitions=2))
        paths = export_dataset(ds, str(tmp_path))
        csv_path = next(p for p in paths if p.endswith("relaxation.csv"))
        assert Path(csv_path).read_text().splitlines()[0].strip() == "t_s,f_initial,p4,n"

    def test_json_reimport_exact(self, tmp_path):
        ds = run_experiment(small("lifetime", repetitions=5))
        paths = export_dataset(ds, str(tmp_path))
        rec = load_dataset_json(next(p for p in paths if p.endswith(".json")))
        assert rec["points"] == ds.points
        assert rec["master_seed"] == ds.master_seed
        assert rec["config_echo"] == ds.config_echo
        assert set(rec["fits"]) == set(ds.fits)

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            ds = run_experiment(small("relaxation", repetitions=3))
            export_dataset(ds, str(tmp_path / sub))
        for name in ("relaxation.csv", "relaxation.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_lf_line_endings_and_sorted_keys(self, tmp_path):
        ds = run_experiment(small("lifetime", repetitions=3))
        paths = export_dataset(ds, str(tmp_path))
        raw = Path(next(p for p in paths if p.endswith(".json"))).read_bytes()
        assert b"\r" not in raw
        rec = json.loads(raw)
        assert list(rec) == sorted(rec)

    @pytest.mark.parametrize("formats, error, message", [
        (("csv", "xml"), ValueError, "unknown export format 'xml'"),
        ("json", TypeError, "formats must be a sequence of format names, not the string 'json'"),
    ])
    def test_bad_formats_raise_before_any_write(self, tmp_path, formats, error, message):
        ds = run_experiment(small("detection_demo"))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            export_dataset(ds, str(tmp_path / "out"), formats=formats)
        assert not (tmp_path / "out").exists()

    def test_no_partial_files(self, tmp_path):
        # the export directory never contains temp leftovers after a write
        ds = run_experiment(small("lifetime", repetitions=2))
        export_dataset(ds, str(tmp_path))
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


# "section.key" -> (kind, settings under which the key shows, a value other
# than its default): setting the key to the value changes an export of the kind
_GEOMETRIC = {"experiment.loading_mode": "geometric"}
_FAST_MOT = {"mot.loading_rate_per_s": 200}
_LIVE = {
    "experiment.master_seed": ("lifetime", {}, 7),
    "experiment.repetitions": ("lifetime", {}, 3),
    "experiment.atoms_per_run": ("lifetime", {}, 2),
    # at 1 s and 2 s every atom survives at both points with probability
    # ~0.31 whatever the draws, data the survival fit rejects as degenerate;
    # at 1 s and 80 s that chance is ~1e-14
    "experiment.schedule_s": ("lifetime", {}, "1, 80"),
    "experiment.loading_mode": ("lifetime", {}, "geometric"),
    "trap.power_w": ("lifetime", _GEOMETRIC, 1.0),
    "trap.waist_m": ("lifetime", _GEOMETRIC, 8e-6),
    "trap.wavelength_m": ("lifetime", _GEOMETRIC, 1.5e-6),
    "trap.raman_suppression": ("relaxation", {}, 10.0),
    "trap.intensity_averaging_factor": ("relaxation", {}, 0.5),
    "trap.dipole_lifetime_s": ("lifetime", {}, 5.0),
    "trap.magnetic_lifetime_s": ("magnetic_lifetime", {}, 5.0),
    "mot.loading_rate_per_s": ("mot_monitor", {}, 2.0),
    "mot.one_body_loss_per_s": ("mot_monitor", {}, 1.0),
    "mot.two_body_pair_rate_per_s": ("mot_monitor", {}, 1.0),
    "mot.two_body_multiplicity": ("mot_monitor", {"mot.two_body_pair_rate_per_s": 1.0}, 1),
    "mot.radius_m": ("lifetime", _GEOMETRIC, 20e-6),
    "mot.temperature_k": ("lifetime", _GEOMETRIC, 1e-3),
    "detector.per_atom_rate_per_s": ("mot_monitor", {}, 3e4),
    "detector.background_rate_per_s": ("mot_monitor", {}, 1e3),
    "detector.bin_width_s": ("mot_monitor", {}, 0.2),
    "burst.mean_photons_per_atom": ("detection_demo", {}, 10.0),
    "burst.background_photons_per_window": ("detection_demo", {}, 5.0),
    "burst.burst_duration_s": ("detection_demo", {}, 1e-4),
    "burst.detection_bin_s": ("detection_demo", {}, 1e-4),
    "sequence.overlap_s": ("lifetime", _FAST_MOT, 0.05),
    "sequence.delay_s": ("relaxation", _FAST_MOT, 0.05),
    "sequence.window_s": ("detection_demo", {}, 1e-3),
}
# the few runs per kind that keep each case fast
_FEW_RUNS = {"lifetime": {"experiment.repetitions": 5},
             "magnetic_lifetime": {"experiment.repetitions": 5},
             "relaxation": {"experiment.repetitions": 2},
             "mot_monitor": {"experiment.schedule_s": 20}}


def _config(kind, settings):
    sections = {"experiment": {"kind": kind}}
    for dotted, value in settings.items():
        section, key = dotted.split(".")
        sections.setdefault(section, {})[key] = value
    return parse_config("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in rows.items())
                                for section, rows in sections.items()))


def test_liveness_table_covers_every_key():
    keys = {f"{section}.{key}" for section, rows in runner._SCHEMA.items() for key in rows}
    assert set(_LIVE) == keys - {"experiment.kind", "experiment.output_dir"}


@pytest.mark.parametrize("key", _LIVE)
def test_every_key_changes_an_export(key, tmp_path):
    kind, extra, value = _LIVE[key]
    base = {"experiment.master_seed": 5, **_FEW_RUNS.get(kind, {}), **extra}
    assert (_exports(_config(kind, base), tmp_path / "base")
            != _exports(_config(kind, {**base, key: value}), tmp_path / "set"))


def _rerun_arm(cfg, point, rng) -> dict:
    """The exported point of one arm of cfg, drawn again from rng outside the runner."""
    bundle, seq = cfg.physics_bundle(), cfg.sequence
    n0, reps = cfg.atoms_per_run, cfg.repetitions
    if cfg.kind == "mot_monitor":
        traj = gillespie_mot(cfg.mot_rates(), n0, cfg.schedule[0], rng)
        return {"time_s": traj.times.tolist(), "n_atoms": traj.values.tolist()}
    if cfg.kind == "magnetic_lifetime":
        plan = SequencePlan((Phase("magnetic_hold", point["t_hold_s"], prepared_state="mixed"),))
        rec = bind_plan(plan, bundle)(n0, rng, reps)
        return {"survived": rec.survivors.sum(), "total": rec.prepared_n.sum()}
    if cfg.kind in ("lifetime", "transfer_efficiency"):
        overlap = seq["overlap_s"]
        plan = compile_sequence(chain(build_protocol("transfer", overlap_s=overlap),
                                      point["t_hold_s"],
                                      build_protocol("recapture", overlap_s=overlap)))
        rec = bind_plan(plan, bundle)(n0, rng, reps)
        return {"survived": rec.recaptured_n.sum(), "total": rec.prepared_n.sum()}
    t_hold = point.get("t_s", cfg.schedule[0])
    plan = compile_sequence(chain(
        build_protocol(f"prepare_f{point['f_initial']}", overlap_s=seq["overlap_s"],
                       delay_s=seq["delay_s"]),
        t_hold, build_protocol("detect", window_s=seq["window_s"])))
    rec = bind_plan(plan, bundle)(n0, rng, reps)
    n, counts = rec.final_n.sum(), dict(rec.traces)["detect"].sum()
    if cfg.kind == "detection_demo":
        return {"n_atoms": n, "window_counts": counts}
    burst = bundle.burst
    p4 = (counts - burst.background_photons_per_window * reps) / (
        burst.mean_photons_per_atom * n)
    return {"n": n, "p4": min(max(p4, 0.0), 1.0)}


_COUNTER_CONFIGS = {
    "lifetime": {"repetitions": 7, "schedule_s": "1, 20, 60"},
    "magnetic_lifetime": {"repetitions": 7, "schedule_s": "0, 20, 60"},
    "transfer_efficiency": {"repetitions": 30, "schedule_s": "1, 5"},
    "relaxation": {"repetitions": 4, "schedule_s": "3, 6"},
    "detection_demo": {},
    "mot_monitor": {"schedule_s": "5"},
}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_run_counters_name_each_arms_stream(kind):
    # each arm owns `repetitions` consecutive counters, the counters run on
    # across the arms in schedule order, and the arm's runs are drawn from the
    # stream at the first of its counters
    cfg = small(kind, seed=11, **_COUNTER_CONFIGS[kind])
    ds = run_experiment(cfg)
    assert set(_COUNTER_CONFIGS) == set(EXPERIMENT_KINDS)
    counters = list(ds.run_counters.values())
    assert [c for arm in counters for c in arm] == list(range(len(counters) * cfg.repetitions))
    assert all(arm == list(range(arm[0], arm[0] + cfg.repetitions)) for arm in counters)
    if kind == "mot_monitor":
        points = {"time_s": [p["time_s"] for p in ds.points],
                  "n_atoms": [p["n_atoms"] for p in ds.points]}
        assert _rerun_arm(cfg, None, run_stream(11, counters[0][0])) == points
        return
    assert len(counters) == len(ds.points)
    for (key, arm), point in zip(ds.run_counters.items(), ds.points):
        again = _rerun_arm(cfg, point, run_stream(11, arm[0]))
        assert again == {k: point[k] for k in again}, key
