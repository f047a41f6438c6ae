import json
import os

import numpy as np
import pytest

from atomtrap import (
    ConfigError,
    export_dataset,
    load_config,
    load_dataset_json,
    parse_config,
    run_experiment,
    serialize_config,
)

MINIMAL = "[experiment]\nkind = lifetime\n"


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


def small(kind, seed=5, **extra):
    lines = [f"[experiment]", f"kind = {kind}", f"master_seed = {seed}"]
    for k, v in extra.items():
        lines.append(f"{k} = {v}")
    return parse_config("\n".join(lines) + "\n")


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

    def test_transfer_efficiency(self):
        ds = run_experiment(small("transfer_efficiency", repetitions=800))
        assert ds.points[0]["fraction"] >= 0.96

    def test_relaxation(self):
        ds = run_experiment(small("relaxation"))
        assert len(ds.points) == 16  # 8 times x 2 arms
        assert "relaxation_joint" in ds.fits
        tau = ds.fits["relaxation_joint"].parameters["tau"]
        assert 1.5 < tau < 8.0

    def test_mot_monitor(self):
        ds = run_experiment(small("mot_monitor", schedule_s="30"))
        assert ds.traces and ds.traces[0][0] == "mot_monitor"
        assert len(ds.traces[0][1].counts) == 300

    def test_detection_demo(self):
        ds = run_experiment(small("detection_demo"))
        names = [n for n, _ in ds.traces]
        assert names == ["detect_f3", "detect_f4"]

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
        header = open(csv_path).readline().strip()
        assert header == "t_hold_s,survived,total,fraction"

    def test_relaxation_csv_header(self, tmp_path):
        ds = run_experiment(small("relaxation", repetitions=2))
        paths = export_dataset(ds, str(tmp_path))
        csv_path = next(p for p in paths if p.endswith("relaxation.csv"))
        assert open(csv_path).readline().strip() == "t_s,f_initial,p4,n"

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
        raw = open(next(p for p in paths if p.endswith(".json")), "rb").read()
        assert b"\r" not in raw
        rec = json.loads(raw)
        assert list(rec) == sorted(rec)

    def test_env_var_override(self, tmp_path, monkeypatch):
        target = tmp_path / "redirected"
        monkeypatch.setenv("ATOMTRAP_OUTPUT_DIR", str(target))
        ds = run_experiment(small("lifetime", repetitions=2))
        paths = export_dataset(ds, str(tmp_path / "ignored"))
        assert all(p.startswith(str(target)) for p in paths)
        assert target.exists()

    def test_no_partial_files(self, tmp_path):
        # the export directory never contains temp leftovers after a write
        ds = run_experiment(small("lifetime", repetitions=2))
        export_dataset(ds, str(tmp_path))
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
