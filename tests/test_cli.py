import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import atomtrap
from atomtrap import (build_protocol, chain, fit_exponential_survival, fit_relaxation,
                      sequence_to_csv)
from atomtrap.cli import main

LIFETIME_INI = "[experiment]\nkind = lifetime\nrepetitions = 5\n"
SURVIVAL_CSV = "t_s,survived,total\n1,390,400\n20,260,400\n60,120,400\n"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("simulate", "analyze", "classify", "fit", "validate-seq")


def _installed(dist):
    try:
        importlib.metadata.distribution(dist)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def run_console_script(target, *argv):
    """Run ``module:attr`` as an installed console-script wrapper runs it."""
    module, attr = target.split(":")
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(atomtrap.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", wrapper, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path, capsys):
        ini = tmp_path / "lifetime.ini"
        ini.write_text(LIFETIME_INI)
        for sub in ("a", "b"):
            code, out, _ = run_cli(capsys, "simulate", str(ini),
                                   "--seed", "42", "--out", str(tmp_path / sub))
            assert code == 0
        a = (tmp_path / "a" / "lifetime.csv").read_bytes()
        b = (tmp_path / "b" / "lifetime.csv").read_bytes()
        assert a == b
        aj = (tmp_path / "a" / "lifetime.json").read_bytes()
        bj = (tmp_path / "b" / "lifetime.json").read_bytes()
        assert aj == bj

    def test_format_flag(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(LIFETIME_INI)
        code, out, _ = run_cli(capsys, "simulate", str(ini),
                               "--format", "csv", "--out", str(tmp_path / "o"))
        assert code == 0
        assert (tmp_path / "o" / "lifetime.csv").exists()
        assert not (tmp_path / "o" / "lifetime.json").exists()

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[experiment]\nkind = lifetime\nbogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", str(ini))
        assert code == 2
        assert "bogus" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "/nonexistent/exp.ini")
        assert code == 2


class TestClassify:
    def test_zero_counts_single_atom(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "0", "--atoms", "1")
        assert code == 0
        rec = json.loads(out)
        assert rec["map_state"] == 3
        assert rec["posterior"][0] > 0.95

    def test_bright(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "6", "--atoms", "2")
        rec = json.loads(out)
        assert code == 0
        assert rec["map_bright_atoms"] == 2

    @pytest.mark.parametrize("counts, atoms, mean, message", [
        ("3", "1", "0", "3 counts are impossible"),
        ("3", "0", "3", "3 counts are impossible"),
    ])
    def test_invalid_counts_are_data_error(self, capsys, counts, atoms, mean, message):
        code, out, err = run_cli(capsys, "classify", counts, "--atoms", atoms,
                                 "--mean-photons", mean, "--background", "0")
        assert code == 2
        assert out == ""
        assert message in err


class TestAnalyze:
    def test_staircase(self, tmp_path, capsys):
        from atomtrap import (DetectorModel, MotRates, gillespie_mot, run_stream,
                              synthesize_mot_trace)
        rng = run_stream(55, 0)
        traj = gillespie_mot(MotRates(), 2, 60.0, rng)
        trace = synthesize_mot_trace(traj, DetectorModel(), rng)
        path = tmp_path / "trace.csv"
        path.write_text(trace.to_csv())
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        rec = json.loads(out)
        assert rec["n_bins"] == 600
        assert all(n >= 0 for n in rec["inferred_n"])

    def test_bad_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        code, _, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2

    def test_short_row_is_data_error_naming_the_row(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("bin_start_s,counts\n0\n0.1,2\n0.2,3\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert f"{path}: row 2 has 1 fields, expected 2" in err


    @pytest.mark.parametrize("row, column, reason", [
        ("0.1,x", "counts", "invalid literal for int() with base 10: 'x'"),
        ("nan,2", "bin_start_s", "'nan' is not a finite number"),
    ])
    def test_bad_field_is_data_error_naming_row_and_column(self, tmp_path, capsys,
                                                           row, column, reason):
        path = tmp_path / "bad_field.csv"
        path.write_text(f"bin_start_s,counts\n0,1\n{row}\n0.2,3\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert f"{path}: row 3, column {column}: {reason}" in err


class TestFit:
    def test_survival(self, tmp_path, capsys):
        import numpy as np
        rows = ["t_s,survived,total"]
        for t in (1, 5, 10, 20, 40, 60, 80):
            rows.append(f"{t},{int(round(400 * np.exp(-t / 51)))},400")
        path = tmp_path / "surv.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(path), "--model", "survival")
        assert code == 0
        rec = json.loads(out)
        tau = rec["values"][rec["parameter_names"].index("tau")]
        assert tau == pytest.approx(51, rel=0.05)

    def test_relaxation_needs_arm(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("t_s,p4,n\n1,0.8,90\n2,0.7,90\n4,0.6,90\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--model", "relaxation")
        assert code == 2
        assert "f-initial" in err

    def test_relaxation_single_arm_matches_fit_relaxation(self, tmp_path, capsys):
        points = [(1.0, 0.21, 90), (2.0, 0.33, 90), (4.0, 0.46, 90), (8.0, 0.55, 90)]
        path = tmp_path / "f3.csv"
        path.write_text("t_s,p4,n\n" + "".join(f"{t!r},{p!r},{n}\n" for t, p, n in points))
        code, out, _ = run_cli(capsys, "fit", str(path), "--model", "relaxation",
                               "--f-initial", "3")
        assert code == 0
        assert out == fit_relaxation(points, f_initial=3).to_json() + "\n"

    def test_survival_matches_fit_exponential_survival(self, tmp_path, capsys):
        path = tmp_path / "surv.csv"
        path.write_text(SURVIVAL_CSV)
        code, out, _ = run_cli(capsys, "fit", str(path), "--model", "survival")
        assert code == 0
        rec = json.loads(out)
        assert rec["parameter_names"] == ["tau"]
        fit = fit_exponential_survival([(1, 390, 400), (20, 260, 400), (60, 120, 400)])
        assert rec["values"] == [fit.parameters["tau"]]
        assert rec["standard_errors"] == [fit.standard_errors["tau"]]
        assert rec["covariance_row_major"] == [float(fit.covariance[0, 0])]
        assert rec["log_likelihood"] == fit.log_likelihood
        assert rec["n_points"] == fit.n_points == 3

    def test_bootstrap_option_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "surv.csv"
        path.write_text(SURVIVAL_CSV)
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(path), "--model", "survival", "--bootstrap", "10"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --bootstrap 10" in capsys.readouterr().err

    @pytest.mark.parametrize("files, argv, option", [
        (("surv.csv",), ("--model", "survival", "--f-initial", "3"), "--f-initial"),
        (("f3.csv", "f4.csv"), ("--model", "relaxation", "--f-initial", "4"), "--f-initial"),
        (("f3.csv",), ("--model", "relaxation", "--f-initial", "3", "--offset-free"),
         "--offset-free"),
        (("f3.csv", "f4.csv"), ("--model", "relaxation", "--offset-free"), "--offset-free"),
    ])
    def test_option_the_fit_does_not_read_is_data_error(self, tmp_path, capsys,
                                                        files, argv, option):
        (tmp_path / "surv.csv").write_text(SURVIVAL_CSV)
        (tmp_path / "f3.csv").write_text("t_s,p4,n\n1,0.21,90\n2,0.33,90\n4,0.46,90\n")
        (tmp_path / "f4.csv").write_text("t_s,p4,n\n1,0.88,90\n2,0.79,90\n4,0.66,90\n")
        code, out, err = run_cli(capsys, "fit", *(str(tmp_path / f) for f in files), *argv)
        assert code == 2
        assert out == ""
        assert f"atomtrap: {option} applies only to " in err

    def test_relaxation_joint(self, tmp_path, capsys):
        import numpy as np
        tau, peq = 3.79, 0.5625
        ts = (1, 2, 3, 4, 6, 8, 10, 12)
        for name, p0 in (("f3.csv", 0.0), ("f4.csv", 1.0)):
            rows = ["t_s,p4,n"]
            for t in ts:
                p = float(peq + (p0 - peq) * np.exp(-t / tau))
                rows.append(f"{t},{p!r},100000")
            (tmp_path / name).write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(tmp_path / "f3.csv"),
                               str(tmp_path / "f4.csv"), "--model", "relaxation")
        assert code == 0
        rec = json.loads(out)
        tau_hat = rec["values"][rec["parameter_names"].index("tau")]
        assert tau_hat == pytest.approx(tau, rel=0.01)

    def test_short_row_is_data_error_naming_the_row(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("t_s,survived,total\n1,100,100\n10,90\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--model", "survival")
        assert code == 2
        assert f"{path}: row 3 has 2 fields, expected 3" in err

    def test_bad_field_is_data_error_naming_row_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad_field.csv"
        path.write_text("t_s,survived,total\n1,100,100\n10,ninety,100\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--model", "survival")
        assert code == 2
        assert f"{path}: row 3, column survived: " in err

    def test_degenerate_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "deg.csv"
        path.write_text("t_s,survived,total\n1,100,100\n10,100,100\n")
        code, _, _ = run_cli(capsys, "fit", str(path), "--model", "survival")
        assert code == 2


class TestValidateSeq:
    def test_valid_sequence(self, tmp_path, capsys):
        seq = chain(build_protocol("prepare_f3"), 1.0, build_protocol("detect"))
        path = tmp_path / "good.csv"
        path.write_text(sequence_to_csv(seq))
        code, out, _ = run_cli(capsys, "validate-seq", str(path))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_short_pockels_gap_exits_2(self, tmp_path, capsys):
        seq = chain(build_protocol("transfer"), 0.5,
                    build_protocol("detect", gap_s=10e-6))
        path = tmp_path / "bad.csv"
        path.write_text(sequence_to_csv(seq))
        code, out, _ = run_cli(capsys, "validate-seq", str(path))
        assert code == 2
        rec = json.loads(out)
        assert any(v["code"] == "pockels_gap" for v in rec["violations"])

    def test_short_row_is_data_error_naming_the_row(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("time_s,channel,state\n0.0,DIPOLE\n")
        code, _, err = run_cli(capsys, "validate-seq", str(path))
        assert code == 2
        assert f"{path}: row 2 has 2 fields, expected 3" in err

    @pytest.mark.parametrize("row,reason", [
        ("0.1,dipole,off", "column channel: 'dipole' is not a valid Channel"),
        ("0.1,DIPOLE,maybe", "column state: state must be 'on' or 'off', got 'maybe'"),
    ], ids=["channel", "state"])
    def test_bad_word_is_data_error_naming_file_and_row(self, tmp_path, capsys, row, reason):
        path = tmp_path / "s5.csv"
        path.write_text(f"time_s,channel,state\n0.0,DIPOLE,on\n{row}\n")
        code, out, err = run_cli(capsys, "validate-seq", str(path))
        assert (code, out) == (2, "")
        assert f"{path}: row 3, {reason}" in err

    def test_nan_event_time_is_data_error(self, tmp_path, capsys):
        # a transfer whose MOT lasers switch off at nan
        path = tmp_path / "nan.csv"
        path.write_text("time_s,channel,state\n0.0,DIPOLE,on\n"
                        "nan,COOLING,off\nnan,REPUMPER,off\n")
        code, out, err = run_cli(capsys, "validate-seq", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: row 3, column time_s: 'nan' is not a finite number" in err


def _out_argv(subcommand, tmp_path):
    """Arguments of a successful run of subcommand on input files made in tmp_path."""
    if subcommand == "analyze":
        path = tmp_path / "trace.csv"
        path.write_text("bin_start_s,counts\n0,500\n0.1,520\n0.2,2100\n0.3,2080\n")
        return ["analyze", str(path)]
    if subcommand == "classify":
        return ["classify", "4", "--atoms", "2"]
    if subcommand == "fit":
        path = tmp_path / "surv.csv"
        path.write_text("t_s,survived,total\n1,390,400\n20,260,400\n60,120,400\n")
        return ["fit", str(path), "--model", "survival"]
    path = tmp_path / "seq.csv"
    path.write_text(sequence_to_csv(chain(build_protocol("prepare_f3"), 1.0,
                                          build_protocol("detect"))))
    return ["validate-seq", str(path)]


@pytest.mark.parametrize("subcommand", ["analyze", "classify", "fit", "validate-seq"])
def test_out_file_holds_the_standard_output_bytes(subcommand, tmp_path, capsys):
    argv = _out_argv(subcommand, tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    target = tmp_path / "out.json"
    code, quiet, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and quiet == ""
    assert target.read_bytes() == out.encode()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "3"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("analyze", "trace.csv", "--seed", "1"),
        ("analyze", "trace.csv", "--format", "csv"),
        ("classify", "3", "--atoms", "2", "--seed", "1"),
        ("fit", "data.csv", "--model", "survival", "--format", "json"),
        ("validate-seq", "seq.csv", "--seed", "1"),
    ])
    def test_seed_and_format_belong_to_simulate(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv, option", [
        (("classify", "1", "--atoms", "1"), "--mean-photons"),
        (("classify", "2", "--atoms", "2"), "--background"),
        (("analyze", "trace.csv"), "--penalty"),
        (("analyze", "trace.csv"), "--per-atom-rate"),
        (("analyze", "trace.csv"), "--background-rate"),
    ])
    def test_non_finite_option_is_usage_error(self, argv, option, value, capsys):
        # rejected while parsing, before the trace file is read; "=" keeps
        # argparse from taking -inf for an option
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{option}={value}"])
        assert exc.value.code == 1
        parser = "positive" if option == "--per-atom-rate" else "non_negative"
        assert f"argument {option}: invalid {parser} value: '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, argument, parser, value", [
        (("classify", "-1", "--atoms", "1"), "counts", "count", "-1"),
        (("classify", "1", "--atoms=-1"), "--atoms", "count", "-1"),
        (("classify", "1", "--atoms", "1", "--mean-photons=-1"), "--mean-photons",
         "non_negative", "-1"),
        (("classify", "1", "--atoms", "1", "--background=-0.5"), "--background",
         "non_negative", "-0.5"),
        (("analyze", "trace.csv", "--per-atom-rate=0"), "--per-atom-rate", "positive", "0"),
        (("analyze", "trace.csv", "--per-atom-rate=-1"), "--per-atom-rate", "positive", "-1"),
        (("analyze", "trace.csv", "--background-rate=-1"), "--background-rate",
         "non_negative", "-1"),
    ])
    def test_out_of_range_option_is_usage_error(self, argv, argument, parser, value, capsys):
        # rejected while parsing, before any input file is read, and named
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        assert (f"argument {argument}: invalid {parser} value: '{value}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_seed_out_of_range_is_usage_error(self, value, capsys):
        # rejected while parsing, before the config file is read
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "exp.ini", "--seed", value])
        assert exc.value.code == 1
        assert f"argument --seed: invalid seed value: '{value}'" in capsys.readouterr().err

    def test_negative_penalty_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "trace.csv", "--penalty=-1"])
        assert exc.value.code == 1
        assert "argument --penalty: invalid non_negative value: '-1'" in capsys.readouterr().err

    def test_console_script_installed(self):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        target = scripts.get("atomtrap")
        assert target == "atomtrap.cli:main"
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))

        proc = run_console_script(target, "--help")
        assert proc.returncode == 0, proc.stderr
        for name in SUBCOMMANDS:
            assert name in proc.stdout
        proc = run_console_script(target, "frobnicate")
        assert proc.returncode == 1
        assert "frobnicate" in proc.stderr

    @pytest.mark.skipif(not _installed("atomtrap"),
                        reason="the atomtrap distribution is not installed")
    def test_console_script_on_path(self):
        assert (shutil.which("atomtrap")
                or shutil.which("atomtrap", path=sysconfig.get_path("scripts")))
