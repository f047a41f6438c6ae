"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible even under pytest's
output capture) and enforces both the quantitative bands and the stated
runtime budgets.
"""

import time
from pathlib import Path

import numpy as np
from scipy.constants import k as k_B

import atomtrap as at

CS_POWER, CS_WAIST, CS_WAVELENGTH = 2.5, 5e-6, 1.064e-6


def _beam():
    return at.GaussianBeam(CS_POWER, CS_WAIST, CS_WAVELENGTH)


def _reference_trap():
    beam = _beam()
    return at.TrapModel(
        depth_u0=at.trap_depth(beam, at.AtomParams()),
        waist=CS_WAIST,
        peak_scattering_rate=190.0,
        raman_suppression=90.0,
        intensity_averaging_factor=0.125,
    )


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_trap_depth(capsys):
    t0 = time.perf_counter()
    depth_mk = at.trap_depth(_beam(), at.AtomParams()) / k_B * 1e3
    elapsed = time.perf_counter() - t0
    ok = 12.8 <= depth_mk <= 19.2 and elapsed < 1.0
    report(capsys, 1, ok, f"U/k_B = {depth_mk:.4f} mK, {elapsed:.3f} s")


def test_criterion_02_peak_scattering(capsys):
    t0 = time.perf_counter()
    rate = at.peak_scattering_rate(_beam(), at.AtomParams())
    elapsed = time.perf_counter() - t0
    ok = 142.0 <= rate <= 238.0 and elapsed < 1.0
    report(capsys, 2, ok, f"rate = {rate:.2f} /s, {elapsed:.3f} s")


def test_criterion_03_loading_efficiency(capsys):
    t0 = time.perf_counter()
    e_kin, u0 = k_B * 125e-6, k_B * 16e-3
    w0, r0 = 5e-6, 10e-6
    p = at.geometric_loading_efficiency(e_kin, u0, w0, r0)
    # Monte Carlo cross-check: sample transverse positions from the
    # Gaussian cloud and keep atoms whose local well is deeper than E_kin.
    rng = at.run_stream(303, 0)
    n = 10**6
    x = rng.normal(0.0, r0 / np.sqrt(2), n)
    y = rng.normal(0.0, r0 / np.sqrt(2), n)
    captured = u0 * np.exp(-(x**2 + y**2) / w0**2) > e_kin
    p_mc = captured.mean()
    elapsed = time.perf_counter() - t0
    ok = abs(p - 0.702) <= 0.001 and abs(p_mc - p) <= 0.01 and elapsed < 10.0
    report(capsys, 3, ok,
           f"formula = {p:.5f}, MC = {p_mc:.5f}, {elapsed:.2f} s")


def test_criterion_04_fluorescence_budget(capsys):
    budget = at.fluorescence_budget(at.AtomParams(), 1e-3)
    ok = (3e3 <= budget.detected_rate <= 2e4
          and abs(budget.emitted_power - 3e-12) <= 0.3 * 3e-12)
    report(capsys, 4, ok,
           f"detected = {budget.detected_rate:.0f} /s, "
           f"emitted = {budget.emitted_power * 1e12:.2f} pW")


def test_criterion_05_lifetime_reproduction(capsys):
    t0 = time.perf_counter()
    tau_true, n_atoms = 51.0, 400
    schedule = [1.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0]
    taus, errors, covered = [], [], 0
    for rep in range(100):
        rng = at.run_stream(505, rep)
        points = [(t, int(rng.binomial(n_atoms, np.exp(-t / tau_true))), n_atoms)
                  for t in schedule]
        fit = at.fit_exponential_survival(points)
        tau, se = fit.parameters["tau"], fit.standard_errors["tau"]
        taus.append(tau)
        errors.append(se)
        if abs(tau - tau_true) <= 1.96 * se:
            covered += 1
    elapsed = time.perf_counter() - t0
    med_err = float(np.median(errors))
    ok = (45.0 <= taus[0] <= 57.0 and 1.5 <= med_err <= 4.5
          and covered >= 90 and elapsed < 60.0)
    report(capsys, 5, ok,
           f"tau[0] = {taus[0]:.2f} s, median error = {med_err:.2f} s, "
           f"coverage = {covered}/100, {elapsed:.1f} s")


def test_criterion_06_magnetic_trap_control(capsys):
    t0 = time.perf_counter()
    cfg = at.parse_config(
        "[experiment]\nkind = magnetic_lifetime\nmaster_seed = 3\n")
    assert cfg.repetitions * cfg.atoms_per_run == 1000
    fit = at.run_experiment(cfg).fits["survival"]
    a, tau = fit.parameters["a"], fit.parameters["tau"]
    se_tau = fit.standard_errors["tau"]
    elapsed = time.perf_counter() - t0
    ok = (abs(a - 0.50) <= 0.05 and abs(tau - 51.0) <= 2 * se_tau
          and elapsed < 30.0)
    report(capsys, 6, ok,
           f"a = {a:.3f}, tau = {tau:.1f} +/- {se_tau:.1f} s, {elapsed:.1f} s")


def test_criterion_07_relaxation_chain(capsys):
    t0 = time.perf_counter()
    rates = at.effective_relaxation_rates(_reference_trap())
    lam = rates.total
    tau = 1.0 / lam
    ratio = 190.0 / lam
    in_union = (3.5 <= tau <= 4.9) or (2.7 <= tau <= 3.9)
    # Monte Carlo at realistic statistics: 90 atoms per point, 8 points
    # per preparation arm, joint fit of both arms.
    schedule = [3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 8.0, 12.0]
    n_atoms, passes = 90, 0
    for rep in range(100):
        rng = at.run_stream(7272, rep)
        arms = []
        for f_init in (3, 4):
            pts = []
            for t in schedule:
                p = at.analytic_occupation(f_init, rates, t)
                pts.append((t, rng.binomial(n_atoms, p) / n_atoms, n_atoms))
            arms.append(pts)
        try:
            fit = at.fit_relaxation_joint(arms[0], arms[1])
        except at.FitError:
            continue
        if (abs(fit.parameters["p4_eq"] - 0.5625) <= 0.03
                and abs(fit.parameters["tau"] - tau) <= 0.15 * tau):
            passes += 1
    elapsed = time.perf_counter() - t0
    ok = (abs(lam - 0.264) <= 0.001 and in_union and passes >= 80
          and abs(ratio - 720) <= 50 and elapsed < 60.0)
    report(capsys, 7, ok,
           f"lambda = {lam:.5f} /s, tau = {tau:.3f} s, ratio = {ratio:.0f}, "
           f"fit recovery = {passes}/100, {elapsed:.1f} s")


def test_criterion_08_averaging_factor(capsys):
    trap = _reference_trap()
    factor = at.intensity_averaging_factor(1.5 * trap.waist, trap)
    amp = at.amplitude_for_factor(1.0 / 8.0, trap) / trap.waist
    ok = 0.065 <= factor <= 0.185 and 1.2 <= amp <= 1.8
    report(capsys, 8, ok,
           f"factor(1.5 w0) = {factor:.4f}, amplitude(1/8) = {amp:.3f} w0")


def test_criterion_09_burst_classifier(capsys):
    t0 = time.perf_counter()
    model = at.BurstModel()
    rng = at.run_stream(909, 0)
    n = 10**5
    bright = sum(at.synthesize_detection_burst(1, model, rng).counts.sum() >= 2
                 for _ in range(n))
    dark = sum(at.synthesize_detection_burst(0, model, rng).counts.sum() >= 2
               for _ in range(n))
    tpr, fpr = bright / n, dark / n
    # Closed-form Poisson tails P(K >= 2) at means 3.5 and 0.5.
    tpr_th = 1.0 - np.exp(-3.5) * (1 + 3.5)
    fpr_th = 1.0 - np.exp(-0.5) * (1 + 0.5)
    # The MAP single-atom classifier agrees with the counts >= 2 threshold.
    maps = [at.classify_burst(c, 1, model).map_state for c in range(6)]
    map_consistent = maps == [3 if c < 2 else 4 for c in range(6)]
    elapsed = time.perf_counter() - t0
    ok = (abs(tpr - 0.864) <= 0.01 and abs(fpr - 0.090) <= 0.005
          and abs(tpr - tpr_th) <= 0.01 and abs(fpr - fpr_th) <= 0.005
          and map_consistent and elapsed < 10.0)
    report(capsys, 9, ok,
           f"TPR = {tpr:.4f} (theory {tpr_th:.4f}), "
           f"FPR = {fpr:.4f} (theory {fpr_th:.4f}), {elapsed:.1f} s")


def test_criterion_10_transfer_efficiency(capsys):
    cfg = at.parse_config(
        "[experiment]\nkind = transfer_efficiency\nmaster_seed = 1010\n")
    assert cfg.repetitions == 10**4 and cfg.atoms_per_run == 1
    assert cfg.schedule == [1.0]
    ds = at.run_experiment(cfg)
    fraction = ds.points[0]["fraction"]
    ok = fraction >= 0.975
    report(capsys, 10, ok,
           f"recapture fraction = {fraction:.4f} over 10^4 single-atom runs")


def test_criterion_11_step_detection(capsys):
    det = at.DetectorModel()
    rates = at.MotRates()
    # Part 1: integer atom counts on synthesized loading staircases.
    correct = total = 0
    for rep in range(1000):
        rng = at.run_stream(1111, rep)
        traj = at.gillespie_mot(rates, 0, 60.0, rng)
        trace = at.synthesize_mot_trace(traj, det, rng)
        seg = at.infer_atom_numbers(at.detect_steps(trace), det)
        mids = trace.t0 + (np.arange(len(trace.counts)) + 0.5) * det.bin_width
        truth = np.array([traj.value_at(t) for t in mids])
        inferred = np.repeat(seg.inferred_n,
                             np.diff([0, *seg.change_points, seg.n_bins]))
        correct += int((inferred == truth).sum())
        total += len(truth)
    accuracy = correct / total
    # Part 2: false change points on constant two-atom traces.
    false_traces = 0
    rate = (det.background_rate + 2 * det.per_atom_rate) * det.bin_width
    for rep in range(1000):
        rng = at.run_stream(2222, rep)
        trace = at.PhotonTrace(0.0, det.bin_width, rng.poisson(rate, 1000))
        if at.detect_steps(trace).change_points:
            false_traces += 1
    ok = accuracy >= 0.99 and false_traces < 10
    report(capsys, 11, ok,
           f"staircase per-bin accuracy = {accuracy:.4f}, "
           f"false-positive traces = {false_traces}/1000 (1000 bins each)")


def test_criterion_12_determinism(capsys, tmp_path):
    kinds = {
        "lifetime": "repetitions = 5",
        "magnetic_lifetime": "repetitions = 5",
        "transfer_efficiency": "repetitions = 50",
        "relaxation": "repetitions = 2",
        "mot_monitor": "schedule_s = 20",
        "detection_demo": "",
    }
    identical = True
    for kind, extra in kinds.items():
        cfg_text = f"[experiment]\nkind = {kind}\nmaster_seed = 12\n{extra}\n"
        blobs = []
        for sub in ("a", "b"):
            ds = at.run_experiment(at.parse_config(cfg_text))
            paths = at.export_dataset(ds, str(tmp_path / sub / kind))
            blobs.append({p.rsplit("/", 1)[-1]: Path(p).read_bytes() for p in paths})
        if blobs[0] != blobs[1]:
            identical = False
    report(capsys, 12, identical,
           f"byte-identical CSV/JSON re-runs for {len(kinds)} experiment kinds")
