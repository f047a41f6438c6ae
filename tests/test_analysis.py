import hashlib
import json
import re

import numpy as np
import pytest
import burst_reference
import fit_reference
from binseg_reference import binary_segmentation
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from atomtrap import (
    BurstModel,
    DetectorModel,
    FitError,
    FitResult,
    HyperfineRates,
    PhotonTrace,
    analytic_occupation,
    classify_burst,
    detect_steps,
    fit_exponential_survival,
    fit_relaxation,
    fit_relaxation_joint,
    infer_atom_numbers,
    parse_config,
    run_experiment,
    run_stream,
)
from atomtrap import analysis
from atomtrap.analysis import _BinomialModel, _DecayCurve


def constant_trace(rate, n_bins, stream):
    counts = stream.poisson(rate * 0.1, size=n_bins)
    return PhotonTrace(t0=0.0, bin_width=0.1, counts=counts)


@st.composite
def staircases(draw):
    """Counts that step between a few levels, each bin within a spread of its level."""
    counts = []
    for _ in range(draw(st.integers(1, 6))):
        level, spread = draw(st.integers(0, 2000)), draw(st.integers(0, 40))
        counts += draw(st.lists(st.integers(max(level - spread, 0), level + spread),
                                min_size=1, max_size=40))
    return counts


# staircases, constant traces (whose split gains tie) and sparse low counts
traces = st.one_of(
    staircases(),
    st.builds(lambda c, n: [c] * n, st.integers(0, 50), st.integers(1, 80)),
    st.lists(st.integers(0, 3), min_size=1, max_size=80),
)

# sha256 of repr([(change_points, levels), ...]) at master seeds 1, 2, 3
MOT_MONITOR_SEGMENTATION_DIGEST = "79ac6a10497e496327e3b36dd8ab2de6801e5ff584fd7e108f97f314abc302de"


class TestDetectSteps:
    def test_single_bin(self):
        seg = detect_steps(PhotonTrace(t0=0.0, bin_width=0.1, counts=[7]))
        assert seg.change_points == []
        assert seg.levels == [70.0]

    def test_constant_trace_false_positives(self):
        # <= 1% of 1000 constant traces may contain a spurious change point
        fp = 0
        for i in range(1000):
            seg = detect_steps(constant_trace(5e3, 1000, run_stream(100, i)))
            if seg.change_points:
                fp += 1
        assert fp <= 10

    def test_two_step_localization(self):
        det = DetectorModel()
        rng = run_stream(101, 0)
        true_cp = [80, 160]
        rates = [det.background_rate, det.background_rate + det.per_atom_rate,
                 det.background_rate + 2 * det.per_atom_rate]
        counts = np.concatenate([
            rng.poisson(r * det.bin_width, size=n)
            for r, n in zip(rates, [80, 80, 80])
        ])
        seg = detect_steps(PhotonTrace(t0=0.0, bin_width=0.1, counts=counts))
        assert len(seg.change_points) == 2
        for found, true in zip(seg.change_points, true_cp):
            assert abs(found - true) <= 1
        for level, rate in zip(seg.levels, rates):
            n = 80
            assert abs(level - rate) < 3 * np.sqrt(rate / (n * 0.1))

    def test_prefix_seam_invariance(self):
        # appending a constant prefix at the first segment's rate adds no seam
        spurious = 0
        for i in range(200):
            rng = run_stream(102, i)
            base = rng.poisson(500.0, size=300)
            prefix = rng.poisson(500.0, size=150)
            seg = detect_steps(PhotonTrace(0.0, 0.1, np.concatenate([prefix, base])))
            if seg.change_points:
                spurious += 1
        assert spurious <= 2

    def test_penalty_flag(self):
        tr = constant_trace(5e3, 500, run_stream(103, 0))
        # absurdly low penalty must produce splits; the default must not
        assert detect_steps(tr, penalty=0.01).change_points
        assert not detect_steps(tr).change_points

    @pytest.mark.parametrize("penalty", [-1.0, -1e-12, float("nan")])
    def test_negative_or_nan_penalty_rejected(self, penalty):
        # a negative penalty accepts splits that lose likelihood: [1, 2, 3, 2]
        # would split at every bin; nan would accept every split
        with pytest.raises(ValueError, match="penalty"):
            detect_steps(PhotonTrace(t0=0.0, bin_width=0.1, counts=[1, 2, 3, 2]), penalty=penalty)

    def test_one_bin_splits_do_not_exhaust_the_stack(self):
        # every best split peels off one bin, so the accepted splits nest
        # 2999 deep: a search that recursed per split overflowed the stack
        counts = np.tile([0, 10**6], 1500)
        seg = detect_steps(PhotonTrace(t0=0.0, bin_width=0.1, counts=counts))
        assert seg.change_points == list(range(1, 3000))
        assert seg.levels == [0.0, 1e7] * 1500

    @given(counts=traces, penalty=st.one_of(st.none(), st.just(0.0), st.floats(0, 30)))
    @settings(max_examples=300, deadline=None)
    @example(counts=[0], penalty=None)
    @example(counts=[0, 0], penalty=0.0)
    @example(counts=[5, 5], penalty=0.0)
    @example(counts=[3, 9], penalty=None)
    @example(counts=[7] * 40, penalty=0.0)
    @example(counts=[0] * 25, penalty=0.0)
    def test_matches_recursive_reference(self, counts, penalty):
        seg = detect_steps(PhotonTrace(t0=0.0, bin_width=0.1, counts=counts), penalty=penalty)
        assert (seg.change_points, seg.levels) == binary_segmentation(counts, 0.1, penalty)

    def test_mot_monitor_change_points_golden(self):
        # (change_points, levels) of three default one-hour mot_monitor traces
        found = []
        for seed in (1, 2, 3):
            cfg = parse_config(
                f"[experiment]\nkind = mot_monitor\nmaster_seed = {seed}\nschedule_s = 3600\n")
            ((_, trace),) = run_experiment(cfg).traces
            seg = detect_steps(trace)
            found.append((seg.change_points, seg.levels))
        digest = hashlib.sha256(repr(found).encode()).hexdigest()
        assert digest == MOT_MONITOR_SEGMENTATION_DIGEST


class TestInferAtomNumbers:
    def seg_for_levels(self, levels):
        from atomtrap import Segmentation
        return Segmentation(n_bins=10 * len(levels), bin_width=0.1,
                            change_points=[10 * i for i in range(1, len(levels))],
                            levels=list(levels))

    def test_background_is_zero(self):
        det = DetectorModel()
        seg = infer_atom_numbers(self.seg_for_levels([det.background_rate]), det)
        assert seg.inferred_n == [0]
        assert seg.ambiguous == [False]

    def test_two_atoms(self):
        det = DetectorModel()
        level = det.background_rate + 2 * det.per_atom_rate
        seg = infer_atom_numbers(self.seg_for_levels([level]), det)
        assert seg.inferred_n == [2]

    def test_ambiguity_flag(self):
        det = DetectorModel()
        level = det.background_rate + 1.4 * det.per_atom_rate
        seg = infer_atom_numbers(self.seg_for_levels([level]), det)
        assert seg.ambiguous == [True]

    def test_staircase_end_to_end_accuracy(self):
        # >= 99% of bins assigned the true atom number over synthesized staircases
        from atomtrap import MotRates, gillespie_mot, synthesize_mot_trace
        det = DetectorModel()
        rates = MotRates()
        good = total = 0
        for i in range(300):
            rng = run_stream(104, i)
            traj = gillespie_mot(rates, int(rng.integers(0, 4)), 30.0, rng)
            trace = synthesize_mot_trace(traj, det, rng)
            seg = infer_atom_numbers(detect_steps(trace), det)
            bounds = seg.boundaries
            for lo, hi, n in zip(bounds[:-1], bounds[1:], seg.inferred_n):
                for b in range(lo, hi):
                    mid = (b + 0.5) * det.bin_width
                    total += 1
                    if n == traj.value_at(mid):
                        good += 1
        assert good / total >= 0.99


class TestClassifyBurst:
    def test_posterior_normalized(self):
        model = BurstModel()
        for counts in (0, 1, 5, 20):
            cl = classify_burst(counts, 3, model)
            assert cl.posterior.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_atom_threshold(self):
        # MAP = F=4 exactly when counts >= 2 (k*ln7 >= 3 boundary)
        model = BurstModel()
        for counts in range(0, 51):
            cl = classify_burst(counts, 1, model)
            assert cl.map_state == (4 if counts >= 2 else 3)

    def test_zero_counts_posterior(self):
        cl = classify_burst(0, 1, BurstModel())
        expect = np.exp(-0.5) / (np.exp(-0.5) + np.exp(-3.5))
        assert cl.posterior[0] == pytest.approx(expect, abs=1e-9)
        assert cl.posterior[0] > 0.95

    def test_zero_atoms(self):
        cl = classify_burst(3, 0, BurstModel())
        assert cl.map_k == 0
        assert cl.posterior.shape == (1,)

    def test_map_state_multi_atom_raises(self):
        with pytest.raises(ValueError):
            classify_burst(2, 2, BurstModel()).map_state

    @pytest.mark.parametrize("n_atoms, mean_photons", [(1, 0.0), (0, 3.0)])
    def test_counts_no_hypothesis_can_give_raise(self, n_atoms, mean_photons):
        # every mean is 0, so every likelihood of 3 counts is 0
        model = BurstModel(mean_photons_per_atom=mean_photons, background_photons_per_window=0.0)
        with pytest.raises(ValueError, match="^3 counts are impossible"):
            classify_burst(3, n_atoms, model)
        assert classify_burst(0, n_atoms, model).posterior.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("model", [
        BurstModel(),
        BurstModel(mean_photons_per_atom=0.7, background_photons_per_window=2.0),
    ])
    def test_matches_the_gammaln_reference(self, model):
        # the log-factorial term is the same for every hypothesis, so math.lgamma
        # and scipy's gammaln give the same posterior up to rounding
        for counts in range(80):
            for n_atoms in range(8):
                mean = (model.background_photons_per_window
                        + np.arange(n_atoms + 1) * model.mean_photons_per_atom)
                loglik = counts * np.log(mean) - mean - gammaln(counts + 1)
                ref = np.exp(loglik - loglik.max())
                ref /= ref.sum()
                cl = classify_burst(counts, n_atoms, model)
                assert cl.map_k == int(np.argmax(ref))
                shown = ref > 1e-300
                np.testing.assert_allclose(cl.posterior[shown], ref[shown], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", [
        BurstModel(),
        BurstModel(mean_photons_per_atom=0.7, background_photons_per_window=2.0),
        BurstModel(mean_photons_per_atom=0.0),
        BurstModel(background_photons_per_window=0.0),
        BurstModel(mean_photons_per_atom=0.0, background_photons_per_window=0.0),
    ], ids=["default", "mu0.7-B2", "mu0", "B0", "mu0-B0"])
    def test_matches_the_reference_classifier_bit_for_bit(self, model):
        # the classifier reads the law from signals.burst_count_logpmf; its
        # posteriors, MAP and errors are those of the classifier that wrote
        # the law itself
        for counts in range(81):
            for n_atoms in range(9):
                try:
                    ref = burst_reference.classify_burst(counts, n_atoms, model)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        classify_burst(counts, n_atoms, model)
                    continue
                cl = classify_burst(counts, n_atoms, model)
                assert np.array_equal(cl.posterior, ref.posterior), (counts, n_atoms)
                assert cl.map_k == ref.map_k and cl.n_atoms == ref.n_atoms

    @pytest.mark.parametrize("counts, n_atoms, error, message", [
        (float("nan"), 1, TypeError, "window_counts must be of an integer type, not float64"),
        (2.5, 2, TypeError, "window_counts must be of an integer type, not float64"),
        (3, 2.5, TypeError, "n_atoms must be of an integer type, not float64"),
        (3, np.float64(2.0), TypeError, "n_atoms must be of an integer type, not float64"),
        (-1, 1, ValueError, "window_counts must be non-negative"),
        (1, -1, ValueError, "n_atoms must be non-negative"),
    ])
    def test_non_integer_or_negative_arguments_raise(self, counts, n_atoms, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            classify_burst(counts, n_atoms, BurstModel())

    def test_numpy_integers_accepted(self):
        cl = classify_burst(np.int64(3), np.uint8(2), BurstModel())
        assert cl.n_atoms == 2 and type(cl.n_atoms) is int
        assert np.array_equal(cl.posterior, classify_burst(3, 2, BurstModel()).posterior)


def grad_norm_check(fit, points, p_model):
    """Central finite-difference gradient of the binomial log-likelihood."""
    names = list(fit.parameters)
    x = np.array([fit.parameters[k] for k in names])

    def loglik(xv):
        ll = 0.0
        for t, succ, tot in points:
            p = min(max(p_model(t, dict(zip(names, xv))), 1e-12), 1 - 1e-12)
            ll += succ * np.log(p) + (tot - succ) * np.log1p(-p)
        return ll

    g = np.zeros(len(x))
    for j in range(len(x)):
        h = 1e-5 * max(abs(x[j]), 1e-3)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (loglik(xp) - loglik(xm)) / (2 * h)
    return np.linalg.norm(g)


class TestSurvivalFit:
    def noiseless_points(self, tau, a=1.0):
        ts = [1, 5, 10, 20, 40, 60, 80]
        tot = 400000
        return [(t, int(round(a * np.exp(-t / tau) * tot)), tot) for t in ts]

    def test_noiseless_recovery(self):
        fit = fit_exponential_survival(self.noiseless_points(51.0))
        assert fit.parameters["tau"] == pytest.approx(51.0, rel=1e-4)

    def test_noiseless_offset(self):
        fit = fit_exponential_survival(self.noiseless_points(51.0, a=0.5), offset_free=True)
        assert fit.parameters["tau"] == pytest.approx(51.0, rel=1e-3)
        assert fit.parameters["a"] == pytest.approx(0.5, rel=1e-3)

    def test_gradient_at_optimum(self):
        rng = run_stream(105, 0)
        pts = [(t, int(rng.binomial(400, np.exp(-t / 51))), 400)
               for t in (1, 5, 10, 20, 40, 60, 80)]
        fit = fit_exponential_survival(pts)
        norm = grad_norm_check(fit, pts, lambda t, p: np.exp(-t / p["tau"]))
        assert norm < 1e-2  # finite-difference noise floor at these counts

    def test_reorder_invariance(self):
        rng = run_stream(106, 0)
        pts = [(t, int(rng.binomial(400, np.exp(-t / 51))), 400)
               for t in (1, 5, 10, 20, 40, 60, 80)]
        f1 = fit_exponential_survival(pts)
        f2 = fit_exponential_survival(list(reversed(pts)))
        assert f1.parameters == f2.parameters

    def test_degenerate_data(self):
        with pytest.raises(FitError):
            fit_exponential_survival([(1, 100, 100), (10, 100, 100)])
        with pytest.raises(FitError):
            fit_exponential_survival([(1, 0, 100), (10, 0, 100)])

    def test_needs_two_times(self):
        with pytest.raises(ValueError):
            fit_exponential_survival([(1, 50, 100), (1, 60, 100)])

    def test_errors_positive_and_covariance_psd(self):
        rng = run_stream(107, 0)
        pts = [(t, int(rng.binomial(1000, 0.5 * np.exp(-t / 51))), 1000)
               for t in (1, 5, 10, 20, 40, 60, 80)]
        fit = fit_exponential_survival(pts, offset_free=True)
        assert all(v >= 0 for v in fit.standard_errors.values())
        cov = np.asarray(fit.covariance)
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-12)


class TestRelaxationFit:
    TAU = 1 / 0.264

    def model_p4(self, t, peq, p0):
        return peq + (p0 - peq) * np.exp(-t / self.TAU)

    def test_noiseless_recovery(self):
        ts = [0.5, 1, 2, 3, 4, 6, 8, 12]
        n = 1000000
        pts = [(t, round(self.model_p4(t, 0.5625, 0.95) * n) / n, n) for t in ts]
        fit = fit_relaxation(pts, f_initial=4)
        assert fit.parameters["tau"] == pytest.approx(self.TAU, rel=1e-3)
        assert fit.parameters["p4_eq"] == pytest.approx(0.5625, abs=1e-3)
        assert fit.parameters["p4_0"] == pytest.approx(0.95, abs=1e-3)

    def test_joint_noiseless_recovery(self):
        ts = [0.5, 1, 2, 3, 4, 6, 8, 12]
        n = 1000000
        p3 = [(t, round(self.model_p4(t, 0.5625, 0.0) * n) / n, n) for t in ts]
        p4 = [(t, round(self.model_p4(t, 0.5625, 1.0) * n) / n, n) for t in ts]
        fit = fit_relaxation_joint(p3, p4)
        assert fit.parameters["tau"] == pytest.approx(self.TAU, rel=1e-3)
        assert fit.parameters["p4_eq"] == pytest.approx(0.5625, abs=1e-3)

    def test_reorder_invariance(self):
        rng = run_stream(109, 0)
        ts = [1, 2, 3, 4, 6, 8, 10, 12]
        pts = [(t, rng.binomial(500, self.model_p4(t, 0.5625, 1.0)) / 500, 500) for t in ts]
        f1 = fit_relaxation(pts, f_initial=4)
        f2 = fit_relaxation(list(reversed(pts)), f_initial=4)
        assert f1.parameters == pytest.approx(f2.parameters)

    def test_joint_gradient_at_optimum(self):
        rng = run_stream(110, 0)
        ts = [1, 2, 3, 4, 6, 8, 10, 12]
        p3 = [(t, rng.binomial(500, self.model_p4(t, 0.5625, 0.0)) / 500, 500) for t in ts]
        p4 = [(t, rng.binomial(500, self.model_p4(t, 0.5625, 1.0)) / 500, 500) for t in ts]
        fit = fit_relaxation_joint(p3, p4)
        pts = ([(t, round(p * n), n) for t, p, n in p3]
               + [(t, round(p * n), n) for t, p, n in p4])
        p0s = [0.0] * len(p3) + [1.0] * len(p4)

        def p_model(t, params, p0):
            return params["p4_eq"] + (p0 - params["p4_eq"]) * np.exp(-t / params["tau"])

        names = list(fit.parameters)
        x = np.array([fit.parameters[k] for k in names])
        g = np.zeros(2)
        for j in range(2):
            h = 1e-5 * max(abs(x[j]), 1e-3)
            for sign in (+1, -1):
                xv = x.copy()
                xv[j] += sign * h
                ll = 0.0
                for (t, succ, tot), p0 in zip(pts, p0s):
                    p = min(max(p_model(t, dict(zip(names, xv)), p0), 1e-12), 1 - 1e-12)
                    ll += succ * np.log(p) + (tot - succ) * np.log1p(-p)
                g[j] += sign * ll
            g[j] /= 2 * h
        assert np.linalg.norm(g) < 1e-2

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_relaxation([(1, 0.5, 100), (2, 0.5, 100)], f_initial=4)

    def test_arms_consistent_on_common_rates(self):
        rng = run_stream(111, 0)
        ts = [1, 2, 3, 4, 5, 6, 8, 12]
        n = 3000
        p3 = [(t, rng.binomial(n, self.model_p4(t, 0.5625, 0.0)) / n, n) for t in ts]
        p4 = [(t, rng.binomial(n, self.model_p4(t, 0.5625, 1.0)) / n, n) for t in ts]
        f3 = fit_relaxation(p3, f_initial=3)
        f4 = fit_relaxation(p4, f_initial=4)
        sigma = np.hypot(f3.standard_errors["tau"], f4.standard_errors["tau"])
        assert abs(f3.parameters["tau"] - f4.parameters["tau"]) < 2 * sigma


# relaxation data as the experiments produce it: 8 points x 90 atoms per
# arm, drawn from the exact occupation at the reference trap
REF_HF = HyperfineRates(r_4to3=7 / 16 * 0.2639, r_3to4=9 / 16 * 0.2639)
FAMILY_T = np.array([3, 4, 4.5, 5, 5.5, 6, 8, 12.0])


def relaxation_family_arms(rep):
    rng = run_stream(7272, rep)
    arms = {}
    for f in (3, 4):
        k = rng.binomial(90, analytic_occupation(f, REF_HF, FAMILY_T))
        arms[f] = [(t, kk / 90, 90) for t, kk in zip(FAMILY_T, k)]
    return arms


class TestBinomialEngine:
    T = np.array([1, 2, 3, 4, 6, 8, 10, 12.0])
    # curve, time points, nominal parameters (tau first)
    CURVES = {
        "survival_tau": (_DecayCurve(eq=0.0, start=1.0), T * 6, [51.0]),
        "survival_tau_a": (_DecayCurve(eq=0.0), T * 6, [51.0, 0.5]),
        "relaxation": (_DecayCurve(), T, [3.8, 0.56, 0.9]),
        "joint": (_DecayCurve(start=np.repeat([0.0, 1.0], 8)), np.tile(T, 2), [3.8, 0.56]),
    }

    @staticmethod
    def derivatives(model, x):
        """(gradient, observed information, Fisher information) at x as arrays."""
        e, p, _ = model.evaluate(x)
        return [np.array(d) for d in model.derivatives(x, e, p)]

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_analytic_hessian_matches_gradient_differences(self, name):
        curve, t, nominal = self.CURVES[name]
        rng = run_stream(112, 0)
        p = _BinomialModel(t, np.zeros(len(t)), np.full(len(t), 200), curve).evaluate(nominal)[1]
        succ = rng.binomial(200, p)
        model = _BinomialModel(t, succ, np.full(len(t), 200), curve)
        for _ in range(5):
            x = np.array([nominal[0] * rng.uniform(0.3, 3.0),
                          *rng.uniform(0.1, 0.9, len(nominal) - 1)])
            fd = np.empty((len(x), len(x)))
            for j in range(len(x)):
                h = 1e-5 * x[j]
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                grad_p, grad_m = self.derivatives(model, xp)[0], self.derivatives(model, xm)[0]
                fd[:, j] = (grad_p - grad_m) / (2 * h)
            analytic = self.derivatives(model, x)[1]
            assert np.abs(analytic - fd).max() <= 1e-5 * np.abs(analytic).max()

    def test_bound_optima_converge(self):
        failures = {3: 0, 4: 0}
        for rep in range(40):
            arms = relaxation_family_arms(rep)
            for f in (3, 4):
                try:
                    fit_relaxation(arms[f], f_initial=f)
                except FitError:
                    failures[f] += 1
        assert failures[3] <= 2 and failures[4] <= 2

    def test_pure_preparation_reaches_bound(self):
        # the optimum sits on P4(0) = 1 at log-likelihood -448.63; a
        # stationary point inside the box, at tau ~ 0.075 s, has only -451.80
        fit = fit_relaxation(relaxation_family_arms(32)[4], f_initial=4)
        assert fit.parameters["p4_0"] == 1.0
        assert fit.log_likelihood >= -448.64


@pytest.fixture
def paired_fits(monkeypatch):
    """Runs every fit through analysis's engine and through fit_reference's,
    keeps going with analysis's outcome, and lists (what, outcome,
    reference outcome) per fit, an outcome being a FitResult or a FitError."""
    pairs = []
    engine_fit = analysis._fit

    def both(model, starts, names, lower, upper, what):
        reference = fit_reference._BinomialModel(
            model.t, model.succ, model.tot,
            fit_reference._DecayCurve(eq=model.curve.eq, start=model.curve.start))
        outcomes = []
        for fit in (lambda: engine_fit(model, starts, names, lower, upper, what),
                    lambda: fit_reference._fit(reference, starts, names, np.array(lower),
                                               np.array(upper), what)):
            try:
                outcomes.append(fit())
            except FitError as exc:
                outcomes.append(exc)
        pairs.append((what, *outcomes))
        if isinstance(outcomes[0], FitError):
            raise outcomes[0]
        return outcomes[0]

    monkeypatch.setattr(analysis, "_fit", both)
    return pairs


def assert_same_fits(pairs):
    """Same outcome and FitError reason; parameters within 1e-8 SE, SEs within
    1e-7 relative, covariances within 1e-7 SE_i SE_j, log-likelihoods within
    1e-9 (bounds fixed before the first comparison)."""
    for what, fit, ref in pairs:
        if isinstance(ref, FitError):
            assert isinstance(fit, FitError) and str(fit) == str(ref), what
            continue
        assert not isinstance(fit, FitError), f"{what}: {fit}"
        assert list(fit.parameters) == list(ref.parameters)
        se = np.array(list(ref.standard_errors.values()))
        assert np.all(np.abs(np.array(list(fit.parameters.values()))
                             - list(ref.parameters.values())) <= 1e-8 * se), what
        assert np.all(np.abs(np.array(list(fit.standard_errors.values())) - se) <= 1e-7 * se), what
        assert np.all(np.abs(fit.covariance - ref.covariance) <= 1e-7 * np.outer(se, se)), what
        assert abs(fit.log_likelihood - ref.log_likelihood) <= 1e-9, what


class TestFollowsTheReferenceEngine:
    """The engine against the numpy-per-step engine it replaced (fit_reference)."""

    def test_relaxation_family(self, paired_fits):
        for rep in range(200):
            arms = relaxation_family_arms(rep)
            for f in (3, 4):
                try:
                    fit_relaxation(arms[f], f_initial=f)
                except FitError:
                    pass
            fit_relaxation_joint(arms[3], arms[4])
        assert len(paired_fits) == 600
        assert_same_fits(paired_fits)
        # the reference fails on rep 62 F=3 alone, so a failure is compared too
        assert any(isinstance(ref, FitError) for _, _, ref in paired_fits)

    # each kind fits once: relaxation both arms jointly, the others one survival curve
    @pytest.mark.parametrize("kind, fits", [
        ("relaxation", 1), ("lifetime", 1), ("magnetic_lifetime", 1)])
    def test_default_experiments(self, paired_fits, kind, fits):
        for seed in range(40):
            run_experiment(parse_config(f"[experiment]\nkind = {kind}\nmaster_seed = {seed}\n"))
        assert len(paired_fits) == 40 * fits
        assert_same_fits(paired_fits)


SURVIVAL_POINTS = [(1, 390, 400), (20, 260, 400), (60, 120, 400)]
F3_POINTS = [(1.0, 0.21, 90), (2.0, 0.33, 90), (4.0, 0.46, 90), (8.0, 0.55, 90)]
F4_POINTS = [(1.0, 0.88, 90), (2.0, 0.79, 90), (4.0, 0.66, 90), (8.0, 0.58, 90)]
FITTERS = {
    "survival": lambda **kw: fit_exponential_survival(SURVIVAL_POINTS, **kw),
    "relaxation": lambda **kw: fit_relaxation(F3_POINTS, f_initial=3, **kw),
    "joint": lambda **kw: fit_relaxation_joint(F3_POINTS, F4_POINTS, **kw),
}


def _with_first_point(points, t=None, p4=None):
    (t0, y0, n0), *rest = points
    return [(t0 if t is None else t, y0 if p4 is None else p4, n0), *rest]


# each fitter on points whose first entry holds one bad time or p4
BAD_INPUT_FITS = {
    "survival": lambda **bad: fit_exponential_survival(_with_first_point(SURVIVAL_POINTS, **bad)),
    "relaxation": lambda **bad: fit_relaxation(_with_first_point(F3_POINTS, **bad), f_initial=3),
    "joint": lambda **bad: fit_relaxation_joint(F3_POINTS, _with_first_point(F4_POINTS, **bad)),
}


class TestFitDriver:
    @pytest.mark.parametrize("fitter", sorted(FITTERS))
    def test_failure_carries_the_solver_reason(self, fitter, monkeypatch):
        def solve(*args):
            raise FitError("fit did not converge (gradient norm 0.5)")
        monkeypatch.setattr(_BinomialModel, "solve", solve)
        with pytest.raises(FitError, match=r"gradient norm 0\.5"):
            FITTERS[fitter]()

    @pytest.mark.parametrize("fitter", sorted(FITTERS))
    def test_bootstrap_keyword_is_gone(self, fitter):
        with pytest.raises(TypeError, match="bootstrap"):
            FITTERS[fitter](bootstrap=10)

    @pytest.mark.parametrize("fitter, field, value", [
        *((fitter, "t", t) for fitter in sorted(BAD_INPUT_FITS)
          for t in (float("nan"), float("inf"), -1.0)),
        ("relaxation", "p4", float("nan")),
        ("joint", "p4", float("nan")),
    ])
    def test_bad_input_named_before_fitting(self, fitter, field, value, monkeypatch):
        def solve(*args):
            raise AssertionError("a fit ran")
        monkeypatch.setattr(_BinomialModel, "solve", solve)
        match = "times must be non-negative and finite" if field == "t" else r"p4 in \[0, 1\]"
        with pytest.raises(ValueError, match=match):
            BAD_INPUT_FITS[fitter](**{field: value})


class TestFitResultJson:
    def test_round_trip(self):
        fit = FitResult(
            parameters={"tau": 51.0, "a": 0.5},
            standard_errors={"tau": 3.0, "a": 0.02},
            covariance=np.array([[9.0, 0.1], [0.1, 4e-4]]),
            log_likelihood=-12.5,
            n_points=7,
        )
        rec = json.loads(fit.to_json())
        assert rec["parameter_names"] == ["tau", "a"]
        assert rec["values"] == [51.0, 0.5]
        assert rec["standard_errors"] == [3.0, 0.02]
        assert rec["covariance_row_major"] == [9.0, 0.1, 0.1, 4e-4]
        assert rec["log_likelihood"] == -12.5
        assert rec["n_points"] == 7

    def test_documented_record_fields(self):
        fit = FitResult({"tau": 1.0}, {"tau": 0.1}, np.array([[0.01]]), -1.0, 3)
        rec = json.loads(fit.to_json())
        assert set(rec) == {
            "parameter_names", "values", "standard_errors",
            "covariance_row_major", "log_likelihood", "n_points",
        }


@given(seed=st.integers(0, 10000))
@settings(max_examples=20, deadline=None)
def test_detect_steps_deterministic(seed):
    tr = constant_trace(5e3, 200, run_stream(seed, 0))
    a = detect_steps(tr)
    b = detect_steps(tr)
    assert a.change_points == b.change_points
    assert a.levels == b.levels
