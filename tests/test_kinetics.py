import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from atomtrap import (
    BurstModel,
    HyperfineRates,
    MotRates,
    StateTrajectory,
    analytic_occupation,
    gillespie_mot,
    run_stream,
    synthesize_detection_burst,
)
from atomtrap.kinetics import (
    _hyperfine_draw,
    _hyperfine_law,
    _magnetic_draw,
    _mot_draw,
    _mot_law,
    _survival_draw,
    _survival_law,
)
from telegraph_reference import hyperfine_telegraph
from two_sample import chi2_two_sample

REF_HF = HyperfineRates(r_4to3=7 / 16 * 0.2639, r_3to4=9 / 16 * 0.2639)


class TestStateTrajectory:
    def test_value_lookup(self):
        traj = StateTrajectory(times=[0.0, 1.0, 3.0], values=[2, 3, 1], t_end=5.0)
        assert traj.value_at(0.5) == 2
        assert traj.value_at(1.0) == 3
        assert traj.value_at(4.9) == 1
        assert traj.final_value() == 1

    def test_time_average(self):
        traj = StateTrajectory(times=[0.0, 1.0], values=[0, 2], t_end=2.0)
        assert traj.time_average() == pytest.approx(1.0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            StateTrajectory(times=[0.5], values=[1], t_end=1.0)  # must start at 0
        with pytest.raises(ValueError):
            StateTrajectory(times=[0.0, 0.0], values=[1, 2], t_end=1.0)
        with pytest.raises(ValueError):
            StateTrajectory(times=[0.0], values=[-1], t_end=1.0)
        with pytest.raises(ValueError):
            StateTrajectory(times=[0.0, 2.0], values=[1, 1], t_end=1.0)


class TestGillespie:
    def test_all_zero_rates(self):
        rates = MotRates(loading_rate_r=0.0, one_body_loss=0.5)
        traj = gillespie_mot(rates, 0, 10.0, run_stream(0, 0))
        assert traj.final_value() == 0
        assert len(traj.times) == 1

    def test_stationary_mean(self):
        # linear birth-death: stationary mean R/gamma = 5
        rates = MotRates(loading_rate_r=0.1, one_body_loss=0.02)
        traj = gillespie_mot(rates, 0, 1e5, run_stream(1, 0))
        assert traj.time_average() == pytest.approx(5.0, abs=0.2)

    def test_stationary_poisson_gof(self):
        # for beta=0 the stationary law is Poisson(R/gamma); chi-square at 1%
        rates = MotRates(loading_rate_r=0.1, one_body_loss=0.02)
        finals = np.array([
            gillespie_mot(rates, 5, 400.0, run_stream(2, i)).final_value()
            for i in range(1500)
        ])
        kmax = 12
        edges = list(range(kmax)) + [100]
        observed = np.array([np.sum(finals == k) for k in range(kmax)] + [np.sum(finals >= kmax)])
        pmf = stats.poisson.pmf(np.arange(kmax), 5.0)
        expected = np.concatenate([pmf, [1 - pmf.sum()]]) * len(finals)
        chi2 = np.sum((observed - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.99, df=kmax)

    def test_two_body_mean_vs_master_equation(self):
        # truncated master-equation oracle on <= 50 states
        rates = MotRates(loading_rate_r=0.1, one_body_loss=0.02,
                         two_body_pair_rate=0.01, two_body_loss_multiplicity=2)
        nmax = 50
        q = np.zeros((nmax + 1, nmax + 1))
        for n in range(nmax + 1):
            if n < nmax:
                q[n, n + 1] = rates.loading_rate_r
            if n >= 1:
                q[n, n - 1] += rates.one_body_loss * n
            if n >= 2:
                q[n, max(n - 2, 0)] += rates.two_body_pair_rate * n * (n - 1) / 2
            q[n, n] -= q[n].sum()
        # stationary distribution: left null vector of Q
        w = linalg.null_space(q.T)
        pi = np.abs(w[:, 0])
        pi /= pi.sum()
        mean_oracle = float(np.arange(nmax + 1) @ pi)
        assert mean_oracle < 5.0  # strictly below the R/gamma value

        traj = gillespie_mot(rates, 0, 2e5, run_stream(3, 0))
        assert traj.time_average() == pytest.approx(mean_oracle, abs=0.15)

    def test_two_body_floor(self):
        # multiplicity-2 losses never take the count negative
        rates = MotRates(loading_rate_r=0.5, one_body_loss=0.0,
                         two_body_pair_rate=5.0, two_body_loss_multiplicity=2)
        traj = gillespie_mot(rates, 3, 200.0, run_stream(4, 0))
        assert np.all(traj.values >= 0)

    def test_reproducible(self):
        rates = MotRates()
        a = gillespie_mot(rates, 2, 100.0, run_stream(5, 7))
        b = gillespie_mot(rates, 2, 100.0, run_stream(5, 7))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gillespie_mot(MotRates(), -1, 1.0, run_stream(0, 0))
        with pytest.raises(ValueError):
            gillespie_mot(MotRates(), 0, 0.0, run_stream(0, 0))
        with pytest.raises(ValueError):
            MotRates(two_body_loss_multiplicity=3)

    @pytest.mark.parametrize("t_max", [float("nan"), float("inf")])
    def test_non_finite_t_max_rejected(self, t_max):
        # the event loop ends only when an event falls past t_max, which never
        # happens for nan and, at R > 0, for inf; a bounded stream turns a
        # loop that would never return into a failure
        class BoundedStream:
            def __init__(self, rng, limit=10_000):
                self.rng, self.left = rng, limit

            def exponential(self, scale):
                self.left -= 1
                if self.left < 0:
                    raise RuntimeError("gillespie_mot did not stop")
                return self.rng.exponential(scale)

            def random(self):
                return self.rng.random()

        with pytest.raises(ValueError, match="t_max"):
            gillespie_mot(MotRates(), 0, t_max, BoundedStream(run_stream(1, 0)))


def _atoms(n, runs=1):
    return np.full(runs, n, dtype=np.int64)


class TestSurvival:
    # each draw takes the atoms of all runs at once
    def test_zero_hold(self):
        rng = run_stream(0, 0)
        assert _survival_law(51.0, 0.0) is None
        assert _survival_draw(_atoms(5, 3), None, rng).tolist() == [5, 5, 5]
        assert rng.random() == run_stream(0, 0).random()  # nothing was drawn

    def test_binomial_oracle(self):
        rng = run_stream(6, 0)
        tau, t, n0, runs = 51.0, 10.0, 4, 10000
        survivors = _survival_draw(_atoms(n0, runs), _survival_law(tau, t), rng)
        p = np.exp(-t / tau)
        mean, var = survivors.mean(), survivors.var(ddof=1)
        se = np.sqrt(n0 * p * (1 - p) / runs)
        assert abs(mean - n0 * p) < 3 * se
        # per-atom independence: variance matches the binomial value
        assert var == pytest.approx(n0 * p * (1 - p), rel=0.1)

    def test_short_hold_survival_band(self):
        rng = run_stream(7, 0)
        survivors = _survival_draw(_atoms(1, 10000), _survival_law(51.0, 1.0), rng).sum()
        assert survivors / 10000 == pytest.approx(np.exp(-1 / 51), abs=0.005)

    def test_magnetic_projection(self):
        rng = run_stream(8, 0)
        kept = _magnetic_draw(_atoms(1, 10000), _survival_law(51.0, 0.0), rng).sum()
        assert kept / 10000 == pytest.approx(0.50, abs=0.015)

    def test_magnetic_zero_atoms(self):
        rng = run_stream(0, 0)
        assert _magnetic_draw(_atoms(0, 3), _survival_law(51.0, 5.0), rng).tolist() == [0, 0, 0]
        assert rng.random() == run_stream(0, 0).random()  # nothing was drawn

    def test_magnetic_shape_matches_dipole(self):
        # survival(t)/survival(0+) follows the dipole exponential
        rng = run_stream(9, 0)
        t = 20.0
        kept = _magnetic_draw(_atoms(1, 20000), _survival_law(51.0, t), rng).sum()
        expected = 0.5 * np.exp(-t / 51.0)
        assert kept / 20000 == pytest.approx(expected, abs=0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            _survival_law(0.0, 1.0)
        with pytest.raises(ValueError):
            _survival_law(51.0, -1.0)


class TestTelegraph:
    def test_zero_rates_constant(self):
        traj = hyperfine_telegraph(4, HyperfineRates(0.0, 0.0), 10.0, run_stream(0, 0))
        assert traj.final_value() == 4
        assert len(traj.times) == 1

    def test_equilibrium(self):
        rng = run_stream(10, 0)
        finals = [
            hyperfine_telegraph(3, REF_HF, 60.0, rng).final_value() for _ in range(10000)
        ]
        p4 = np.mean(np.array(finals) == 4)
        assert p4 == pytest.approx(0.5625, abs=0.01)

    def test_matches_analytic_occupation(self):
        rng = run_stream(11, 0)
        for f0 in (3, 4):
            for t in (0.5, 2.0, 5.0):
                finals = np.array([
                    hyperfine_telegraph(f0, REF_HF, t, rng).final_value()
                    for _ in range(4000)
                ])
                p4_hat = np.mean(finals == 4)
                p4 = analytic_occupation(f0, REF_HF, t)
                se = np.sqrt(p4 * (1 - p4) / len(finals))
                assert abs(p4_hat - p4) < 3.5 * se

    def test_ensemble_rate_recovery(self):
        # relaxation rate from the ensemble curve equals r43 + r34 within 5%
        rng = run_stream(12, 0)
        ts = np.array([1.0, 2.0, 4.0, 6.0])
        p4 = []
        for t in ts:
            finals = np.array([
                hyperfine_telegraph(4, REF_HF, float(t), rng).final_value()
                for _ in range(10000)
            ])
            p4.append(np.mean(finals == 4))
        y = np.log((np.array(p4) - 0.5625) / (1 - 0.5625))
        slope = np.polyfit(ts, y, 1)[0]
        assert -slope == pytest.approx(REF_HF.total, rel=0.05)

    def test_reproducible(self):
        a = hyperfine_telegraph(4, REF_HF, 50.0, run_stream(13, 3))
        b = hyperfine_telegraph(4, REF_HF, 50.0, run_stream(13, 3))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)


class TestAnalyticOccupation:
    def test_t_zero(self):
        assert analytic_occupation(4, REF_HF, 0.0) == 1.0
        assert analytic_occupation(3, REF_HF, 0.0) == 0.0

    def test_long_time(self):
        assert analytic_occupation(3, REF_HF, 1e6) == pytest.approx(0.5625, abs=1e-9)

    def test_frozen_point(self):
        rates = HyperfineRates(7 / 16 * 0.264, 9 / 16 * 0.264)
        p4 = analytic_occupation(4, rates, 1 / 0.264)
        assert p4 == pytest.approx(0.5625 + 0.4375 * np.exp(-1), abs=1e-9)

    def test_zero_rates(self):
        assert analytic_occupation(3, HyperfineRates(0.0, 0.0), 5.0) == 0.0

    def test_vectorized(self):
        out = analytic_occupation(4, REF_HF, [0.0, 1.0, 2.0])
        assert out.shape == (3,)
        assert out[0] == 1.0

    @given(t=st.floats(0.0, 50.0), f0=st.sampled_from([3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, t, f0):
        p = analytic_occupation(f0, REF_HF, t)
        assert 0.0 <= p <= 1.0


class TestHyperfineRates:
    def test_equilibrium_formula(self):
        assert REF_HF.p4_equilibrium == pytest.approx(9 / 16)

    def test_zero_rates_equilibrium_undefined(self):
        with pytest.raises(ValueError):
            HyperfineRates(0.0, 0.0).p4_equilibrium


# Endpoint laws against the paths they replace: two-sample chi-square tests,
# rejected below this p-value.
ENDPOINT_P_MIN = 1e-3
ENDPOINT_SAMPLES = 4000
# 5 ms at the dimensionless point of the default rates over 60 s
# (gamma * t = 1.2, R / gamma = 5), so the short-time law is exercised too
FAST_MOT = MotRates(loading_rate_r=1200.0, one_body_loss=240.0)


def _reference_occupation(f_initial, rates, t) -> float:
    """P(F=4 at t) as analytic_occupation computed it, written out as the reference."""
    p0 = 1.0 if f_initial == 4 else 0.0
    if rates.total == 0:
        return p0
    p_eq = rates.p4_equilibrium
    return float(p_eq + (p0 - p_eq) * np.exp(-rates.total * np.asarray(t, dtype=float)))


class _BinomialSpy:
    """Generator stand-in that records the probabilities of the binomial
    draws of one endpoint, each a scalar, as one tuple (F=4 first, then F=3)."""

    def __init__(self, rng):
        self.rng, self._drawn = rng, []

    @property
    def p(self):
        return [tuple(self._drawn)] if self._drawn else []

    def binomial(self, n, p):
        assert np.ndim(p) == 0
        self._drawn.append(float(p))
        return self.rng.binomial(n, p)


class TestHyperfineEndpoint:
    @pytest.mark.parametrize("f0", [3, 4])
    @pytest.mark.parametrize("t", [0.1, 3.0, 12.0])
    def test_matches_telegraph_final_value(self, f0, t):
        path = [hyperfine_telegraph(f0, REF_HF, t, run_stream(40, i)).final_value()
                for i in range(ENDPOINT_SAMPLES)]
        n4, n3 = (1, 0) if f0 == 4 else (0, 1)
        endpoint = 3 + _hyperfine_draw(_atoms(n4, ENDPOINT_SAMPLES), _atoms(n3, ENDPOINT_SAMPLES),
                                       _hyperfine_law(REF_HF, t), run_stream(41, 0))
        assert chi2_two_sample(path, endpoint) > ENDPOINT_P_MIN

    def test_counts_are_sums_of_atoms(self):
        rng = run_stream(42, 0)
        draws = _hyperfine_draw(_atoms(3, 4000), _atoms(2, 4000), _hyperfine_law(REF_HF, 2.0), rng)
        assert draws.min() >= 0 and draws.max() <= 5
        mean = 3 * analytic_occupation(4, REF_HF, 2.0) + 2 * analytic_occupation(3, REF_HF, 2.0)
        assert draws.mean() == pytest.approx(mean, abs=4 * draws.std() / np.sqrt(len(draws)))

    def test_zero_time_and_no_atoms_draw_nothing(self):
        rng = run_stream(43, 0)
        assert _hyperfine_law(REF_HF, 0.0) is None
        assert _hyperfine_draw(_atoms(2, 3), _atoms(3, 3), None, rng).tolist() == [2, 2, 2]
        law = _hyperfine_law(REF_HF, 5.0)
        assert _hyperfine_draw(_atoms(0, 3), _atoms(0, 3), law, rng).tolist() == [0, 0, 0]
        assert rng.random() == run_stream(43, 0).random()

    @pytest.mark.parametrize("rates", [REF_HF, HyperfineRates(0.3, 0.0), HyperfineRates(0.0, 0.2),
                                       HyperfineRates(5.0, 1e-3), HyperfineRates(0.0, 0.0)])
    def test_draws_equal_two_occupation_reference(self, rates):
        cases = [(n4, n3, t) for n4, n3 in [(0, 0), (1, 0), (0, 1), (3, 2), (40, 50)]
                 for t in (0.0, 1e-3, 0.7, 3.0, 40.0)]
        for i, (n4, n3, t) in enumerate(cases):
            spy = _BinomialSpy(run_stream(47, i))
            reference = run_stream(47, i)
            if t == 0 or n4 + n3 == 0:
                expected, p = n4, None
            else:
                p = (_reference_occupation(4, rates, t), _reference_occupation(3, rates, t))
                expected = int(reference.binomial((n4, n3), p).sum())
            law = _hyperfine_law(rates, t)
            assert _hyperfine_draw(_atoms(n4), _atoms(n3), law, spy).tolist() == [expected]
            # bit-identical probabilities, not merely equal draws
            assert spy.p == ([] if p is None else [p])
            assert spy.rng.random() == reference.random()
            for f in (3, 4):
                assert analytic_occupation(f, rates, t) == _reference_occupation(f, rates, t)

    def test_invalid(self):
        with pytest.raises(ValueError):
            _hyperfine_draw(_atoms(-1), _atoms(0), _hyperfine_law(REF_HF, 1.0), run_stream(0, 0))
        with pytest.raises(ValueError):
            _hyperfine_law(REF_HF, -1.0)


class TestMotEndpoint:
    @pytest.mark.parametrize("rates, n0, t", [
        (FAST_MOT, 0, 5e-3),
        (FAST_MOT, 4, 5e-3),
        (MotRates(), 0, 60.0),
        (MotRates(), 4, 60.0),
        (MotRates(loading_rate_r=1000.0, one_body_loss=0.0), 4, 5e-3),
    ])
    def test_matches_gillespie_final_value(self, rates, n0, t):
        path = [gillespie_mot(rates, n0, t, run_stream(44, i)).final_value()
                for i in range(ENDPOINT_SAMPLES)]
        endpoint = _mot_draw(_atoms(n0, ENDPOINT_SAMPLES), _mot_law(rates, t), run_stream(45, 0))
        assert chi2_two_sample(path, endpoint) > ENDPOINT_P_MIN

    def test_gamma_zero_limit_keeps_every_atom(self):
        rates = MotRates(loading_rate_r=0.0, one_body_loss=0.0)
        rng = run_stream(46, 0)
        assert _mot_draw(_atoms(4, 3), _mot_law(rates, 60.0), rng).tolist() == [4, 4, 4]

    def test_two_body_loss_rejected(self):
        with pytest.raises(ValueError, match="two_body_pair_rate"):
            _mot_law(MotRates(two_body_pair_rate=0.01), 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            _mot_draw(_atoms(-1), _mot_law(MotRates(), 1.0), run_stream(0, 0))
        with pytest.raises(ValueError):
            _mot_law(MotRates(), -1.0)


# Each law's checks run before any draw, on the arguments it reads; nan
# fails no "x < 0" test, so each check must be one that nan fails. Each
# entry is named after the endpoint it draws: the law, then its draw.
_NAN_ARGUMENTS = [
    ("dipole_survival", "lifetime",
     lambda x, rng: _survival_draw(_atoms(3), _survival_law(x, 1.0), rng)),
    ("dipole_survival", "t_hold",
     lambda x, rng: _survival_draw(_atoms(3), _survival_law(51.0, x), rng)),
    ("magnetic_trap_survival", "lifetime",
     lambda x, rng: _magnetic_draw(_atoms(3), _survival_law(x, 1.0), rng)),
    ("magnetic_trap_survival", "t_hold",
     lambda x, rng: _magnetic_draw(_atoms(3), _survival_law(51.0, x), rng)),
    ("mot_endpoint", "t", lambda x, rng: _mot_draw(_atoms(2), _mot_law(MotRates(), x), rng)),
    ("hyperfine_endpoint", "t",
     lambda x, rng: _hyperfine_draw(_atoms(1), _atoms(1), _hyperfine_law(REF_HF, x), rng)),
    ("synthesize_detection_burst", "window",
     lambda x, rng: synthesize_detection_burst(2, BurstModel(), rng, window=x)),
]


@pytest.mark.parametrize("argument, call", [(a, c) for _, a, c in _NAN_ARGUMENTS],
                         ids=[f"{f}.{a}" for f, a, _ in _NAN_ARGUMENTS])
def test_nan_argument_rejected_by_name(argument, call):
    rng = run_stream(0, 0)
    with pytest.raises(ValueError, match=rf"^{argument} must be"):
        call(float("nan"), rng)
    assert rng.random() == run_stream(0, 0).random()  # nothing was drawn
