"""Recover physics from photon traces.

Change-point atom counting, Poisson burst classification, and binomial
maximum-likelihood fits of survival and hyperfine-relaxation curves with
uncertainties from the observed information matrix.

All binomial fits share one solver: projected Newton on the box
constraints (Bertsekas 1982) with analytic first and second derivatives
of the curve, the observed information where it is positive definite and
the Fisher information otherwise, and a projected Armijo line search. It
converges on optima that sit on a bound, such as P4(0) = 1 for a pure
preparation.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .signals import (BurstModel, DetectorModel, PhotonTrace, burst_count_logpmf,
                      nonnegative_integers)

__all__ = [
    "Segmentation",
    "FitResult",
    "FitError",
    "BurstClassification",
    "detect_steps",
    "infer_atom_numbers",
    "classify_burst",
    "fit_exponential_survival",
    "fit_relaxation",
    "fit_relaxation_joint",
]


class FitError(RuntimeError):
    """Raised when a fit cannot converge (degenerate or pathological data)."""


@dataclass
class Segmentation:
    """Constant-rate segments of a photon trace.

    change_points are bin indices at which a new segment starts; segment i
    spans bins [boundaries[i], boundaries[i+1]). levels are count rates in
    counts/s.
    """

    n_bins: int
    bin_width: float
    change_points: list[int]
    levels: list[float]
    inferred_n: list[int] | None = None
    ambiguous: list[bool] | None = None

    @property
    def boundaries(self) -> list[int]:
        return [0, *self.change_points, self.n_bins]


@dataclass
class FitResult:
    """Maximum-likelihood fit: parameter values, errors and covariance."""

    parameters: dict[str, float]
    standard_errors: dict[str, float]
    covariance: np.ndarray
    log_likelihood: float
    n_points: int

    def to_json(self) -> str:
        names = list(self.parameters)
        rec = {
            "parameter_names": names,
            "values": [self.parameters[k] for k in names],
            "standard_errors": [self.standard_errors[k] for k in names],
            "covariance_row_major": [float(x) for x in np.asarray(self.covariance).ravel()],
            "log_likelihood": self.log_likelihood,
            "n_points": self.n_points,
        }
        return json.dumps(rec, sort_keys=True)


# ---------------------------------------------------------------------------
# change-point detection
# ---------------------------------------------------------------------------

def _poisson_ll(total: np.ndarray, bins: np.ndarray, out: np.ndarray, empty: np.ndarray):
    """total * ln(total / bins) - total into out, and 0 where total is 0:
    the Poisson log-likelihood of a segment at its rate MLE, without
    factorial terms. empty is a bool work buffer of the same size."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(total, bins, out=out)
        np.log(out, out=out)
        out *= total
    out -= total
    np.less_equal(total, 0, out=empty)
    out[empty] = 0.0
    return out


def detect_steps(trace: PhotonTrace, penalty: float | None = None) -> Segmentation:
    """Binary-segmentation change-point search with a penalized Poisson likelihood.

    A split is accepted when the log-likelihood gain exceeds the
    per-change-point penalty. The default penalty is 1.5*ln(n_bins), the
    change-point BIC that counts the split location alongside the new
    rate parameter; plain ln(n) admits noticeably more false positives.
    Raises ValueError for a penalty that is negative or nan.

    The search runs one tree depth at a time. The candidate splits of every
    open segment lie end to end in work buffers of n_bins - 1 entries, one
    pass computes all their gains, and each segment takes its first best
    split, as np.argmax over the segment alone would.
    """
    n = len(trace.counts)
    if penalty is None:
        penalty = 1.5 * math.log(max(n, 2))
    elif not penalty >= 0:
        raise ValueError("penalty must be non-negative")
    # prefix sums with a leading 0: bins [a, b) hold cs[b] - cs[a] counts
    cs = np.concatenate([[0.0], np.cumsum(trace.counts, dtype=float)])
    change_points: list[int] = []
    m = max(n - 1, 0)
    gain_buf, left_buf, right_buf = np.empty(m), np.empty(m), np.empty(m)
    split_buf, bins_buf = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    mask_buf, position = np.empty(m, dtype=bool), np.arange(m)
    lo, hi = np.array([0]), np.array([n])
    while True:
        keep = hi - lo >= 2
        lo, hi = lo[keep], hi[keep]
        if not lo.size:
            break
        # segment s owns entries first[s] ... first[s] + size[s] - 1, one
        # per split index lo[s] + 1 ... hi[s] - 1
        size = hi - lo - 1
        first = np.cumsum(size) - size
        k = int(first[-1] + size[-1])
        split, bins, mask = split_buf[:k], bins_buf[:k], mask_buf[:k]
        gains, left, right = gain_buf[:k], left_buf[:k], right_buf[:k]
        np.add(position[:k], np.repeat(lo - first + 1, size), out=split)
        total = cs[hi] - cs[lo]
        # math.log, not np.log, which may differ in the last bit and so
        # move a gain that sits on the penalty or ties another
        whole = np.array([c * math.log(c / b) - c if c > 0 else 0.0
                          for c, b in zip(total.tolist(), (hi - lo).tolist())])
        np.take(cs, split, out=left, mode="wrap")  # in range; "raise" would buffer
        left -= np.repeat(cs[lo], size)
        np.subtract(np.repeat(total, size), left, out=right)
        np.subtract(split, np.repeat(lo, size), out=bins)
        _poisson_ll(left, bins, gains, mask)
        np.subtract(np.repeat(hi, size), split, out=bins)
        gains += _poisson_ll(right, bins, left, mask)
        gains -= np.repeat(whole, size)
        best = np.maximum.reduceat(gains, first)
        # every segment holds its maximum, so its first hit is the first at
        # or after its first entry
        hits = np.flatnonzero(np.equal(gains, np.repeat(best, size), out=mask))
        accept = best > penalty
        cut = split[hits[np.searchsorted(hits, first[accept])]]
        change_points += cut.tolist()
        lo, hi = np.concatenate([lo[accept], cut]), np.concatenate([cut, hi[accept]])
    change_points.sort()
    boundaries = np.array([0, *change_points, n])
    levels = np.diff(cs[boundaries]) / (np.diff(boundaries) * trace.bin_width)
    return Segmentation(
        n_bins=n, bin_width=trace.bin_width, change_points=change_points,
        levels=levels.tolist(),
    )


# rounding residual, in atoms, above which a segment's atom number is ambiguous
AMBIGUITY_THRESHOLD = 0.3


def infer_atom_numbers(seg: Segmentation, det: DetectorModel) -> Segmentation:
    """Fill in integer atom numbers per segment from the detector calibration.

    n = round((level - background)/per_atom_rate); a segment is flagged
    ambiguous when the rounding residual exceeds AMBIGUITY_THRESHOLD.
    """
    if det.per_atom_rate <= 0:
        raise ValueError("per_atom_rate must be positive")
    inferred, ambiguous = [], []
    for level in seg.levels:
        x = (level - det.background_rate) / det.per_atom_rate
        n = max(int(round(x)), 0)
        inferred.append(n)
        ambiguous.append(abs(x - n) > AMBIGUITY_THRESHOLD)
    seg.inferred_n = inferred
    seg.ambiguous = ambiguous
    return seg


# ---------------------------------------------------------------------------
# burst classification
# ---------------------------------------------------------------------------

@dataclass
class BurstClassification:
    n_atoms: int
    posterior: np.ndarray  # P(k atoms in F=4 | counts), k = 0..n_atoms
    map_k: int

    @property
    def map_state(self) -> int:
        """MAP hyperfine state for a single atom (4 = bright, 3 = dark)."""
        if self.n_atoms != 1:
            raise ValueError("map_state is defined for single-atom windows only")
        return 4 if self.map_k == 1 else 3


def classify_burst(window_counts: int, n_atoms: int, model: BurstModel) -> BurstClassification:
    """Posterior over the number of bright (F=4) atoms in a detection window.

    burst_count_logpmf of the counts for k = 0..n_atoms bright atoms,
    normalised under a uniform prior. Raises TypeError when an argument is
    not an integer, ValueError when one is negative and for counts that no
    hypothesis can give, when every mean is 0.
    """
    n_atoms = operator.index(nonnegative_integers(n_atoms, "n_atoms"))
    window_counts = operator.index(nonnegative_integers(window_counts, "window_counts"))
    loglik = burst_count_logpmf(window_counts, np.arange(n_atoms + 1), model)
    if loglik.max() == -np.inf:
        raise ValueError(f"{window_counts} counts are impossible when every hypothesis "
                         "has a mean of 0 photons")
    post = np.exp(loglik - loglik.max())
    post /= post.sum()
    return BurstClassification(n_atoms=n_atoms, posterior=post, map_k=int(np.argmax(post)))


# ---------------------------------------------------------------------------
# binomial maximum-likelihood fitting
# ---------------------------------------------------------------------------

_P_EPS = 1e-9
_MAX_ITER = 100
_ARMIJO = 1e-4
_TAU_STEP = 4.0


class _DecayCurve:
    """p(t) = eq + (start - eq) * exp(-t/tau), the shape of every fitted curve.

    The parameter vector is (tau, eq, start) with each of eq and start
    dropped when it is held at a given value: survival holds eq = 0 (and
    start = 1 unless the amplitude is fitted), the joint relaxation fit
    holds start at 0 or 1 per point.
    """

    def __init__(self, eq=None, start=None):
        self.eq = eq
        self.start = start
        self.free = [0] + [i for i, held in ((1, eq), (2, start)) if held is None]

    def _unpack(self, x):
        rest = iter(x[1:])
        eq = next(rest) if self.eq is None else self.eq
        start = next(rest) if self.start is None else self.start
        return x[0], eq, start

    def p(self, t, x):
        tau, eq, start = self._unpack(x)
        with np.errstate(over="ignore", under="ignore"):
            return eq + (start - eq) * np.exp(-t / tau)

    def derivatives(self, t, x):
        """Jacobian (n, k) and second derivatives (n, k, k) of p in x."""
        tau, eq, start = self._unpack(x)
        with np.errstate(over="ignore", under="ignore"):
            e = np.exp(-t / tau)
            de = e * t / tau**2  # de/dtau
            d2e = de * (t / tau - 2) / tau
        amp = start - eq
        jac = np.stack([amp * de, 1 - e, e], axis=1)
        hess = np.zeros((len(t), 3, 3))
        hess[:, 0, 0] = amp * d2e
        hess[:, 0, 1] = hess[:, 1, 0] = -de
        hess[:, 0, 2] = hess[:, 2, 0] = de
        f = self.free
        return jac[:, f], hess[:, f][:, :, f]


class _BinomialModel:
    """Binomial likelihood of a parametric success-probability curve."""

    def __init__(self, t, succ, tot, curve: _DecayCurve):
        self.t = np.asarray(t, dtype=float)
        self.succ = np.asarray(succ, dtype=float)
        self.tot = np.asarray(tot, dtype=float)
        self.fail = self.tot - self.succ
        self.curve = curve

    # The likelihood is evaluated ~10 times per Newton step, so it calls the
    # min/max ufuncs and the sum method, skipping np.clip's and np.sum's
    # Python wrappers; the values are the same.
    def _p(self, x):
        return np.minimum(np.maximum(self.curve.p(self.t, x), _P_EPS), 1 - _P_EPS)

    def nll(self, x):
        p = self._p(x)
        return -float((self.succ * np.log(p) + self.fail * np.log1p(-p)).sum())

    def derivatives(self, x):
        """Gradient, observed information and Fisher information of the NLL."""
        p = self._p(x)
        jac, d2p = self.curve.derivatives(self.t, x)
        w = self.succ / p - self.fail / (1 - p)  # d loglik / dp
        grad = -jac.T @ w
        observed = (jac.T * (self.succ / p**2 + self.fail / (1 - p) ** 2)) @ jac
        observed -= np.einsum("i,ijk->jk", w, d2p)
        fisher = (jac.T * (self.tot / (p * (1 - p)))) @ jac
        return grad, observed, fisher

    def solve(self, x0, param_names, lower, upper):
        """Projected Newton (Bertsekas 1982) with an Armijo search on the box.

        A parameter at a bound whose gradient pushes it outward is held
        there; the others take a Newton step on the observed information,
        or on the Fisher information where the observed one is not
        positive definite.
        """
        x = np.clip(np.asarray(x0, dtype=float), lower, upper)
        f = self.nll(x)
        for _ in range(_MAX_ITER):
            g, observed, fisher = self.derivatives(x)
            free = ~_held(x, g, lower, upper)
            if not np.all(np.isfinite(g)) or np.linalg.norm(g[free]) < 1e-9:
                break
            sub = np.ix_(free, free)
            direction = _newton_direction(g[free], observed[sub], fisher[sub])
            if direction is None:
                break
            step = np.zeros_like(x)
            step[free] = direction
            # tau moves by at most a factor _TAU_STEP per iteration: a longer
            # step can land where exp(-t/tau) is flat over the data (tau -> 0
            # or infinity), and there the gradient and information vanish
            lo, hi = lower.copy(), upper.copy()
            lo[0] = max(lower[0], x[0] / _TAU_STEP)
            hi[0] = min(upper[0], x[0] * _TAU_STEP)
            # accept-tolerance scales with |f| (float resolution of the NLL)
            tol = 1e-12 + 1e-12 * abs(f)
            scale = 1.0
            for _ in range(40):
                x_new = np.minimum(np.maximum(x + scale * step, lo), hi)
                f_new = self.nll(x_new)
                if f_new <= f + _ARMIJO * (g @ (x_new - x)) + tol:
                    break
                scale *= 0.5
            else:
                break
            if np.array_equal(x_new, x):
                break
            x, f = x_new, f_new
        g, observed, _ = self.derivatives(x)
        g = np.where(_held(x, g, lower, upper), 0.0, g)
        if not np.all(np.isfinite(g)) or np.linalg.norm(g) > 1e-4:
            raise FitError(f"fit did not converge (gradient norm {np.linalg.norm(g):.3g})")
        try:
            cov = np.linalg.inv(observed)
        except np.linalg.LinAlgError as exc:
            raise FitError("observed information matrix is singular") from exc
        if np.any(np.diag(cov) < 0):
            raise FitError("observed information is not positive definite at the optimum")
        errs = np.sqrt(np.diag(cov))
        return FitResult(
            parameters=dict(zip(param_names, (float(v) for v in x))),
            standard_errors=dict(zip(param_names, (float(e) for e in errs))),
            covariance=cov,
            log_likelihood=-f,
            n_points=len(self.t),
        )


def _held(x, g, lower, upper):
    # KKT: at an active lower bound only a negative gradient component
    # signals non-optimality (and vice versa at an upper bound)
    return ((x <= lower + 1e-12) & (g > 0)) | ((x >= upper - 1e-12) & (g < 0))


def _newton_direction(g, observed, fisher):
    for info in (observed, fisher):
        try:
            np.linalg.cholesky(info)  # positive definite?
            return -np.linalg.solve(info, g)
        except np.linalg.LinAlgError:
            continue
    return None


def _fit(model: _BinomialModel, starts, names, lower, upper, what: str) -> FitResult:
    """Highest-likelihood fit over the starting points that converge.

    Raises FitError with the last start's reason when no start converges.
    """
    best = reason = None
    for x0 in starts:
        try:
            fit = model.solve(x0, names, lower, upper)
        except FitError as exc:
            reason = exc
            continue
        if best is None or fit.log_likelihood > best.log_likelihood:
            best = fit
    if best is None:
        raise FitError(f"{what} did not converge from any starting point: {reason}") from reason
    return best


def fit_exponential_survival(points, offset_free: bool = False) -> FitResult:
    """Binomial MLE of the survival curve p(t) = a * exp(-t/tau).

    points: iterable of (t_hold_s, survived, total). The amplitude a is
    fixed to 1 unless offset_free is set (magnetic trap: the immediate
    spin-projection loss shows up as a fitted a ~ 0.5). Solved by the
    projected Newton engine from a log-linear starting point.
    """
    pts = sorted((float(t), int(s), int(n)) for t, s, n in points)
    if len({t for t, _, _ in pts}) < 2:
        raise ValueError("need at least 2 distinct hold times")
    t = np.array([p[0] for p in pts])
    succ = np.array([p[1] for p in pts])
    tot = np.array([p[2] for p in pts])
    if not np.all((0 <= t) & (t < np.inf)):  # NaN fails too
        raise ValueError("hold times must be non-negative and finite")
    if np.any(tot <= 0) or np.any(succ < 0) or np.any(succ > tot):
        raise ValueError("require 0 <= survived <= total and total > 0")
    if np.all(succ == tot) or np.all(succ == 0):
        raise FitError("degenerate data: survival fraction is constant at 0 or 1")

    frac = np.clip(succ / tot, 1e-6, 1.0)
    # crude initial tau from a log-linear least-squares line
    slope = np.polyfit(t, np.log(frac), 1)[0]
    tau0 = -1.0 / slope if slope < -1e-12 else (t.max() - t.min()) * 2
    tau0 = min(max(tau0, 1e-6), 1e6)
    if offset_free:
        names = ("tau", "a")
        x0 = [tau0, min(float(frac.max()), 1.0)]
        lower, upper = np.array([1e-9, 1e-9]), np.array([np.inf, 1.0])
        curve = _DecayCurve(eq=0.0)
    else:
        names = ("tau",)
        x0 = [tau0]
        lower, upper = np.array([1e-9]), np.array([np.inf])
        curve = _DecayCurve(eq=0.0, start=1.0)
    return _fit(_BinomialModel(t, succ, tot, curve), [x0], names, lower, upper, "survival fit")


def _relaxation_arm(points):
    pts = sorted((float(t), float(p), int(n)) for t, p, n in points)
    t = np.array([p[0] for p in pts])
    p4 = np.array([p[1] for p in pts])
    tot = np.array([p[2] for p in pts])
    # written so that NaN fails each check
    if not np.all((0 <= t) & (t < np.inf)):
        raise ValueError("times must be non-negative and finite")
    if np.any(tot <= 0) or not np.all((0 <= p4) & (p4 <= 1)):
        raise ValueError("require n_atoms > 0 and p4 in [0, 1]")
    return t, p4, tot


def fit_relaxation(points, f_initial: int) -> FitResult:
    """Binomial MLE of P4(t) = P4eq + (P4(0) - P4eq) exp(-t/tau).

    points: iterable of (t_s, p4_hat, n_atoms); successes are
    round(p4_hat * n_atoms). Each preparation (F=3 or F=4) is fitted
    independently with all three parameters free in tau > 0 and
    P4eq, P4(0) in [0, 1]; the optimum may sit on a bound (a pure
    preparation gives P4(0) = 0 or 1). The projected Newton engine runs
    from four starting values of tau and the best converged fit is kept.
    """
    if f_initial not in (3, 4):
        raise ValueError("f_initial must be 3 or 4")
    t, p4, tot = _relaxation_arm(points)
    if len(t) < 3:
        raise ValueError("need at least 3 time points")
    model = _BinomialModel(t, np.round(p4 * tot), tot, _DecayCurve())

    p0_guess = 1.0 if f_initial == 4 else 0.0
    peq_guess = float(np.mean(p4[t >= np.median(t)]))
    span = max(t.max() - t.min(), 1e-6)
    names = ("tau", "p4_eq", "p4_0")
    lower, upper = np.array([1e-9, 0.0, 0.0]), np.array([np.inf, 1.0, 1.0])
    starts = [
        [tau0, min(max(peq_guess, 0.05), 0.95), min(max(p0_guess, 0.02), 0.98)]
        for tau0 in span * np.array([0.1, 0.3, 1.0, 3.0])
    ]
    return _fit(model, starts, names, lower, upper, "relaxation fit")


def fit_relaxation_joint(points_f3, points_f4) -> FitResult:
    """Joint binomial MLE of both preparation arms with pure initial states.

    Shares (tau, p4_eq) between the arms and pins P4(0) to 0 and 1; this
    is the efficient estimator when the preparation purity is trusted.
    Solved by the projected Newton engine from one start, tau = 0.3 times
    the span of the times.
    """
    t3, p3, n3 = _relaxation_arm(points_f3)
    t4, p4, n4 = _relaxation_arm(points_f4)
    if len(t3) + len(t4) < 3:
        raise ValueError("need at least 3 time points in total")
    t = np.concatenate([t3, t4])
    succ = np.concatenate([np.round(p3 * n3), np.round(p4 * n4)])
    tot = np.concatenate([n3, n4])
    start = np.concatenate([np.zeros_like(t3), np.ones_like(t4)])
    model = _BinomialModel(t, succ, tot, _DecayCurve(start=start))

    span = max(t.max() - t.min(), 1e-6)
    names = ("tau", "p4_eq")
    lower, upper = np.array([1e-9, 0.0]), np.array([np.inf, 1.0])
    return _fit(model, [[0.3 * span, 0.5]], names, lower, upper, "joint relaxation fit")
