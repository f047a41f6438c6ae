"""The binomial fit engine that analysis's fitters must reproduce.

This is the numpy-per-step form, copied as it was before the engine moved
its per-parameter work to Python floats: every Newton step rebuilds the
(n, k, k) second-derivative tensor and reduces it with einsum, each line
search trial recomputes exp(-t/tau), and LAPACK tests positive definiteness
and solves for the direction. The engine in analysis must reach the same
converged or failed outcome, with the same FitError reason, and the same
optima, standard errors and log-likelihoods to within rounding.
"""

import numpy as np

from atomtrap.analysis import FitError, FitResult

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
