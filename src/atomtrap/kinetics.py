"""Exact stochastic simulation of atom-number and hyperfine-state dynamics.

All simulators take an explicit numpy Generator and are deterministic given
that stream (see atomtrap.streams).

Each closed-form endpoint law is written once, as a checked helper
_<law>_law that computes its parameters and a _<law>_draw that only draws
from them. A draw takes the atom numbers of any number of runs as an int
array and draws once for all of them; when no run holds an atom it draws
nothing and returns the atoms as they are. sequence.bind_plan calls each
helper once per phase and each draw once per arm. There are no public
per-run samplers: gillespie_mot is the one path simulator, for two-body
loss and traced runs, where no closed form exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MotRates",
    "HyperfineRates",
    "StateTrajectory",
    "gillespie_mot",
    "analytic_occupation",
]


@dataclass(frozen=True)
class MotRates:
    """Birth-death rates of the MOT atom number.

    loading_rate_r: atoms/s loaded from the vapor.
    one_body_loss: per-atom background-collision loss rate, 1/s.
    two_body_pair_rate: cold-collision rate per unordered atom pair, 1/s;
        the total two-body event rate at N atoms is rate * N(N-1)/2.
    two_body_loss_multiplicity: atoms removed per two-body event (1 or 2).
    """

    loading_rate_r: float = 0.1
    one_body_loss: float = 0.02
    two_body_pair_rate: float = 0.0
    two_body_loss_multiplicity: int = 2

    def __post_init__(self):
        if not all(r >= 0 for r in (self.loading_rate_r, self.one_body_loss,
                                    self.two_body_pair_rate)):
            raise ValueError("rates must be non-negative")
        if self.two_body_loss_multiplicity not in (1, 2):
            raise ValueError("two_body_loss_multiplicity must be 1 or 2")


@dataclass(frozen=True)
class HyperfineRates:
    """Raman transfer rates between the F=4 and F=3 ground states."""

    r_4to3: float
    r_3to4: float

    def __post_init__(self):
        if not (self.r_4to3 >= 0 and self.r_3to4 >= 0):
            raise ValueError("rates must be non-negative")

    @property
    def total(self) -> float:
        return self.r_4to3 + self.r_3to4

    @property
    def p4_equilibrium(self) -> float:
        if self.total == 0:
            raise ValueError("equilibrium undefined for zero rates")
        return self.r_3to4 / self.total


@dataclass
class StateTrajectory:
    """Piecewise-constant integer record: value applies from each time until the next."""

    times: np.ndarray  # strictly increasing, times[0] == 0
    values: np.ndarray  # integers >= 0
    t_end: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=np.int64)
        if len(self.times) != len(self.values) or len(self.times) == 0:
            raise ValueError("times and values must be non-empty and equal length")
        if self.times[0] != 0.0:
            raise ValueError("first event must be at t=0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("event times must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("values must be non-negative")
        if not self.t_end >= self.times[-1]:
            raise ValueError("t_end precedes the last event")

    def value_at(self, t: float) -> int:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return int(self.values[max(idx, 0)])

    def time_average(self) -> float:
        if self.t_end == 0:
            return float(self.values[0])
        durations = np.diff(np.append(self.times, self.t_end))
        return float(np.sum(durations * self.values) / self.t_end)

    def final_value(self) -> int:
        return int(self.values[-1])


def gillespie_mot(
    rates: MotRates, n0: int, t_max: float, rng: np.random.Generator
) -> StateTrajectory:
    """Statistically exact simulation of the MOT birth-death process.

    Events: loading (N -> N+1) at constant rate R, one-body loss at
    gamma*N, and two-body loss at rate beta*N(N-1)/2 removing the
    configured multiplicity (floored at zero atoms).
    """
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    if n0 < 0:
        raise ValueError("n0 must be non-negative")
    times = [0.0]
    values = [int(n0)]
    t = 0.0
    n = int(n0)
    r_load = rates.loading_rate_r
    gamma = rates.one_body_loss
    beta = rates.two_body_pair_rate
    drop = rates.two_body_loss_multiplicity
    while True:
        a_load = r_load
        a_one = gamma * n
        a_two = beta * n * (n - 1) / 2.0
        a_total = a_load + a_one + a_two
        if a_total == 0.0:
            break
        t += rng.exponential(1.0 / a_total)
        if t >= t_max:
            break
        u = rng.random() * a_total
        if u < a_load:
            n += 1
        elif u < a_load + a_one:
            n -= 1
        else:
            n = max(n - drop, 0)
        times.append(t)
        values.append(n)
    return StateTrajectory(np.array(times), np.array(values), t_end=t_max)


def _survival_law(lifetime: float, t_hold: float) -> float | None:
    """The probability exp(-t_hold/lifetime) that an atom survives a hold,
    or None for a hold of zero length, which draws nothing."""
    if not lifetime > 0:
        raise ValueError("lifetime must be positive")
    if not t_hold >= 0:
        raise ValueError("t_hold must be non-negative")
    return None if t_hold == 0 else np.exp(-t_hold / lifetime)


def _survival_draw(n: np.ndarray, law: float | None, rng: np.random.Generator) -> np.ndarray:
    """Each of the atoms n survives with probability law, independently."""
    return rng.binomial(n, law) if law is not None and n.any() else n


def _magnetic_draw(n: np.ndarray, law: float | None, rng: np.random.Generator) -> np.ndarray:
    """The quadrupole trap: the spin projection keeps half the atoms at once,
    then the rest survive as in a dipole hold."""
    return _survival_draw(_survival_draw(n, 0.5, rng), law, rng)


def _occupations(rates: HyperfineRates, t):
    """P(F=4 at time t) of the two-state F = 3, 4 Markov chain from F=4 and from F=3.

    P4(t) = P4_eq + (P4(0) - P4_eq) exp(-(r43 + r34) t), one exp for both
    initial states; with both rates zero, the initial occupations.
    """
    total = rates.total
    if total == 0:
        return np.ones_like(t), np.zeros_like(t)
    p_eq = rates.r_3to4 / total
    decay = np.exp(-total * t)
    return p_eq + (1.0 - p_eq) * decay, p_eq + (0.0 - p_eq) * decay


def analytic_occupation(f_initial: int, rates: HyperfineRates, t) -> float:
    """Closed-form P(F=4 at time t) of the telegraph process.

    P4(t) = P4_eq + (P4(0) - P4_eq) exp(-(r43 + r34) t); with both rates
    zero the initial occupation is returned.
    """
    if f_initial not in (3, 4):
        raise ValueError("f_initial must be 3 or 4")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be non-negative")
    out = _occupations(rates, t)[0 if f_initial == 4 else 1]
    return float(out) if out.ndim == 0 else out


def _mot_law(rates: MotRates, t: float) -> tuple[float | None, float]:
    """(survival probability of the atoms present, None when gamma = 0 and
    every atom stays; mean number loaded) of _mot_draw's law."""
    if rates.two_body_pair_rate != 0.0:
        raise ValueError("the closed-form endpoint needs two_body_pair_rate = 0")
    if not t >= 0:
        raise ValueError("t must be non-negative")
    gamma = rates.one_body_loss
    if gamma == 0.0:
        return None, rates.loading_rate_r * t
    lost = -np.expm1(-gamma * t)  # 1 - exp(-gamma t) without cancellation
    return 1.0 - lost, rates.loading_rate_r * lost / gamma


def _mot_draw(n: np.ndarray, law: tuple[float | None, float],
              rng: np.random.Generator) -> np.ndarray:
    """gillespie_mot's final value with no two-body loss: N(t) ~ Bin(n, exp(-gamma t))
    + Poisson(R (1 - exp(-gamma t)) / gamma), the atoms present surviving and
    the atoms loaded since; n + Poisson(R t) at gamma = 0."""
    keep, mean_loaded = law
    kept = _survival_draw(n, keep, rng)
    return kept + rng.poisson(np.full(n.shape, mean_loaded)) if mean_loaded > 0 else kept


def _hyperfine_law(rates: HyperfineRates, t: float) -> tuple[float, float] | None:
    """The analytic_occupation at t from F=4 and from F=3, or None for t = 0,
    which draws nothing."""
    if not t >= 0:
        raise ValueError("t must be non-negative")
    return None if t == 0 else tuple(map(float, _occupations(rates, t)))


def _hyperfine_draw(n_f4: np.ndarray, n_f3: np.ndarray, law: tuple[float, float] | None,
                    rng: np.random.Generator) -> np.ndarray:
    """Atoms in F=4 after the law's time, from n_f4 atoms in F=4 and n_f3 in F=3:
    each atom's final F is a Bernoulli draw with the analytic_occupation of
    its initial state, drawn as two binomials, the F=4 atoms' first."""
    if law is None or not (n_f4 + n_f3).any():
        return n_f4
    return rng.binomial(n_f4, law[0]) + rng.binomial(n_f3, law[1])
