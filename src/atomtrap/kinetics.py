"""Exact stochastic simulation of atom-number and hyperfine-state dynamics.

All simulators take an explicit numpy Generator and are deterministic given
that stream; independent runs should each receive their own stream (see
atomtrap.streams).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MotRates",
    "HyperfineRates",
    "StateTrajectory",
    "gillespie_mot",
    "dipole_survival",
    "magnetic_trap_survival",
    "analytic_occupation",
    "mot_endpoint",
    "hyperfine_endpoint",
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


def dipole_survival(n0: int, lifetime: float, t_hold: float, rng: np.random.Generator) -> int:
    """Number of atoms remaining after holding n0 atoms in the dipole trap.

    Each atom survives independently with probability exp(-t_hold/lifetime).
    """
    if lifetime <= 0:
        raise ValueError("lifetime must be positive")
    if t_hold < 0:
        raise ValueError("t_hold must be non-negative")
    if n0 < 0:
        raise ValueError("n0 must be non-negative")
    if t_hold == 0 or n0 == 0:
        return int(n0)
    return int(rng.binomial(n0, np.exp(-t_hold / lifetime)))


def magnetic_trap_survival(n0: int, lifetime: float, t_hold: float, rng: np.random.Generator) -> int:
    """Survival in the quadrupole magnetic trap.

    Half the atoms are lost immediately (statistical spin projection onto
    trappable states); the remainder decay as in dipole_survival.
    """
    if n0 < 0:
        raise ValueError("n0 must be non-negative")
    projected = int(rng.binomial(n0, 0.5)) if n0 else 0
    return dipole_survival(projected, lifetime, t_hold, rng)


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


def mot_endpoint(rates: MotRates, n0: int, t: float, rng: np.random.Generator) -> int:
    """Exact MOT atom number after time t without simulating the path (beta = 0).

    With no two-body loss the atoms present at t = 0 survive independently
    with probability exp(-gamma t) and the atoms loaded since form an
    independent Poisson number of mean R (1 - exp(-gamma t)) / gamma, so
    N(t) ~ Bin(n0, exp(-gamma t)) + Poisson(R (1 - exp(-gamma t)) / gamma);
    the gamma = 0 limit is n0 + Poisson(R t). This is the law of
    gillespie_mot(rates, n0, t, rng).final_value().
    """
    if rates.two_body_pair_rate != 0.0:
        raise ValueError("the closed-form endpoint needs two_body_pair_rate = 0")
    if t < 0:
        raise ValueError("t must be non-negative")
    if n0 < 0:
        raise ValueError("n0 must be non-negative")
    gamma = rates.one_body_loss
    if gamma == 0.0:
        kept, mean_loaded = int(n0), rates.loading_rate_r * t
    else:
        lost = -np.expm1(-gamma * t)  # 1 - exp(-gamma t) without cancellation
        kept = int(rng.binomial(n0, 1.0 - lost)) if n0 else 0
        mean_loaded = rates.loading_rate_r * lost / gamma
    return kept + (int(rng.poisson(mean_loaded)) if mean_loaded > 0 else 0)


def hyperfine_endpoint(
    n_f4: int, n_f3: int, rates: HyperfineRates, t: float, rng: np.random.Generator
) -> int:
    """Number of atoms in F=4 after time t, from n_f4 atoms in F=4 and n_f3 in F=3.

    Each atom flips between F=4 and F=3 at the rates r_4to3 and r_3to4,
    independently of the others, so its final F is a Bernoulli draw with
    the analytic_occupation of its initial state; the F=4 count is their
    sum, drawn as the two binomials in one vectorised call.
    """
    if n_f4 < 0 or n_f3 < 0:
        raise ValueError("atom counts must be non-negative")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0 or n_f4 + n_f3 == 0:
        return int(n_f4)
    return int(rng.binomial((n_f4, n_f3), _occupations(rates, t)).sum())
