"""Path simulation of one atom's hyperfine state: the reference the endpoint law must match.

kinetics.hyperfine_endpoint draws only where each atom ends up; this walks
the whole path, one exponential waiting time per flip, so the tests can
check the closed-form occupation and the endpoint law against it.
"""

import numpy as np

from atomtrap import HyperfineRates, StateTrajectory


def hyperfine_telegraph(
    f_initial: int, rates: HyperfineRates, t: float, rng: np.random.Generator
) -> StateTrajectory:
    """Two-state continuous-time Markov chain over the F = 3, 4 ground states."""
    if f_initial not in (3, 4):
        raise ValueError("f_initial must be 3 or 4")
    if t < 0:
        raise ValueError("t must be non-negative")
    times = [0.0]
    values = [f_initial]
    state = f_initial
    now = 0.0
    while True:
        rate = rates.r_4to3 if state == 4 else rates.r_3to4
        if rate == 0.0:
            break
        now += rng.exponential(1.0 / rate)
        if now >= t:
            break
        state = 7 - state  # flip between 3 and 4
        times.append(now)
        values.append(state)
    return StateTrajectory(np.array(times), np.array(values), t_end=t)
