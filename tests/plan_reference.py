"""The per-run interpreter of a compiled plan that sequence.bind_plan must reproduce.

This is the plain form of the walk that bind_plan splits in two and runs
over arrays: one run walks the phases and draws each endpoint as a scalar,
deriving its law (exp(-t/tau), the MOT endpoint law, the hyperfine
occupations, the burst envelope) again on each call. A bound plan computes
those once and, run once, must make the same draws in the same order.
"""

import numpy as np

from atomtrap.kinetics import analytic_occupation, gillespie_mot
from atomtrap.sequence import MIXED_STATE_P4, RunRecord
from atomtrap.signals import synthesize_counts, synthesize_detection_burst, synthesize_mot_trace

_MOT_LIGHT = ("mot", "overlap")


def survive(n, lifetime, t, rng):
    """Each of n atoms survives a hold of t with probability exp(-t/lifetime)."""
    return int(rng.binomial(n, np.exp(-t / lifetime))) if t > 0 and n else n


def mot_endpoint(rates, n, t, rng):
    """Bin(n, exp(-gamma t)) + Poisson(R (1 - exp(-gamma t)) / gamma); n + Poisson(R t)
    at gamma = 0."""
    gamma = rates.one_body_loss
    if gamma == 0.0:
        mean_loaded = rates.loading_rate_r * t
    else:
        lost = -np.expm1(-gamma * t)
        n = int(rng.binomial(n, 1.0 - lost)) if n else n
        mean_loaded = rates.loading_rate_r * lost / gamma
    return n + (int(rng.poisson(mean_loaded)) if mean_loaded > 0 else 0)


def hyperfine_endpoint(n_f4, n_f3, rates, t, rng):
    """Atoms in F=4 after t, one Bernoulli draw per atom, as two binomials."""
    if t == 0 or n_f4 + n_f3 == 0:
        return n_f4
    return (int(rng.binomial(n_f4, analytic_occupation(4, rates, t)))
            + int(rng.binomial(n_f3, analytic_occupation(3, rates, t))))


def run_plan(plan, initial_n, physics, rng, traces=False):
    """RunRecord of one run of plan, as sequence.run_plan defines it."""
    if initial_n < 0:
        raise ValueError("initial_n must be non-negative")
    det = physics.detector
    mot = physics.mot_rates
    mot_endpoint_exact = mot.two_body_pair_rate == 0.0
    tau_dip = physics.dipole_lifetime

    n = int(initial_n)
    n4 = None  # atoms in F=4 while the hyperfine state is tracked
    out = []
    prepared_n = prepared_state = survivors = recaptured_n = None

    for ph in plan.phases:
        cat, dt = ph.category, ph.dt
        if ph.prepared_state is not None:
            prepared_n, prepared_state = n, ph.prepared_state
        if ph.transfer:
            if physics.loading_efficiency < 1.0 and n:
                n = int(rng.binomial(n, physics.loading_efficiency))
            if ph.tracks_f:
                if prepared_state == "mixed":
                    n4 = int(rng.binomial(n, MIXED_STATE_P4)) if n else 0
                else:
                    n4 = n if prepared_state == "4" else 0
        if ph.recapture:
            recaptured_n = n

        if cat in _MOT_LIGHT:
            n4 = None  # the MOT light scrambles the hyperfine state
            if traces and dt >= det.bin_width:
                traj = gillespie_mot(mot, n, dt, rng)
                n = traj.final_value()
                out.append((cat, synthesize_mot_trace(traj, det, rng, overlap=cat == "overlap")))
            elif mot_endpoint_exact:
                n = mot_endpoint(mot, n, dt, rng)
            else:
                n = gillespie_mot(mot, n, dt, rng).final_value()
        elif cat == "hold":
            if ph.tracks_f and n4 is not None:
                kept4 = survive(n4, tau_dip, dt, rng)
                kept3 = survive(n - n4, tau_dip, dt, rng)
                n4 = hyperfine_endpoint(kept4, kept3, physics.hyperfine, dt, rng)
                n = kept4 + kept3
            else:
                n, n4 = survive(n, tau_dip, dt, rng), None
            survivors = n
            if traces and dt >= det.bin_width:
                out.append((cat, synthesize_counts(
                    [0.0], [det.dipole_stray_rate], dt, det.bin_width, rng)))
        elif cat == "magnetic_hold":
            projected = int(rng.binomial(n, 0.5)) if n else 0  # the spin projection
            n = survive(projected, physics.magnetic_lifetime, dt, rng)
            n4 = None
            survivors = n
        elif cat == "detect":
            if n4 is None:
                n4 = int(rng.binomial(n, MIXED_STATE_P4)) if n else 0
            out.append((cat, synthesize_detection_burst(n4, physics.burst, rng, window=dt)))
            n4 = 0  # detection light pumps the atoms dark
        # 'gap': nothing happens on the Pockels-gap time scale

    return RunRecord(prepared_n=prepared_n, prepared_state=prepared_state, traces=out,
                     survivors=survivors, recaptured_n=recaptured_n, final_n=n)
