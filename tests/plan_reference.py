"""The per-run interpreter of a compiled plan that sequence.bind_plan must reproduce.

This is the plain form of the loop that bind_plan splits in two: every run
walks the phases and calls the public samplers, which check their
arguments and derive their law (exp(-t/tau), the MOT endpoint law, the
hyperfine occupations, the burst envelope) again on each call. A bound plan
computes those once and must make the same draws in the same order.
"""

from atomtrap.kinetics import (
    dipole_survival,
    gillespie_mot,
    hyperfine_endpoint,
    magnetic_trap_survival,
    mot_endpoint,
)
from atomtrap.sequence import MIXED_STATE_P4, RunRecord
from atomtrap.signals import synthesize_counts, synthesize_detection_burst, synthesize_mot_trace

_MOT_LIGHT = ("mot", "overlap")


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
                kept4 = dipole_survival(n4, tau_dip, dt, rng)
                kept3 = dipole_survival(n - n4, tau_dip, dt, rng)
                n4 = hyperfine_endpoint(kept4, kept3, physics.hyperfine, dt, rng)
                n = kept4 + kept3
            else:
                n, n4 = dipole_survival(n, tau_dip, dt, rng), None
            survivors = n
            if traces and dt >= det.bin_width:
                out.append((cat, synthesize_counts(
                    [0.0], [det.dipole_stray_rate], dt, det.bin_width, rng)))
        elif cat == "magnetic_hold":
            n = magnetic_trap_survival(n, physics.magnetic_lifetime, dt, rng)
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
