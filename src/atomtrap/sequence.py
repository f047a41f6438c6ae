"""Laser/field timing protocols: building, validation, and execution.

A Sequence is a list of switching events applied on top of an initial
channel state. The canonical protocols (transfer, recapture, hyperfine
preparation, state-selective detection) are produced by build_protocol
and can be composed with chain(); compile_sequence validates a timeline
once and reduces it to a plan of phases, which run_plan executes by
dispatching each phase to the kinetics and signal modules. Running a plan
only simulates: recovering anything from its traces is the caller's job.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import (
    HyperfineRates,
    MotRates,
    dipole_survival,
    gillespie_mot,
    hyperfine_endpoint,
    magnetic_trap_survival,
    mot_endpoint,
)
from .physics import AtomParams, GaussianBeam, TrapModel, effective_relaxation_rates
from .signals import (
    DETECTION_WINDOW_S,
    BurstModel,
    DetectorModel,
    PhotonTrace,
    read_csv_table,
    synthesize_counts,
    synthesize_detection_burst,
    synthesize_mot_trace,
)

__all__ = [
    "Channel",
    "SequenceEvent",
    "Sequence",
    "Violation",
    "PhysicsBundle",
    "RunRecord",
    "MOT_OPERATION",
    "DIPOLE_HOLD",
    "build_protocol",
    "chain",
    "validate_sequence",
    "Phase",
    "SequencePlan",
    "compile_sequence",
    "run_plan",
    "simulate_sequence",
    "sequence_to_csv",
    "sequence_from_csv",
]


class Channel(enum.Enum):
    COOLING = "COOLING"
    REPUMPER = "REPUMPER"
    DIPOLE = "DIPOLE"
    DETECTION = "DETECTION"
    B_FIELD = "B_FIELD"


@dataclass(frozen=True)
class SequenceEvent:
    time: float
    channel: Channel
    state: bool  # True = on


MOT_OPERATION = {
    Channel.COOLING: True,
    Channel.REPUMPER: True,
    Channel.DIPOLE: False,
    Channel.DETECTION: False,
    Channel.B_FIELD: False,
}

DIPOLE_HOLD = {
    Channel.COOLING: False,
    Channel.REPUMPER: False,
    Channel.DIPOLE: True,
    Channel.DETECTION: False,
    Channel.B_FIELD: False,
}


@dataclass
class Sequence:
    """Ordered switching timeline; times are relative to the sequence start."""

    events: list[SequenceEvent]
    duration: float | None = None
    initial_state: dict = field(default_factory=lambda: dict(MOT_OPERATION))

    def __post_init__(self):
        if not all(math.isfinite(e.time) for e in self.events):
            raise ValueError("event times must be finite")
        if self.duration is not None and not math.isfinite(self.duration):
            raise ValueError("duration must be finite")
        self.events = sorted(self.events, key=lambda e: e.time)
        if self.events and self.events[0].time < 0:
            raise ValueError("event times must be non-negative")
        last = self.events[-1].time if self.events else 0.0
        if self.duration is None:
            self.duration = last
        if self.duration < last:
            raise ValueError("duration precedes the last event")


@dataclass(frozen=True)
class Violation:
    code: str  # 'uncovered', 'detection_overlap', 'pockels_gap', 'alternation'
    time: float
    message: str


POCKELS_GAP_S = 50e-6
HOLD_GRACE_S = 200e-6  # longest tolerated interval with no light and no field
MIXED_STATE_P4 = 0.5  # F=4 probability of an atom in an unprepared hyperfine state

# build_protocol's default durations (s), which the config's [sequence] rows share
PROTOCOL_DEFAULTS = {
    "overlap_s": 5e-3,  # MOT and dipole trap both on
    "delay_s": 8e-3,  # between the two MOT lasers for state preparation
    "window_s": DETECTION_WINDOW_S,
}


def build_protocol(kind: str, **params) -> Sequence:
    """Canonical switching sequences of the few-atom experiment.

    kinds: transfer, recapture, prepare_f3, prepare_f4, detect, mot_monitor.
    Durations (seconds) default to PROTOCOL_DEFAULTS: overlap_s, delay_s,
    window_s (detection window); gap_s, the Pockels gap, to POCKELS_GAP_S;
    and duration_s, the MOT monitoring span, to 1 s.
    """
    defaults = dict(PROTOCOL_DEFAULTS, gap_s=POCKELS_GAP_S, duration_s=1.0)

    def pop(name):
        v = float(params.pop(name, defaults[name]))
        if v <= 0:
            raise ValueError(f"{name} must be positive")
        return v

    def done(events, initial, duration):
        if params:
            raise ValueError(f"unknown parameters for {kind}: {sorted(params)}")
        return Sequence(events, duration=duration, initial_state=dict(initial))

    if kind == "transfer":
        ov = pop("overlap_s")
        ev = [
            SequenceEvent(0.0, Channel.DIPOLE, True),
            SequenceEvent(ov, Channel.COOLING, False),
            SequenceEvent(ov, Channel.REPUMPER, False),
        ]
        return done(ev, MOT_OPERATION, ov)
    if kind == "recapture":
        ov = pop("overlap_s")
        ev = [
            SequenceEvent(0.0, Channel.COOLING, True),
            SequenceEvent(0.0, Channel.REPUMPER, True),
            SequenceEvent(ov, Channel.DIPOLE, False),
        ]
        return done(ev, DIPOLE_HOLD, ov)
    if kind in ("prepare_f3", "prepare_f4"):
        ov = pop("overlap_s")
        delay = pop("delay_s")
        first, second = (
            (Channel.REPUMPER, Channel.COOLING)
            if kind == "prepare_f3"
            else (Channel.COOLING, Channel.REPUMPER)
        )
        ev = [
            SequenceEvent(0.0, Channel.DIPOLE, True),
            SequenceEvent(ov, first, False),
            SequenceEvent(ov + delay, second, False),
        ]
        return done(ev, MOT_OPERATION, ov + delay)
    if kind == "detect":
        gap = pop("gap_s")
        window = pop("window_s")
        ev = [
            SequenceEvent(0.0, Channel.DIPOLE, False),
            SequenceEvent(gap, Channel.DETECTION, True),
            SequenceEvent(gap + window, Channel.DETECTION, False),
        ]
        return done(ev, DIPOLE_HOLD, gap + window)
    if kind == "mot_monitor":
        duration = pop("duration_s")
        return done([], MOT_OPERATION, duration)
    raise ValueError(f"unknown protocol kind: {kind!r}")


def chain(*parts) -> Sequence:
    """Concatenate sequences; bare floats insert passive delays (seconds)."""
    events: list[SequenceEvent] = []
    offset = 0.0
    initial = None
    for part in parts:
        if isinstance(part, (int, float)):
            if part < 0:
                raise ValueError("delays must be non-negative")
            offset += float(part)
            continue
        if initial is None:
            initial = dict(part.initial_state)
        events.extend(
            SequenceEvent(ev.time + offset, ev.channel, ev.state) for ev in part.events
        )
        offset += part.duration
    if initial is None:
        initial = dict(MOT_OPERATION)
    return Sequence(events, duration=offset, initial_state=initial)


def validate_sequence(seq: Sequence) -> list[Violation]:
    """Check a timeline against the hold/detection ordering constraints.

    Returns machine-readable violations (empty list = valid): (a) atoms
    left unconfined longer than the grace interval, (b) detection light
    overlapping the dipole trap, (c) detection starting less than 50 us
    after the dipole laser switched off, (d) per-channel on/off
    alternation breaks.
    """
    return _walk(seq)[0]


@dataclass
class PhysicsBundle:
    """Everything simulate_sequence needs to know about the apparatus; the
    defaults are those of the default config."""

    mot_rates: MotRates = field(default_factory=MotRates)
    hyperfine: HyperfineRates = field(default_factory=lambda: effective_relaxation_rates(
        TrapModel.from_beam(GaussianBeam(), AtomParams())))
    detector: DetectorModel = field(default_factory=DetectorModel)
    burst: BurstModel = field(default_factory=BurstModel)
    dipole_lifetime: float = 51.0
    magnetic_lifetime: float = 51.0
    loading_efficiency: float = 1.0  # per-atom transfer success probability

    def __post_init__(self):
        if not (0 <= self.loading_efficiency <= 1):
            raise ValueError("loading_efficiency must be in [0, 1]")
        if not self.dipole_lifetime > 0:
            raise ValueError("dipole_lifetime must be positive")
        if not self.magnetic_lifetime > 0:
            raise ValueError("magnetic_lifetime must be positive")


@dataclass
class RunRecord:
    """Outcome of one simulated sequence execution."""

    prepared_n: int | None
    prepared_state: str | None  # '3', '4', or 'mixed'
    traces: list[tuple[str, PhotonTrace]]
    survivors: int | None
    recaptured_n: int | None
    final_n: int


def _classify_interval(state: dict) -> str:
    if state[Channel.DETECTION]:
        return "detect"
    mot_light = state[Channel.COOLING] or state[Channel.REPUMPER]
    if mot_light and state[Channel.DIPOLE]:
        return "overlap"
    if mot_light:
        return "mot"
    if state[Channel.DIPOLE]:
        return "hold"
    if state[Channel.B_FIELD]:
        return "magnetic_hold"
    return "gap"


_MOT_LIGHT = ("mot", "overlap")
_AWAY_FROM_MOT = ("hold", "magnetic_hold", "detect", "gap")


@dataclass(frozen=True)
class Phase:
    """One constant-state interval of a compiled sequence.

    category: 'mot', 'overlap', 'hold', 'magnetic_hold', 'detect' or 'gap'.
    transfer: the last MOT laser went off with the dipole trap on as this
        hold began; the loading efficiency applies here.
    recapture: the MOT light returns to atoms held since a transfer.
    prepared_state: '3', '4' or 'mixed' when the phase books the prepared
        atom number (a transfer, or the first magnetic hold), else None.
    tracks_f: the hyperfine state during this phase is read by a later
        detect phase before MOT light or the magnetic trap scrambles it.
    """

    category: str
    dt: float
    transfer: bool = False
    recapture: bool = False
    prepared_state: str | None = None
    tracks_f: bool = False


@dataclass(frozen=True)
class SequencePlan:
    """The phases of a validated sequence, ready to run any number of times."""

    phases: tuple[Phase, ...]


def _prepared_state(last_off: dict) -> str:
    # the laser switched off first decides the pumped state: repumper first
    # leaves the atoms in F=3, cooling first leaves them in F=4
    cooling = last_off.get(Channel.COOLING, math.inf)
    repumper = last_off.get(Channel.REPUMPER, math.inf)
    if repumper < cooling:
        return "3"
    if cooling < repumper:
        return "4"
    return "mixed"


def _walk(seq: Sequence) -> tuple[list[Violation], tuple[Phase, ...]]:
    """Apply the events in time order once; return (violations, phases).

    Each event is checked against the state it changes; each interval
    between distinct event times, taken after all events at its start,
    becomes a phase and is checked for coverage. Events at seq.duration are
    checked but open no interval. The phases mean something only when there
    are no violations.
    """
    violations: list[Violation] = []
    phases: list[dict] = []
    state = dict(seq.initial_state)
    last_off: dict[Channel, float] = {}  # when each channel last switched off
    idx = 0
    gap_start: float | None = None  # start of the current unconfined stretch
    prev_cat = None
    prepared = recaptured = False

    def add(cat, dt):
        nonlocal prev_cat, prepared, recaptured
        ph = {"category": cat, "dt": dt}
        if cat == "hold" and prev_cat in _MOT_LIGHT:
            ph["transfer"] = True
            ph["prepared_state"] = _prepared_state(last_off)
            prepared = True
        elif cat == "magnetic_hold" and not prepared:
            ph["prepared_state"] = "mixed"
            prepared = True
        if cat in _MOT_LIGHT and prev_cat in _AWAY_FROM_MOT and prepared and not recaptured:
            ph["recapture"] = recaptured = True
        phases.append(ph)
        prev_cat = cat

    times = sorted({0.0, seq.duration, *(ev.time for ev in seq.events)})
    for t0, t1 in zip(times, times[1:] + [None]):
        dropped = False  # the MOT light went off at t0 with the dipole trap on
        while idx < len(seq.events) and seq.events[idx].time <= t0:
            ev = seq.events[idx]
            idx += 1
            if state[ev.channel] == ev.state:
                violations.append(Violation(
                    "alternation", ev.time,
                    f"{ev.channel.value} switched {'on' if ev.state else 'off'} twice in a row"))
            state[ev.channel] = ev.state
            if not ev.state:
                last_off[ev.channel] = ev.time
            if ev.channel is Channel.DETECTION and ev.state:
                dipole_off = last_off.get(Channel.DIPOLE)
                if state[Channel.DIPOLE]:
                    violations.append(Violation(
                        "detection_overlap", ev.time,
                        "detection light turned on while the dipole trap is on"))
                elif dipole_off is not None and ev.time - dipole_off < POCKELS_GAP_S - 1e-12:
                    violations.append(Violation(
                        "pockels_gap", ev.time,
                        f"detection starts {(ev.time - dipole_off) * 1e6:.1f} us after the "
                        f"dipole trap switched off (need >= {POCKELS_GAP_S * 1e6:.0f} us)"))
            if prev_cat in _MOT_LIGHT and _classify_interval(state) == "hold":
                dropped = True
        # the last time is seq.duration, where an unconfined stretch ends too
        cat = None if t1 is None else _classify_interval(state)
        if gap_start is not None and cat != "gap":
            if t0 - gap_start > HOLD_GRACE_S:
                where = "at the end of the sequence" if t1 is None else f"from t={gap_start:.6f} s"
                violations.append(Violation(
                    "uncovered", gap_start,
                    f"atoms unconfined for {(t0 - gap_start) * 1e3:.3f} ms {where}"))
            gap_start = None
        if t1 is None:
            break
        if cat == "gap" and gap_start is None:
            gap_start = t0
        if dropped and cat in ("mot", "overlap", "gap"):
            add("hold", 0.0)
        add(cat, t1 - t0)

    # a detect phase reads the hyperfine state back to the last MOT or
    # magnetic phase, which scramble it
    live = False
    for ph in reversed(phases):
        if ph["category"] == "detect":
            live = True
        elif ph["category"] in ("mot", "overlap", "magnetic_hold"):
            live = False
        ph["tracks_f"] = live
    violations.sort(key=lambda v: v.time)  # stable: event checks first at a tie
    return violations, tuple(Phase(**ph) for ph in phases)


def compile_sequence(seq: Sequence) -> SequencePlan:
    """Validate a timeline once and reduce it to its phases.

    Raises ValueError for an invalid sequence. The transfer, recapture and
    preparation bookings depend only on the timeline, so they are fixed
    here. When the MOT light goes off with the dipole trap on and, at the
    same instant, comes back on or the dipole trap goes off too, a
    zero-length hold is inserted, so the transfer (with the prepared state
    and its survivors) and any recapture are still booked.
    """
    violations, phases = _walk(seq)
    if violations:
        raise ValueError(
            "sequence is invalid: " + "; ".join(v.message for v in violations)
        )
    return SequencePlan(phases)


def run_plan(
    plan: SequencePlan,
    initial_n: int,
    physics: PhysicsBundle,
    rng: np.random.Generator,
    traces: bool = False,
) -> RunRecord:
    """Execute a compiled sequence against the stochastic physics models.

    MOT and overlap phases advance the birth-death process: from its exact
    endpoint law (mot_endpoint) when there is no two-body loss and no trace
    is made, otherwise along a gillespie_mot path. Dipole holds apply
    exponential survival and, where a later detection reads it, the
    hyperfine endpoint law. Detect phases synthesize the fluorescence
    burst, whose trace is always returned; it is not classified here. A
    magnetic hold applies the 50% spin projection plus the same exponential
    decay. With traces=True the MOT fluorescence of phases of at least one
    detector bin and the stray light of such holds are synthesized as well.
    """
    if initial_n < 0:
        raise ValueError("initial_n must be non-negative")
    det = physics.detector
    mot = physics.mot_rates
    mot_endpoint_exact = mot.two_body_pair_rate == 0.0
    tau_dip = physics.dipole_lifetime

    n = int(initial_n)
    n4: int | None = None  # atoms in F=4 while the hyperfine state is tracked
    out: list[tuple[str, PhotonTrace]] = []
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


def simulate_sequence(
    seq: Sequence, initial_n: int, physics: PhysicsBundle, rng: np.random.Generator
) -> RunRecord:
    """Validate, compile and run one timeline, synthesizing every trace.

    Equivalent to run_plan(compile_sequence(seq), initial_n, physics, rng,
    traces=True); compile once and call run_plan to run a sequence many times.
    """
    return run_plan(compile_sequence(seq), initial_n, physics, rng, traces=True)


def sequence_to_csv(seq: Sequence) -> str:
    buf = io.StringIO()
    buf.write("time_s,channel,state\n")
    for ev in seq.events:
        buf.write(f"{ev.time!r},{ev.channel.value},{'on' if ev.state else 'off'}\n")
    return buf.getvalue()


def _on_off(word: str) -> bool:
    if word not in ("on", "off"):
        raise ValueError(f"state must be 'on' or 'off', got {word!r}")
    return word == "on"


def sequence_from_csv(text_or_path, initial_state=None) -> Sequence:
    times, channels, states = read_csv_table(
        text_or_path, {"time_s": float, "channel": Channel, "state": _on_off})
    events = list(map(SequenceEvent, times.tolist(), channels, states))
    kwargs = {} if initial_state is None else {"initial_state": dict(initial_state)}
    return Sequence(events, **kwargs)
