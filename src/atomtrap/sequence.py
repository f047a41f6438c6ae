"""Laser/field timing protocols: building, validation, and execution.

A Sequence is a list of switching events applied on top of an initial
channel state. The canonical protocols (transfer, recapture, hyperfine
preparation, state-selective detection) are produced by build_protocol
and can be composed with chain(); compile_sequence validates a timeline
once and reduces it to a plan of phases; bind_plan binds a plan to the
physics once, computing each phase's law from the kinetics and signal
modules, and the bound run(initial_n, rng, runs) only draws, all runs in
one walk over the phases. Running a plan only simulates: recovering
anything from its traces is the caller's job.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kinetics import (
    HyperfineRates,
    MotRates,
    _hyperfine_draw,
    _hyperfine_law,
    _magnetic_draw,
    _mot_draw,
    _mot_law,
    _survival_draw,
    _survival_law,
    gillespie_mot,
)
from .physics import AtomParams, GaussianBeam, TrapModel, effective_relaxation_rates
from .signals import (
    DETECTION_WINDOW_S,
    BurstModel,
    DetectorModel,
    PhotonTrace,
    _burst_draw,
    _burst_law,
    bin_expected_counts,
    nonnegative_integers,
    read_csv_table,
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
    "bind_plan",
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


# Each protocol kind: its initial channel state, the durations it takes, in
# order, and its events as (how many of those durations elapse before it,
# channel, state). The MOT laser switched off first decides the prepared
# hyperfine state.
_PROTOCOLS = {
    "transfer": (MOT_OPERATION, ("overlap_s",), (
        (0, Channel.DIPOLE, True), (1, Channel.COOLING, False), (1, Channel.REPUMPER, False))),
    "recapture": (DIPOLE_HOLD, ("overlap_s",), (
        (0, Channel.COOLING, True), (0, Channel.REPUMPER, True), (1, Channel.DIPOLE, False))),
    "prepare_f3": (MOT_OPERATION, ("overlap_s", "delay_s"), (
        (0, Channel.DIPOLE, True), (1, Channel.REPUMPER, False), (2, Channel.COOLING, False))),
    "prepare_f4": (MOT_OPERATION, ("overlap_s", "delay_s"), (
        (0, Channel.DIPOLE, True), (1, Channel.COOLING, False), (2, Channel.REPUMPER, False))),
    "detect": (DIPOLE_HOLD, ("gap_s", "window_s"), (
        (0, Channel.DIPOLE, False), (1, Channel.DETECTION, True), (2, Channel.DETECTION, False))),
    "mot_monitor": (MOT_OPERATION, ("duration_s",), ()),
}


def build_protocol(kind: str, **params) -> Sequence:
    """Canonical switching sequences of the few-atom experiment.

    kinds: transfer, recapture, prepare_f3, prepare_f4, detect, mot_monitor.
    Durations (seconds) default to PROTOCOL_DEFAULTS: overlap_s, delay_s,
    window_s (detection window); gap_s, the Pockels gap, to POCKELS_GAP_S;
    and duration_s, the MOT monitoring span, to 1 s. Each event's time is
    the sum of the durations before it, and the sequence lasts them all.
    """
    if not isinstance(kind, str) or kind not in _PROTOCOLS:
        raise ValueError(f"unknown protocol kind: {kind!r}")
    initial, names, events = _PROTOCOLS[kind]
    defaults = dict(PROTOCOL_DEFAULTS, gap_s=POCKELS_GAP_S, duration_s=1.0)
    ends = [0.0]
    for name in names:
        v = float(params.pop(name, defaults[name]))
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite")
        ends.append(ends[-1] + v)
    if params:
        raise ValueError(f"unknown parameters for {kind}: {sorted(params)}")
    return Sequence([SequenceEvent(ends[k], channel, on) for k, channel, on in events],
                    duration=ends[-1], initial_state=dict(initial))


def chain(*parts) -> Sequence:
    """Concatenate sequences; bare floats insert passive delays (seconds)."""
    events: list[SequenceEvent] = []
    offset = 0.0
    initial = None
    for part in parts:
        if isinstance(part, (int, float)):
            if not 0 <= part < math.inf:
                raise ValueError("delays must be non-negative and finite")
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


@dataclass(frozen=True)
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
    """Outcome of the runs of a bound plan: each atom number an int array over
    the runs, None where the plan books none, and per detect or traced phase
    (category, a PhotonTrace per run), where an untraced detect phase gives
    its photon counts per bin as an int array of shape (runs, bins) instead.
    simulate_sequence's record holds its one run: ints and PhotonTraces.
    """

    prepared_n: np.ndarray | int | None
    prepared_state: str | None  # '3', '4', or 'mixed'
    traces: list[tuple[str, list[PhotonTrace] | np.ndarray | PhotonTrace]]
    survivors: np.ndarray | int | None
    recaptured_n: np.ndarray | int | None
    final_n: np.ndarray | int


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


def bind_plan(plan: SequencePlan, physics: PhysicsBundle, traces: bool = False):
    """Bind a compiled sequence to the physics: run(initial_n, rng, runs=1) -> RunRecord.

    Each phase's law parameters are computed and checked here, once, so a
    run only draws. A run walks the phases once, carrying the atom numbers
    of all its runs as one int array, and each closed-form phase draws once
    for all of them: MOT and overlap phases from the birth-death endpoint
    law, dipole holds with exponential survival and, where a later
    detection reads it, the hyperfine endpoint law, a magnetic hold with
    the 50% spin projection and the same decay. Two phases draw run by run:
    a MOT phase with two-body loss or a trace follows a gillespie_mot path,
    and a detect phase draws each run's burst, which is always returned and
    not classified here. With traces=True the MOT fluorescence of phases of
    at least one detector bin and the stray light of such holds are
    synthesized too, and every trace is a PhotonTrace. run raises TypeError
    when initial_n is not of an integer type, ValueError when it is negative.
    """
    det = physics.detector
    mot = physics.mot_rates
    burst = physics.burst
    eta = physics.loading_efficiency
    bound = []  # (phase, synthesize its trace, its law)
    for ph in plan.phases:
        cat, dt = ph.category, ph.dt
        traced = traces and dt >= det.bin_width
        if cat in _MOT_LIGHT:
            exact = not traced and mot.two_body_pair_rate == 0.0
            law = _mot_law(mot, dt) if exact else None
        elif cat == "hold":
            law = (_survival_law(physics.dipole_lifetime, dt),
                   _hyperfine_law(physics.hyperfine, dt) if ph.tracks_f else None,
                   bin_expected_counts([0.0], [det.dipole_stray_rate], dt, det.bin_width)
                   if traced else None)
        elif cat == "magnetic_hold":
            law = _survival_law(physics.magnetic_lifetime, dt)
        elif cat == "detect":
            law = _burst_law(burst, dt)
        else:  # 'gap': nothing happens on the Pockels-gap time scale
            law = None
        bound.append((ph, traced, law))

    def run(initial_n: int, rng: np.random.Generator, runs: int = 1) -> RunRecord:
        n = np.full(runs, nonnegative_integers(initial_n, "initial_n"), dtype=np.int64)
        n4 = None  # atoms in F=4 while the hyperfine state is tracked
        out = []
        prepared_n = prepared_state = survivors = recaptured_n = None
        for ph, traced, law in bound:
            cat = ph.category
            if ph.prepared_state is not None:
                prepared_n, prepared_state = n, ph.prepared_state
            if ph.transfer:
                if eta < 1.0:
                    n = _survival_draw(n, eta, rng)
                if ph.tracks_f:
                    if prepared_state == "mixed":
                        n4 = _survival_draw(n, MIXED_STATE_P4, rng)
                    else:
                        n4 = n if prepared_state == "4" else np.zeros_like(n)
            if ph.recapture:
                recaptured_n = n

            if cat in _MOT_LIGHT:
                n4 = None  # the MOT light scrambles the hyperfine state
                if law is not None:
                    n = _mot_draw(n, law, rng)
                else:
                    paths = [gillespie_mot(mot, k, ph.dt, rng) for k in n.tolist()]
                    n = np.array([traj.final_value() for traj in paths], dtype=np.int64)
                    if traced:
                        out.append((cat, [synthesize_mot_trace(traj, det, rng, cat == "overlap")
                                          for traj in paths]))
            elif cat == "hold":
                survival, occupations, stray = law
                if ph.tracks_f and n4 is not None:
                    kept4 = _survival_draw(n4, survival, rng)
                    kept3 = _survival_draw(n - n4, survival, rng)
                    n4 = _hyperfine_draw(kept4, kept3, occupations, rng)
                    n = kept4 + kept3
                else:
                    n, n4 = _survival_draw(n, survival, rng), None
                survivors = n
                if traced:
                    counts = rng.poisson(np.tile(stray, (runs, 1)))
                    out.append((cat, [PhotonTrace(0.0, det.bin_width, c) for c in counts]))
            elif cat == "magnetic_hold":
                n, n4 = _magnetic_draw(n, law, rng), None
                survivors = n
            elif cat == "detect":
                if n4 is None:
                    n4 = _survival_draw(n, MIXED_STATE_P4, rng)
                counts = [_burst_draw(k, burst, law, rng) for k in n4.tolist()]
                out.append((cat, [PhotonTrace(0.0, burst.detection_bin, c) for c in counts]
                            if traces else np.array(counts)))
                n4 = np.zeros_like(n)  # detection light pumps the atoms dark

        return RunRecord(prepared_n=prepared_n, prepared_state=prepared_state, traces=out,
                         survivors=survivors, recaptured_n=recaptured_n, final_n=n)

    return run


def simulate_sequence(
    seq: Sequence, initial_n: int, physics: PhysicsBundle, rng: np.random.Generator
) -> RunRecord:
    """Validate, compile and run one timeline, synthesizing every trace.

    The one run of bind_plan(compile_sequence(seq), physics, traces=True),
    with its atom numbers as ints and one PhotonTrace per traced phase;
    compile and bind once to run a sequence many times.
    """
    rec = bind_plan(compile_sequence(seq), physics, traces=True)(initial_n, rng)
    atoms = {name: None if getattr(rec, name) is None else int(getattr(rec, name)[0])
             for name in ("prepared_n", "survivors", "recaptured_n", "final_n")}
    return replace(rec, traces=[(name, runs[0]) for name, runs in rec.traces], **atoms)


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
