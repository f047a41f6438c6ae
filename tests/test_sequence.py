import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomtrap import (
    DIPOLE_HOLD,
    MOT_OPERATION,
    BurstModel,
    Channel,
    DetectorModel,
    HyperfineRates,
    MotRates,
    PhysicsBundle,
    Sequence,
    SequenceEvent,
    analytic_occupation,
    bind_plan,
    build_protocol,
    chain,
    compile_sequence,
    detect_steps,
    gillespie_mot,
    run_stream,
    sequence_from_csv,
    sequence_to_csv,
    simulate_sequence,
    validate_sequence,
)
from atomtrap.sequence import HOLD_GRACE_S, MIXED_STATE_P4, Phase, RunRecord, SequencePlan
from atomtrap.signals import PhotonTrace
import plan_reference
from two_sample import chi2_two_sample

# Each kind at durations other than its defaults: (durations, initial state,
# events, duration); every time is the exact sum of the durations before it.
OV, DELAY, GAP, WINDOW, SPAN = 3.1e-3, 7.3e-3, 61e-6, 1.7e-3, 0.37
PINNED_PROTOCOLS = {
    "transfer": ({"overlap_s": OV}, MOT_OPERATION, [
        (0.0, Channel.DIPOLE, True), (OV, Channel.COOLING, False),
        (OV, Channel.REPUMPER, False)], OV),
    "recapture": ({"overlap_s": OV}, DIPOLE_HOLD, [
        (0.0, Channel.COOLING, True), (0.0, Channel.REPUMPER, True),
        (OV, Channel.DIPOLE, False)], OV),
    "prepare_f3": ({"overlap_s": OV, "delay_s": DELAY}, MOT_OPERATION, [
        (0.0, Channel.DIPOLE, True), (OV, Channel.REPUMPER, False),
        (OV + DELAY, Channel.COOLING, False)], OV + DELAY),
    "prepare_f4": ({"overlap_s": OV, "delay_s": DELAY}, MOT_OPERATION, [
        (0.0, Channel.DIPOLE, True), (OV, Channel.COOLING, False),
        (OV + DELAY, Channel.REPUMPER, False)], OV + DELAY),
    "detect": ({"gap_s": GAP, "window_s": WINDOW}, DIPOLE_HOLD, [
        (0.0, Channel.DIPOLE, False), (GAP, Channel.DETECTION, True),
        (GAP + WINDOW, Channel.DETECTION, False)], GAP + WINDOW),
    "mot_monitor": ({"duration_s": SPAN}, MOT_OPERATION, [], SPAN),
}


class TestBuildProtocol:
    def test_transfer_events(self):
        seq = build_protocol("transfer", overlap_s=5e-3)
        ev = [(e.time, e.channel, e.state) for e in seq.events]
        assert ev == [
            (0.0, Channel.DIPOLE, True),
            (5e-3, Channel.COOLING, False),
            (5e-3, Channel.REPUMPER, False),
        ]
        assert seq.initial_state == MOT_OPERATION

    def test_detect_gap_exact(self):
        seq = build_protocol("detect")
        dipole_off = next(e.time for e in seq.events
                          if e.channel is Channel.DIPOLE and not e.state)
        det_on = next(e.time for e in seq.events
                      if e.channel is Channel.DETECTION and e.state)
        assert det_on - dipole_off == pytest.approx(50e-6, abs=1e-12)

    def test_recapture_mirrors_transfer(self):
        tr = build_protocol("transfer", overlap_s=5e-3)
        rc = build_protocol("recapture", overlap_s=5e-3)
        # time-mirror the transfer events around its duration
        mirrored = sorted(
            (tr.duration - e.time, e.channel.value, not e.state) for e in tr.events
        )
        actual = sorted((e.time, e.channel.value, e.state) for e in rc.events)
        assert actual == mirrored

    def test_preparation_orders(self):
        f3 = build_protocol("prepare_f3")
        f4 = build_protocol("prepare_f4")
        rep_off = next(e.time for e in f3.events
                       if e.channel is Channel.REPUMPER and not e.state)
        cool_off = next(e.time for e in f3.events
                        if e.channel is Channel.COOLING and not e.state)
        assert cool_off - rep_off == pytest.approx(8e-3)
        rep_off = next(e.time for e in f4.events
                       if e.channel is Channel.REPUMPER and not e.state)
        cool_off = next(e.time for e in f4.events
                        if e.channel is Channel.COOLING and not e.state)
        assert rep_off - cool_off == pytest.approx(8e-3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_protocol("nonsense")

    def test_nonpositive_duration(self):
        with pytest.raises(ValueError):
            build_protocol("transfer", overlap_s=0.0)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            build_protocol("transfer", bogus_s=1.0)

    @pytest.mark.parametrize("kind", sorted(PINNED_PROTOCOLS))
    def test_events_pinned_at_non_default_durations(self, kind):
        params, initial, events, duration = PINNED_PROTOCOLS[kind]
        seq = build_protocol(kind, **params)
        assert seq.initial_state == initial
        assert [(e.time, e.channel, e.state) for e in seq.events] == events
        assert seq.duration == duration

    @pytest.mark.parametrize("kind, name", [(kind, name) for kind, (params, *_) in
                                            sorted(PINNED_PROTOCOLS.items()) for name in params])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_duration_named(self, kind, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            build_protocol(kind, **{name: value})


class TestChain:
    def test_offsets(self):
        seq = chain(build_protocol("transfer"), 2.0, build_protocol("recapture"))
        assert seq.duration == pytest.approx(5e-3 + 2.0 + 5e-3)
        recapture_on = [e for e in seq.events
                        if e.channel is Channel.COOLING and e.state]
        assert recapture_on[0].time == pytest.approx(5e-3 + 2.0)

    def test_round_trip_composition(self):
        # recapture(transfer) then transfer again: event multiset repeats
        a = chain(build_protocol("transfer"), 1e-6, build_protocol("recapture"))
        b = chain(a, 1e-6, build_protocol("transfer"))
        kinds = [(e.channel, e.state) for e in b.events]
        assert kinds[:3] == kinds[-3:]

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            chain(build_protocol("transfer"), -1.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay(self, delay):
        with pytest.raises(ValueError, match="finite"):
            chain(build_protocol("transfer"), delay, build_protocol("recapture"))

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    def test_bad_delay_named(self, delay):
        with pytest.raises(ValueError, match="^delays must be non-negative and finite$"):
            chain(build_protocol("transfer"), delay, build_protocol("recapture"))


class TestSequence:
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_event_time_rejected(self, t):
        with pytest.raises(ValueError, match="event times must be finite"):
            Sequence([SequenceEvent(0.0, Channel.DIPOLE, True),
                      SequenceEvent(t, Channel.COOLING, False)])

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration must be finite"):
            Sequence([SequenceEvent(0.0, Channel.DIPOLE, True)], duration=duration)


class TestValidateSequence:
    def test_canonical_composition_valid(self):
        seq = chain(build_protocol("prepare_f3"), 1.0, build_protocol("detect"))
        assert validate_sequence(seq) == []

    def test_short_pockels_gap(self):
        seq = chain(build_protocol("transfer"), 0.5,
                    build_protocol("detect", gap_s=10e-6))
        violations = validate_sequence(seq)
        codes = [v.code for v in violations]
        assert "pockels_gap" in codes
        v = next(v for v in violations if v.code == "pockels_gap")
        # reported at the detection onset time
        assert v.time == pytest.approx(5e-3 + 0.5 + 10e-6)

    def test_uncovered_interval(self):
        # MOT turned off 1 ms before the dipole trap turns on
        seq = Sequence(
            [
                SequenceEvent(0.0, Channel.COOLING, False),
                SequenceEvent(0.0, Channel.REPUMPER, False),
                SequenceEvent(1e-3, Channel.DIPOLE, True),
            ],
            duration=10e-3,
        )
        violations = validate_sequence(seq)
        assert any(v.code == "uncovered" and v.time == 0.0 for v in violations)

    def test_hold_grace_boundary(self):
        dark = {ch: False for ch in Channel}
        for t_on, codes in ((HOLD_GRACE_S, []), (HOLD_GRACE_S * 1.001, ["uncovered"])):
            seq = Sequence([SequenceEvent(t_on, Channel.DIPOLE, True)],
                           duration=1.0, initial_state=dark)
            assert [v.code for v in validate_sequence(seq)] == codes

    def test_detection_overlap(self):
        seq = Sequence(
            [SequenceEvent(1e-3, Channel.DETECTION, True)],
            initial_state=dict(DIPOLE_HOLD),
        )
        assert any(v.code == "detection_overlap" for v in validate_sequence(seq))

    def test_alternation(self):
        seq = Sequence(
            [
                SequenceEvent(1e-3, Channel.COOLING, True),  # already on
            ],
            initial_state=dict(MOT_OPERATION),
        )
        assert any(v.code == "alternation" for v in validate_sequence(seq))


class TestCsvRoundTrip:
    def test_lossless(self):
        seq = chain(build_protocol("prepare_f4"), 3.7, build_protocol("detect"))
        text = sequence_to_csv(seq)
        back = sequence_from_csv(text)
        assert [(e.time, e.channel, e.state) for e in back.events] == [
            (e.time, e.channel, e.state) for e in seq.events
        ]

    def test_header(self):
        assert sequence_to_csv(build_protocol("transfer")).splitlines()[0] == (
            "time_s,channel,state"
        )

    def test_bad_state_word(self):
        with pytest.raises(ValueError):
            sequence_from_csv("time_s,channel,state\n0.0,COOLING,maybe\n")

    @pytest.mark.parametrize("row,message", [
        ("0.1,dipole,off", "<text>: row 3, column channel: 'dipole' is not a valid Channel"),
        ("0.1,DIPOLE,maybe", "<text>: row 3, column state: state must be 'on' or 'off', "
                             "got 'maybe'"),
    ], ids=["channel", "state"])
    def test_bad_word_names_row_and_column(self, row, message):
        with pytest.raises(ValueError) as exc:
            sequence_from_csv(f"time_s,channel,state\n0.0,DIPOLE,on\n{row}\n")
        assert str(exc.value) == message

    @given(events=st.lists(st.tuples(st.floats(0.0, 1e4), st.sampled_from(list(Channel)),
                                     st.booleans()), max_size=20),
           initial=st.sampled_from([MOT_OPERATION, DIPOLE_HOLD]))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, events, initial):
        seq = Sequence([SequenceEvent(*ev) for ev in events], initial_state=dict(initial))
        back = sequence_from_csv(sequence_to_csv(seq), initial_state=initial)
        assert back.events == seq.events
        assert back.initial_state == seq.initial_state

    def test_file_round_trip(self, tmp_path):
        seq = build_protocol("detect")
        path = tmp_path / "seq.csv"
        path.write_text(sequence_to_csv(seq))
        back = sequence_from_csv(str(path), initial_state=DIPOLE_HOLD)
        assert validate_sequence(back) == []


class TestSimulateSequence:
    def transfer_hold_recapture(self, hold):
        return chain(build_protocol("transfer"), hold, build_protocol("recapture"))

    def test_invalid_sequence_rejected(self):
        seq = chain(build_protocol("transfer"), 0.5,
                    build_protocol("detect", gap_s=10e-6))
        with pytest.raises(ValueError):
            simulate_sequence(seq, 1, PhysicsBundle(), run_stream(0, 0))

    def test_zero_hold_full_recapture(self):
        bundle = PhysicsBundle()
        seq = self.transfer_hold_recapture(1e-12)
        for i in range(300):
            rec = simulate_sequence(seq, 3, bundle, run_stream(20, i))
            assert rec.recaptured_n == rec.prepared_n

    def test_recapture_fraction_one_second(self):
        bundle = PhysicsBundle(dipole_lifetime=51.0)
        seq = self.transfer_hold_recapture(1.0)
        kept = tot = 0
        for i in range(4000):
            rec = simulate_sequence(seq, 1, bundle, run_stream(21, i))
            kept += rec.recaptured_n
            tot += rec.prepared_n
        assert kept / tot == pytest.approx(0.98, abs=0.007)

    def test_prepared_state_labels(self):
        bundle = PhysicsBundle()
        rec = simulate_sequence(
            chain(build_protocol("prepare_f3"), 0.1, build_protocol("detect")),
            2, bundle, run_stream(22, 0))
        assert rec.prepared_state == "3"
        rec = simulate_sequence(
            chain(build_protocol("prepare_f4"), 0.1, build_protocol("detect")),
            2, bundle, run_stream(22, 1))
        assert rec.prepared_state == "4"
        rec = simulate_sequence(self.transfer_hold_recapture(0.1), 2, bundle,
                                run_stream(22, 2))
        assert rec.prepared_state == "mixed"

    def test_f3_prep_stays_dark(self):
        # 100 ms hold: mean window counts = background + small relaxation leak
        bundle = PhysicsBundle()
        seq = chain(build_protocol("prepare_f3"), 0.1, build_protocol("detect"))
        totals = []
        for i in range(4000):
            rec = simulate_sequence(seq, 1, bundle, run_stream(23, i))
            burst = next(tr for name, tr in rec.traces if name == "detect")
            totals.append(burst.counts.sum())
        p4 = analytic_occupation(3, bundle.hyperfine, 0.1)
        expect = 0.5 + 3 * p4  # background plus the tiny relaxed population
        assert p4 * 3 < 0.1
        assert np.mean(totals) == pytest.approx(expect, abs=0.06)

    def test_f4_prep_bright(self):
        bundle = PhysicsBundle()
        seq = chain(build_protocol("prepare_f4"), 0.1, build_protocol("detect"))
        totals = []
        for i in range(2000):
            rec = simulate_sequence(seq, 1, bundle, run_stream(24, i))
            burst = next(tr for name, tr in rec.traces if name == "detect")
            totals.append(burst.counts.sum())
        p4 = analytic_occupation(4, bundle.hyperfine, 0.1)
        assert np.mean(totals) == pytest.approx(0.5 + 3 * p4, abs=0.15)

    def test_deterministic(self):
        bundle = PhysicsBundle()
        seq = chain(build_protocol("prepare_f4"), 2.0, build_protocol("detect"))
        a = simulate_sequence(seq, 3, bundle, run_stream(25, 4))
        b = simulate_sequence(seq, 3, bundle, run_stream(25, 4))
        assert a.prepared_n == b.prepared_n
        assert a.survivors == b.survivors
        for (na, ta), (nb, tb) in zip(a.traces, b.traces):
            assert na == nb
            assert np.array_equal(ta.counts, tb.counts)

    def test_recapture_level_matches_pretransfer(self):
        # monitor-transfer-hold-recapture-monitor: recaptured level equals the pre-transfer one
        bundle = PhysicsBundle(
            mot_rates=__import__("atomtrap").MotRates(loading_rate_r=0.0,
                                                      one_body_loss=0.0),
        )
        seq = chain(
            build_protocol("mot_monitor", duration_s=20.0),
            build_protocol("transfer"),
            5.0,
            build_protocol("recapture"),
            build_protocol("mot_monitor", duration_s=20.0),
        )
        rec = simulate_sequence(seq, 2, bundle, run_stream(26, 0))
        mot_traces = [tr for name, tr in rec.traces if name in ("mot", "overlap")]
        concat = np.concatenate([tr.counts for tr in mot_traces
                                 if len(tr.counts) >= 10])
        det = DetectorModel()
        from atomtrap import PhotonTrace
        seg = detect_steps(PhotonTrace(0.0, det.bin_width, concat))
        # both long MOT stretches sit at the two-atom level
        expect = (det.background_rate + 2 * det.per_atom_rate) * det.bin_width
        assert abs(concat[:100].mean() - expect) < 4 * np.sqrt(expect / 100)
        assert abs(concat[-100:].mean() - expect) < 4 * np.sqrt(expect / 100)
        assert seg.change_points == []  # same level, no step at the seam

    @given(seed=st.integers(0, 2000), n0=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_recaptured_never_exceeds_prepared(self, seed, n0):
        bundle = PhysicsBundle()
        seq = self.transfer_hold_recapture(0.5)
        rec = simulate_sequence(seq, n0, bundle, run_stream(27, seed))
        assert rec.recaptured_n <= rec.prepared_n

    def test_geometric_loading_mode(self):
        bundle = PhysicsBundle(loading_efficiency=0.7)
        kept = tot = 0
        seq = self.transfer_hold_recapture(1e-12)
        for i in range(3000):
            rec = simulate_sequence(seq, 1, bundle, run_stream(28, i))
            kept += rec.recaptured_n
            tot += rec.prepared_n
        assert kept / tot == pytest.approx(0.7, abs=0.03)


class TestCompileSequence:
    def test_transfer_hold_recapture_phases(self):
        plan = compile_sequence(
            chain(build_protocol("transfer"), 1.0, build_protocol("recapture")))
        assert [(ph.category, ph.transfer, ph.recapture, ph.prepared_state)
                for ph in plan.phases] == [
            ("overlap", False, False, None),
            ("hold", True, False, "mixed"),
            ("overlap", False, True, None),
        ]
        assert [ph.dt for ph in plan.phases] == pytest.approx([5e-3, 1.0, 5e-3])
        # no detection reads the hyperfine state
        assert not any(ph.tracks_f for ph in plan.phases)

    def test_detection_tracks_hyperfine_back_to_the_mot(self):
        plan = compile_sequence(
            chain(build_protocol("prepare_f4"), 1.0, build_protocol("detect")))
        assert [(ph.category, ph.tracks_f) for ph in plan.phases] == [
            ("overlap", False), ("overlap", False), ("hold", True),
            ("gap", True), ("detect", True),
        ]
        assert plan.phases[2].prepared_state == "4"

    def test_zero_length_hold_is_a_hold(self):
        plan = compile_sequence(
            chain(build_protocol("transfer"), 0.0, build_protocol("recapture")))
        assert [(ph.category, ph.dt, ph.transfer, ph.recapture) for ph in plan.phases] == [
            ("overlap", 5e-3, False, False),
            ("hold", 0.0, True, False),
            ("overlap", 5e-3, False, True),
        ]

    def test_zero_length_hold_books_transfer_and_recapture(self):
        seq = chain(build_protocol("transfer"), 0.0, build_protocol("recapture"))
        for i in range(50):
            rec = simulate_sequence(seq, 3, PhysicsBundle(), run_stream(0, i))
            assert rec.prepared_n is not None
            assert rec.recaptured_n == rec.prepared_n

    @pytest.mark.parametrize("f", ["3", "4"])
    def test_zero_length_hold_before_detection_books_the_transfer(self, f):
        # the dipole trap goes off as the last MOT laser does: the transfer,
        # the prepared state and the survivors are still booked
        plan = compile_sequence(
            chain(build_protocol(f"prepare_f{f}"), 0.0, build_protocol("detect")))
        assert [(ph.category, ph.transfer, ph.prepared_state, ph.tracks_f)
                for ph in plan.phases] == [
            ("overlap", False, None, False), ("overlap", False, None, False),
            ("hold", True, f, True), ("gap", False, None, True),
            ("detect", False, None, True),
        ]
        assert [ph.dt for ph in plan.phases] == pytest.approx([5e-3, 8e-3, 0.0, 50e-6, 2e-3])
        physics = PhysicsBundle(burst=BurstModel(background_photons_per_window=0.0))
        rec = bind_plan(plan, physics)(3, run_stream(4, 0), runs=50)
        assert rec.prepared_state == f
        assert np.array_equal(rec.survivors, rec.final_n)
        counts = dict(rec.traces)["detect"]
        assert counts.shape[0] == 50
        if f == "3":
            assert counts.sum() == 0  # no background, and F=3 stays dark

    def test_magnetic_hold_after_transfer_gets_no_zero_hold(self):
        # the dipole trap hands over to the magnetic trap at the instant the
        # MOT light goes off: that is a magnetic hold, not a dipole transfer
        seq = Sequence(
            [SequenceEvent(0.0, Channel.DIPOLE, True),
             SequenceEvent(5e-3, Channel.COOLING, False),
             SequenceEvent(5e-3, Channel.REPUMPER, False),
             SequenceEvent(5e-3, Channel.DIPOLE, False),
             SequenceEvent(5e-3, Channel.B_FIELD, True)],
            duration=1.0,
        )
        assert [(ph.category, ph.transfer, ph.prepared_state)
                for ph in compile_sequence(seq).phases] == [
            ("overlap", False, None), ("magnetic_hold", False, "mixed")]

    def test_invalid_sequence_rejected(self):
        seq = chain(build_protocol("transfer"), 0.5,
                    build_protocol("detect", gap_s=10e-6))
        with pytest.raises(ValueError, match="sequence is invalid"):
            compile_sequence(seq)

    def test_plan_is_immutable(self):
        plan = compile_sequence(build_protocol("transfer"))
        with pytest.raises(AttributeError):
            plan.phases = ()
        with pytest.raises(AttributeError):
            plan.phases[0].dt = 1.0

    def test_magnetic_hold_books_preparation(self):
        seq = Sequence(
            [SequenceEvent(0.0, Channel.B_FIELD, True),
             SequenceEvent(0.0, Channel.COOLING, False),
             SequenceEvent(0.0, Channel.REPUMPER, False),
             SequenceEvent(2.0, Channel.COOLING, True),
             SequenceEvent(2.0, Channel.REPUMPER, True),
             SequenceEvent(2.0, Channel.B_FIELD, False)],
            duration=2.1,
        )
        plan = compile_sequence(seq)
        assert [(ph.category, ph.prepared_state, ph.recapture) for ph in plan.phases] == [
            ("magnetic_hold", "mixed", False), ("mot", None, True)]


class TestRunPlan:
    def test_traces_are_opt_in(self):
        bundle = PhysicsBundle()
        seq = chain(build_protocol("mot_monitor", duration_s=1.0),
                    build_protocol("prepare_f4"), 0.5, build_protocol("detect"))
        plan = compile_sequence(seq)
        lean = bind_plan(plan, bundle)(2, run_stream(30, 0))
        assert [name for name, _ in lean.traces] == ["detect"]
        full = bind_plan(plan, bundle, traces=True)(2, run_stream(30, 0))
        assert [name for name, _ in full.traces] == ["mot", "hold", "detect"]

    def test_simulate_sequence_is_compile_and_run_with_traces(self):
        bundle = PhysicsBundle()
        seq = chain(build_protocol("mot_monitor", duration_s=1.0),
                    build_protocol("transfer"), 2.0, build_protocol("recapture"))
        a = simulate_sequence(seq, 2, bundle, run_stream(31, 3))
        b = bind_plan(compile_sequence(seq), bundle, traces=True)(2, run_stream(31, 3))
        assert (a.prepared_n, a.recaptured_n, a.final_n) == (
            b.prepared_n.item(), b.recaptured_n.item(), b.final_n.item())
        assert all(type(n) is int for n in (a.prepared_n, a.recaptured_n, a.final_n))
        assert [n for n, _ in a.traces] == [n for n, _ in b.traces] == ["mot", "hold"]
        for (_, ta), (_, [tb]) in zip(a.traces, b.traces):
            assert np.array_equal(ta.counts, tb.counts)

    def test_two_body_loss_runs_the_path(self):
        bundle = PhysicsBundle(mot_rates=MotRates(loading_rate_r=50.0, one_body_loss=1.0,
                                                  two_body_pair_rate=100.0))
        plan = compile_sequence(
            chain(build_protocol("transfer"), 0.1, build_protocol("recapture")))
        rec = bind_plan(plan, bundle)(3, run_stream(32, 0), runs=20)
        assert np.all((0 <= rec.recaptured_n) & (rec.recaptured_n <= rec.prepared_n))

    def test_negative_atoms_rejected(self):
        plan = compile_sequence(build_protocol("transfer"))
        with pytest.raises(ValueError, match="initial_n must be non-negative"):
            bind_plan(plan, PhysicsBundle())(-1, run_stream(0, 0))

    @pytest.mark.parametrize("initial_n", [2.5, float("nan"), 2.0, True])
    def test_non_integer_atoms_rejected(self, initial_n):
        # 2.5 ran 2 atoms, and a NaN failed without naming the argument
        plan = compile_sequence(build_protocol("transfer"))
        with pytest.raises(TypeError, match="initial_n must be of an integer type"):
            bind_plan(plan, PhysicsBundle())(initial_n, run_stream(0, 0), runs=3)
        with pytest.raises(TypeError, match="initial_n must be of an integer type"):
            simulate_sequence(build_protocol("transfer"), initial_n, PhysicsBundle(),
                              run_stream(0, 0))

    def test_numpy_integer_atoms_accepted(self):
        seq = chain(build_protocol("transfer"), 1.0, build_protocol("recapture"))
        a = simulate_sequence(seq, np.int64(3), PhysicsBundle(), run_stream(5, 0))
        b = simulate_sequence(seq, 3, PhysicsBundle(), run_stream(5, 0))
        assert _record(a) == _record(b)
        assert type(a.final_n) is int

    # Branches that no experiment kind takes, each against its law. With no
    # burst background a window holds Poisson(mean_photons_per_atom * n4)
    # counts, n4 being the atoms in F=4 when the detection starts.
    RUNS = 4000

    def window_counts(self, plan, n0, physics, seed):
        rec = bind_plan(plan, physics)(n0, run_stream(seed, 0), self.RUNS)
        return dict(rec.traces)["detect"].sum(axis=1).tolist()

    def burst_law(self, n0, p4, seed):
        rng = run_stream(seed, 0)
        return rng.poisson(BurstModel().mean_photons_per_atom
                           * rng.binomial(n0, p4, size=self.RUNS)).tolist()

    def test_magnetic_hold_survival_law(self):
        seq = Sequence([SequenceEvent(0.0, Channel.B_FIELD, True),
                        SequenceEvent(0.0, Channel.COOLING, False),
                        SequenceEvent(0.0, Channel.REPUMPER, False)], duration=30.0)
        plan = compile_sequence(seq)
        assert [ph.category for ph in plan.phases] == ["magnetic_hold"]
        physics = PhysicsBundle(magnetic_lifetime=40.0)
        held = bind_plan(plan, physics)(6, run_stream(35, 0), self.RUNS).survivors.tolist()
        # spin projection onto the trappable half, then exponential decay
        law = run_stream(37, 0).binomial(6, 0.5 * np.exp(-30.0 / 40.0), size=self.RUNS)
        assert chi2_two_sample(held, law.tolist()) > 1e-3

    def test_mixed_transfer_read_by_a_detection(self):
        # both MOT lasers go off together: each atom is in F=4 with probability
        # MIXED_STATE_P4, then survives and relaxes independently in the hold
        plan = compile_sequence(chain(build_protocol("transfer"), 0.5, build_protocol("detect")))
        hold = plan.phases[1]
        assert (hold.category, hold.transfer, hold.prepared_state, hold.tracks_f) == (
            "hold", True, "mixed", True)
        physics = PhysicsBundle(mot_rates=MotRates(loading_rate_r=0.0, one_body_loss=0.0),
                                burst=BurstModel(background_photons_per_window=0.0),
                                dipole_lifetime=5.0)
        p4 = (MIXED_STATE_P4 * analytic_occupation(4, physics.hyperfine, 0.5)
              + (1 - MIXED_STATE_P4) * analytic_occupation(3, physics.hyperfine, 0.5))
        counts = self.window_counts(plan, 5, physics, 38)
        assert chi2_two_sample(counts, self.burst_law(5, np.exp(-0.5 / 5.0) * p4, 39)) > 1e-3

    def test_detection_without_preparation_reads_mixed_atoms(self):
        plan = compile_sequence(build_protocol("detect"))
        assert [(ph.category, ph.prepared_state) for ph in plan.phases] == [
            ("gap", None), ("detect", None)]
        physics = PhysicsBundle(burst=BurstModel(background_photons_per_window=0.0))
        counts = self.window_counts(plan, 4, physics, 40)
        assert chi2_two_sample(counts, self.burst_law(4, MIXED_STATE_P4, 41)) > 1e-3


_NAN_FIELDS = [
    (MotRates, "loading_rate_r"), (MotRates, "one_body_loss"), (MotRates, "two_body_pair_rate"),
    (HyperfineRates, "r_4to3"), (HyperfineRates, "r_3to4"),
    (DetectorModel, "per_atom_rate"), (DetectorModel, "background_rate"),
    (DetectorModel, "bin_width"), (DetectorModel, "dipole_stray_rate"),
    (BurstModel, "mean_photons_per_atom"), (BurstModel, "background_photons_per_window"),
    (BurstModel, "burst_duration_mean"), (BurstModel, "detection_bin"),
    (PhysicsBundle, "dipole_lifetime"),
]


@pytest.mark.parametrize("model, name", _NAN_FIELDS,
                         ids=[f"{m.__name__}.{n}" for m, n in _NAN_FIELDS])
def test_nan_model_parameter_rejected(model, name):
    # nan fails no "x < 0" test, so each check must be one that nan fails
    rates = {"r_4to3": 0.1, "r_3to4": 0.1} if model is HyperfineRates else {}
    with pytest.raises(ValueError):
        model(**{**rates, name: float("nan")})


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
def test_non_positive_magnetic_lifetime_rejected(tau):
    # a zero lifetime must not fall back to the dipole lifetime
    with pytest.raises(ValueError, match="magnetic_lifetime"):
        PhysicsBundle(magnetic_lifetime=tau)


def test_physics_bundle_is_frozen():
    # a bound plan keeps the laws it computed from the bundle, and an
    # assignment would skip the bundle's checks
    bundle = PhysicsBundle()
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.dipole_lifetime = -1.0


def _old_transfer_hold_recapture(n0, physics, t_hold, overlap, rng):
    """Reference: the transfer -> hold -> recapture counts driven by the public
    path simulators, as the interpreter computed them before endpoint laws."""
    n = gillespie_mot(physics.mot_rates, n0, overlap, rng).final_value()
    prepared = n
    if physics.loading_efficiency < 1.0 and n:
        n = int(rng.binomial(n, physics.loading_efficiency))
    return prepared, plan_reference.survive(n, physics.dipole_lifetime, t_hold, rng)


def test_transfer_recapture_distribution_matches_path_reference():
    # fast MOT rates make the 5 ms overlap change the atom number
    physics = PhysicsBundle(mot_rates=MotRates(loading_rate_r=200.0, one_body_loss=40.0),
                            loading_efficiency=0.7, dipole_lifetime=2.0)
    plan = compile_sequence(
        chain(build_protocol("transfer"), 1.0, build_protocol("recapture")))
    runs = 4000
    rec = bind_plan(plan, physics)(3, run_stream(33, 0), runs)
    new = list(zip(rec.prepared_n.tolist(), rec.recaptured_n.tolist()))
    old = [_old_transfer_hold_recapture(3, physics, 1.0, 5e-3, run_stream(34, i))
           for i in range(runs)]
    assert chi2_two_sample(new, old) > 1e-3


# Random timelines: canonical protocols chained with delays around the
# 200 us hold grace and the 50 us Pockels gap, plus stray toggles at times
# that coincide with existing events. `pick` chooses one of its options, so
# the same generator drives the seeded golden corpus and Hypothesis.
_KINDS = ("transfer", "recapture", "prepare_f3", "prepare_f4", "detect", "mot_monitor")
_DELAYS = (None, 0.0, 100e-6, 200e-6, 250e-6, 300e-6, 0.5, 2.0)
_GAPS = (10e-6, 49.99e-6, 50e-6, 80e-6)


def _timeline(pick) -> Sequence:
    parts = []
    for _ in range(pick(range(1, 5))):
        kind = pick(_KINDS)
        if kind == "detect":
            parts.append(build_protocol(kind, gap_s=pick(_GAPS)))
        elif kind == "mot_monitor":
            parts.append(build_protocol(kind, duration_s=pick((1e-3, 0.5))))
        else:
            parts.append(build_protocol(kind))
        delay = pick(_DELAYS)
        if delay is not None:
            parts.append(delay)
    seq = chain(*parts)
    initial = dict(seq.initial_state)
    if pick((False, False, False, True)):
        initial[pick(tuple(Channel))] = pick((False, True))
    times = sorted({0.0, seq.duration, *(ev.time for ev in seq.events)})
    toggles = [SequenceEvent(pick(times), pick(tuple(Channel)), pick((False, True)))
               for _ in range(pick((0, 0, 1, 2)))]
    return Sequence(seq.events + toggles, duration=seq.duration, initial_state=initial)


def _outcome(seq: Sequence) -> str:
    try:
        plan = repr(compile_sequence(seq).phases)
    except ValueError as exc:
        plan = repr(exc)
    return repr(validate_sequence(seq)) + "\n" + plan + "\n"


def test_timeline_corpus_golden():
    # every violation (code, time, message, order) and every phase of a
    # seeded corpus of valid and invalid timelines, as one digest
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    valid = 0
    for _ in range(2400):
        seq = _timeline(rng.choice)
        valid += not validate_sequence(seq)
        digest.update(_outcome(seq).encode())
    assert valid == 529
    assert digest.hexdigest() == (
        "af3e8870d1b957d666ee68ab593131b654466f68207105d4d204ae2493fc596e")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_compile_raises_iff_invalid_and_phases_cover_the_duration(data):
    seq = _timeline(lambda options: data.draw(st.sampled_from(options)))
    violations = validate_sequence(seq)
    if violations:
        with pytest.raises(ValueError, match="sequence is invalid"):
            compile_sequence(seq)
    else:
        plan = compile_sequence(seq)
        assert sum(ph.dt for ph in plan.phases) == pytest.approx(seq.duration, abs=1e-9)


# Traced runs whose MOT and overlap phases span several detector bins, so
# the digest covers the fluorescence synthesis that the exports never trace.
_TRACED_SEQUENCES = (
    chain(build_protocol("mot_monitor", duration_s=0.5), build_protocol("transfer", overlap_s=0.3),
          1.0, build_protocol("recapture", overlap_s=0.3),
          build_protocol("mot_monitor", duration_s=0.5)),
    chain(build_protocol("prepare_f4", overlap_s=0.2, delay_s=0.15), 0.5,
          build_protocol("detect")),
    chain(build_protocol("prepare_f3", overlap_s=0.2, delay_s=0.15), 0.5,
          build_protocol("detect")),
    build_protocol("mot_monitor", duration_s=2.0),
)
_TRACED_BUNDLES = (
    # literal rates, so that the digest pins the interpreter and not the default trap
    PhysicsBundle(hyperfine=HyperfineRates(r_4to3=7.0 / 16.0 * 0.2639,
                                           r_3to4=9.0 / 16.0 * 0.2639)),
    PhysicsBundle(mot_rates=MotRates(loading_rate_r=5.0, one_body_loss=1.0,
                                     two_body_pair_rate=0.5),
                  detector=DetectorModel(bin_width=0.05, overlap_suppression=0.5,
                                         dipole_stray_rate=2e3),
                  loading_efficiency=0.8),
)


def test_traced_sequence_golden():
    # every trace and atom count of the traced runs, as one digest
    digest = hashlib.sha256()
    for b, bundle in enumerate(_TRACED_BUNDLES):
        for s, seq in enumerate(_TRACED_SEQUENCES):
            for i in range(40):
                rec = simulate_sequence(seq, 2, bundle, run_stream(100 + 10 * b + s, i))
                digest.update(repr((rec.prepared_n, rec.prepared_state, rec.survivors,
                                    rec.recaptured_n, rec.final_n)).encode())
                for name, tr in rec.traces:
                    digest.update(repr((name, tr.t0, tr.bin_width, tr.counts.tolist())).encode())
    assert digest.hexdigest() == (
        "be72d4b67f85a452c144a5ae4691238032008d3aacbf82e9dd9e6912cf9099fb")


# Timelines valid by construction: storage, MOT and magnetic-trap blocks,
# each from MOT operation back to it, then optionally one
# prepare -> hold -> detect block. A hold of 0.0 makes a zero-length hold;
# 0.12 s spans a detector bin, so traced runs synthesize those phases.
_HOLDS = (0.0, 1e-3, 0.12, 0.7, 3.0)


def _magnetic_hold(duration: float) -> Sequence:
    return Sequence(
        [SequenceEvent(0.0, Channel.B_FIELD, True),
         SequenceEvent(0.0, Channel.COOLING, False),
         SequenceEvent(0.0, Channel.REPUMPER, False),
         SequenceEvent(duration, Channel.COOLING, True),
         SequenceEvent(duration, Channel.REPUMPER, True),
         SequenceEvent(duration, Channel.B_FIELD, False)],
        duration=duration)


@st.composite
def _bindable_plans(draw):
    def pick(options):
        return draw(st.sampled_from(options))

    parts = []
    for _ in range(draw(st.integers(0, 3))):
        block = pick(("storage", "mot", "magnetic"))
        if block == "storage":
            overlap = pick((5e-3, 0.12))
            parts += [build_protocol("transfer", overlap_s=overlap), pick(_HOLDS),
                      build_protocol("recapture", overlap_s=overlap)]
        elif block == "mot":
            parts.append(build_protocol("mot_monitor", duration_s=pick((1e-3, 0.3))))
        else:
            parts.append(_magnetic_hold(pick((0.5, 4.0))))
    if not parts or draw(st.booleans()):
        parts += [build_protocol(pick(("prepare_f3", "prepare_f4")),
                                 overlap_s=pick((5e-3, 0.12)), delay_s=pick((8e-3, 0.15))),
                  pick(_HOLDS),
                  build_protocol("detect", gap_s=pick((50e-6, 80e-6)),
                                 window_s=pick((2e-3, 0.15)))]
    return compile_sequence(chain(*parts))


_BUNDLES = st.builds(
    PhysicsBundle,
    mot_rates=st.sampled_from((
        MotRates(),
        MotRates(loading_rate_r=50.0, one_body_loss=0.0),
        MotRates(loading_rate_r=20.0, one_body_loss=2.0, two_body_pair_rate=0.5),
        MotRates(loading_rate_r=5.0, one_body_loss=1.0, two_body_pair_rate=0.5,
                 two_body_loss_multiplicity=1),
    )),
    hyperfine=st.sampled_from((HyperfineRates(r_4to3=0.11, r_3to4=0.15),
                               HyperfineRates(0.0, 0.0), HyperfineRates(5.0, 1e-3))),
    detector=st.sampled_from((DetectorModel(), DetectorModel(
        bin_width=0.05, overlap_suppression=0.5, dipole_stray_rate=2e3))),
    burst=st.sampled_from((BurstModel(), BurstModel(mean_photons_per_atom=8.0,
                                                    background_photons_per_window=0.0))),
    dipole_lifetime=st.sampled_from((51.0, 0.4)),
    magnetic_lifetime=st.sampled_from((51.0, 1.5)),
    loading_efficiency=st.sampled_from((1.0, 0.7, 0.0)),
)


def _plain(value):
    # an array argument of one run is logged as the scalar a single run passes
    return np.squeeze(value).tolist()


class _DrawLog:
    """Generator stand-in that logs every draw: its method and arguments."""

    def __init__(self, rng):
        self.rng, self.log = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            self.log.append((name, [_plain(a) for a in args],
                             {k: _plain(v) for k, v in kwargs.items()}))
            return method(*args, **kwargs)
        return draw


def _record(rec) -> tuple:
    return (rec.prepared_n, rec.prepared_state, rec.survivors, rec.recaptured_n, rec.final_n,
            [(name, tr.t0, tr.bin_width, tr.counts.tolist()) for name, tr in rec.traces])


def _one_run(rec: RunRecord, physics: PhysicsBundle) -> RunRecord:
    """A bound record of one run in the reference's form: ints, and a
    PhotonTrace per trace (an untraced window's counts as the burst trace)."""
    def one(n):
        return None if n is None else n.item()

    traces = []
    for name, runs in rec.traces:
        (run,) = runs
        if not isinstance(run, PhotonTrace):
            run = PhotonTrace(t0=0.0, bin_width=physics.burst.detection_bin, counts=run)
        traces.append((name, run))
    return RunRecord(prepared_n=one(rec.prepared_n), prepared_state=rec.prepared_state,
                     traces=traces, survivors=one(rec.survivors),
                     recaptured_n=one(rec.recaptured_n), final_n=one(rec.final_n))


@given(plan=_bindable_plans(), physics=_BUNDLES, traces=st.booleans(),
       initial_n=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_bound_plan_makes_the_reference_draws(plan, physics, traces, initial_n):
    # run once, the same draws with the same arguments in the same order, so
    # the same record and the generator left at the same point; one bound
    # run serves several streams
    run = bind_plan(plan, physics, traces)
    for i in range(3):
        bound, reference = _DrawLog(run_stream(61, i)), _DrawLog(run_stream(61, i))
        want = plan_reference.run_plan(plan, initial_n, physics, reference, traces)
        assert _record(_one_run(run(initial_n, bound), physics)) == _record(want)
        assert bound.log == reference.log
        assert bound.rng.random() == reference.rng.random()


# An arm's runs drawn at once against as many runs of the per-run reference,
# each on its own stream: two-sample chi-square tests, rejected below
# p = 1e-3. Each arm runs at the default physics and where the transfer
# efficiency and the MOT loading show.
_ARM_RUNS = 4000
_ARM_PHYSICS = {
    "defaults": PhysicsBundle(),
    "eta0.709-R20": PhysicsBundle(mot_rates=MotRates(loading_rate_r=20.0),
                                  loading_efficiency=0.709),
}


def _reference_runs(plan, n0, physics, seed):
    return [plan_reference.run_plan(plan, n0, physics, run_stream(seed, i))
            for i in range(_ARM_RUNS)]


@pytest.mark.parametrize("physics", _ARM_PHYSICS.values(), ids=_ARM_PHYSICS)
class TestBatchedArmFollowsTheReference:
    def test_transfer_arm_prepared_and_recaptured(self, physics):
        # a lifetime arm: the recapture is booked before the recapture
        # overlap loads, so recaptured never exceeds prepared
        plan = compile_sequence(chain(build_protocol("transfer"), 20.0,
                                      build_protocol("recapture")))
        rec = bind_plan(plan, physics)(4, run_stream(70, 0), _ARM_RUNS)
        batched = list(zip(rec.prepared_n.tolist(), rec.recaptured_n.tolist()))
        reference = [(r.prepared_n, r.recaptured_n) for r in _reference_runs(plan, 4, physics, 71)]
        assert chi2_two_sample(batched, reference) > 1e-3

    def test_magnetic_arm_survivors(self, physics):
        # the plan a magnetic_lifetime arm binds
        plan = SequencePlan((Phase("magnetic_hold", 20.0, prepared_state="mixed"),))
        batched = bind_plan(plan, physics)(4, run_stream(72, 0), _ARM_RUNS).survivors.tolist()
        reference = [r.survivors for r in _reference_runs(plan, 4, physics, 73)]
        assert chi2_two_sample(batched, reference) > 1e-3

    @pytest.mark.parametrize("f", [3, 4])
    def test_detect_arm_window_sums(self, physics, f):
        # a relaxation arm
        plan = compile_sequence(chain(build_protocol(f"prepare_f{f}"), 4.5,
                                      build_protocol("detect")))
        rec = bind_plan(plan, physics)(3, run_stream(74, 0), _ARM_RUNS)
        batched = dict(rec.traces)["detect"].sum(axis=1).tolist()
        reference = [int(dict(r.traces)["detect"].counts.sum())
                     for r in _reference_runs(plan, 3, physics, 75)]
        assert chi2_two_sample(batched, reference) > 1e-3
