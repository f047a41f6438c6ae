import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from atomtrap import (
    BurstModel,
    DetectorModel,
    PhotonTrace,
    StateTrajectory,
    run_stream,
    synthesize_counts,
    synthesize_detection_burst,
    synthesize_mot_trace,
)
from atomtrap import cli, signals
from atomtrap.signals import (
    BIN_SPACING_TOLERANCE,
    bin_expected_counts,
    burst_count_logpmf,
    read_csv_table,
)
import burst_reference
import csv_reference
from two_sample import chi2_two_sample

DBL_MAX = sys.float_info.max


class TestBinExpectedCounts:
    def test_mid_bin_step_exact(self):
        # a rate change inside a bin contributes its exact time-weighted mean
        means = bin_expected_counts([0.0, 0.25], [10.0, 30.0], 1.0, 0.5)
        assert means[0] == pytest.approx(0.25 * 10 + 0.25 * 30)
        assert means[1] == pytest.approx(0.5 * 30)

    def test_partial_bin_dropped(self):
        assert len(bin_expected_counts([0.0], [1.0], 0.55, 0.1)) == 5

    def test_too_short(self):
        with pytest.raises(ValueError):
            bin_expected_counts([0.0], [1.0], 0.05, 0.1)

    @pytest.mark.parametrize("t_end, bin_width, name", [
        *[(t_end, 0.1, "t_end") for t_end in (float("inf"), float("nan"), 0.0, -1.0)],
        *[(1.0, width, "bin_width") for width in (float("nan"), 0.0, -0.1, float("inf"))],
    ])
    def test_bad_interval_named(self, t_end, bin_width, name):
        message = f"^{name} must be positive and finite$"
        with pytest.raises(ValueError, match=message):
            bin_expected_counts([0.0], [1.0], t_end, bin_width)
        with pytest.raises(ValueError, match=message):
            synthesize_counts([0.0], [1.0], t_end, bin_width, run_stream(0, 0))

    @pytest.mark.parametrize("times, rates", [
        ([], []), ([0.0, 1.0], [1.0]), ([0.0, 0.5, 0.5], [1.0, 2.0, 3.0]),
        ([0.0, 0.5], [1.0, float("nan")]),
    ])
    def test_malformed_profile_rejected(self, times, rates):
        with pytest.raises(ValueError):
            bin_expected_counts(times, rates, 1.0, 0.1)


class TestSynthesizeCounts:
    def test_negative_rate_rejected(self):
        # a negative stretch inside one bin would still leave a positive mean
        with pytest.raises(ValueError):
            synthesize_counts([0.0, 0.01], [5.0, -1.0], 1.0, 0.1, run_stream(0, 0))

    def test_zero_rate(self):
        tr = synthesize_counts([0.0], [0.0], 10.0, 0.1, run_stream(0, 0))
        assert np.all(tr.counts == 0)

    def test_poisson_moments(self):
        lam, width = 5000.0, 0.1
        tr = synthesize_counts([0.0], [lam], 1000.0, width, run_stream(1, 0))
        mean = tr.counts.mean()
        se = np.sqrt(lam * width / len(tr.counts))
        assert abs(mean - lam * width) < 3 * se

    def test_dispersion_index(self):
        # Poisson check: index of dispersion within [0.9, 1.1] over >= 1e4 bins
        lam, width = 2000.0, 0.1
        tr = synthesize_counts([0.0], [lam], 1500.0, width, run_stream(2, 0))
        disp = tr.counts.var(ddof=1) / tr.counts.mean()
        assert 0.9 <= disp <= 1.1

    def test_byte_identical(self):
        a = synthesize_counts([0.0, 3.3], [1000.0, 2000.0], 10.0, 0.1, run_stream(3, 9))
        b = synthesize_counts([0.0, 3.3], [1000.0, 2000.0], 10.0, 0.1, run_stream(3, 9))
        assert a.to_csv() == b.to_csv()


class TestMotTrace:
    def test_background_only(self):
        det = DetectorModel()
        traj = StateTrajectory(times=[0.0], values=[0], t_end=100.0)
        tr = synthesize_mot_trace(traj, det, run_stream(4, 0))
        mean = tr.counts.mean()
        expect = det.background_rate * det.bin_width
        assert abs(mean - expect) < 3 * np.sqrt(expect / len(tr.counts))

    def test_level_separation(self):
        det = DetectorModel()
        traj = StateTrajectory(times=[0.0, 50.0], values=[1, 2], t_end=100.0)
        tr = synthesize_mot_trace(traj, det, run_stream(5, 0))
        lo = tr.counts[:500].mean()
        hi = tr.counts[500:].mean()
        sep = det.per_atom_rate * det.bin_width  # 1600 counts at defaults
        assert hi - lo == pytest.approx(sep, rel=0.05)
        assert sep > 30 * np.sqrt(lo)  # step towers over the one-atom shot noise

    def test_overlap_suppression(self):
        det = DetectorModel()
        traj = StateTrajectory(times=[0.0], values=[2], t_end=20.0)
        plain = synthesize_mot_trace(traj, det, run_stream(6, 0))
        overlap = synthesize_mot_trace(traj, det, run_stream(6, 1), overlap=True)
        full = det.background_rate + 2 * det.per_atom_rate
        assert plain.counts.mean() == pytest.approx(full * det.bin_width, rel=0.05)
        assert overlap.counts.mean() == pytest.approx(0.3 * full * det.bin_width, rel=0.05)

    def test_expected_counts_additive_in_n(self):
        det = DetectorModel()
        means = []
        for n in range(4):
            traj = StateTrajectory(times=[0.0], values=[n], t_end=200.0)
            tr = synthesize_mot_trace(traj, det, run_stream(7, n))
            means.append(tr.counts.mean())
        diffs = np.diff(means)
        for d in diffs:
            assert d == pytest.approx(det.per_atom_rate * det.bin_width, rel=0.02)


class TestDetectionBurst:
    def test_background_only_poisson(self):
        model = BurstModel()
        rng = run_stream(8, 0)
        totals = np.array([
            synthesize_detection_burst(0, model, rng).counts.sum() for _ in range(20000)
        ])
        assert totals.mean() == pytest.approx(0.5, abs=0.02)
        assert totals.var(ddof=1) == pytest.approx(0.5, abs=0.05)

    def test_expected_total_three_atoms(self):
        model = BurstModel()
        rng = run_stream(9, 0)
        totals = np.array([
            synthesize_detection_burst(3, model, rng).counts.sum() for _ in range(20000)
        ])
        assert totals.mean() == pytest.approx(9.5, abs=0.1)

    def test_zero_photons_per_atom(self):
        model = BurstModel(mean_photons_per_atom=0.0)
        rng = run_stream(10, 0)
        totals = np.array([
            synthesize_detection_burst(2, model, rng).counts.sum() for _ in range(5000)
        ])
        assert totals.mean() == pytest.approx(0.5, abs=0.05)

    def test_burst_envelope_decays(self):
        # early bins collect more burst photons than late bins
        model = BurstModel()
        rng = run_stream(11, 0)
        acc = np.zeros(10, dtype=float)
        for _ in range(3000):
            acc += synthesize_detection_burst(2, model, rng,
                                              window=10 * model.detection_bin).counts
        assert acc[0] > acc[-1] * 2

    def test_dark_atoms_stay_dark(self):
        model = BurstModel(background_photons_per_window=0.0)
        rng = run_stream(12, 0)
        total = sum(
            synthesize_detection_burst(0, model, rng).counts.sum() for _ in range(2000)
        )
        assert total == 0

    def test_reproducible(self):
        model = BurstModel()
        a = synthesize_detection_burst(2, model, run_stream(13, 5))
        b = synthesize_detection_burst(2, model, run_stream(13, 5))
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("n_f4", [2.5, float("nan"), 2.0, True])
    def test_non_integer_bright_atoms_rejected(self, n_f4):
        # 2.5 drew for 2.5 bright atoms, and a NaN failed inside numpy
        rng = run_stream(0, 0)
        with pytest.raises(TypeError, match="^n_f4 must be of an integer type"):
            synthesize_detection_burst(n_f4, BurstModel(), rng)
        assert rng.random() == run_stream(0, 0).random()  # nothing was drawn

    def test_negative_bright_atoms_rejected(self):
        with pytest.raises(ValueError, match="^n_f4 must be non-negative"):
            synthesize_detection_burst(-1, BurstModel(), run_stream(0, 0))

    @pytest.mark.parametrize("n_f4", [2**63, 2**64])
    def test_bright_atoms_beyond_int64_rejected(self, n_f4):
        # 2**63 failed inside numpy's Poisson draw, and 2**64 was called a non-integer
        with pytest.raises(ValueError, match=r"^n_f4 must be at most 2\*\*63 - 1$"):
            synthesize_detection_burst(n_f4, BurstModel(), run_stream(0, 0))

    def test_numpy_integer_bright_atoms_accepted(self):
        a = synthesize_detection_burst(np.int64(2), BurstModel(), run_stream(13, 5))
        b = synthesize_detection_burst(2, BurstModel(), run_stream(13, 5))
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("window", [float("inf"), float("nan"), 0.0, -1.0])
    def test_window_must_be_positive_and_finite(self, window):
        with pytest.raises(ValueError, match="^window must be positive and finite"):
            synthesize_detection_burst(2, BurstModel(), run_stream(0, 0), window=window)


class TestBurstCountLogpmf:
    @pytest.mark.parametrize("model", [
        BurstModel(), BurstModel(mean_photons_per_atom=0.7, background_photons_per_window=2.0),
    ])
    def test_poisson_with_mean_background_plus_k_photons_per_atom(self, model):
        counts, k = np.arange(40)[:, None], np.arange(6)
        mean = model.background_photons_per_window + k * model.mean_photons_per_atom
        logpmf = burst_count_logpmf(counts, k, model)
        assert logpmf.shape == (40, 6)
        np.testing.assert_allclose(logpmf, stats.poisson.logpmf(counts, mean), rtol=1e-12)

    def test_a_mean_of_zero_gives_only_zero_counts(self):
        model = BurstModel(mean_photons_per_atom=3.0, background_photons_per_window=0.0)
        assert burst_count_logpmf(0, 0, model) == 0.0
        assert burst_count_logpmf([1, 7], 0, model).tolist() == [-np.inf, -np.inf]
        assert np.isfinite(burst_count_logpmf([1, 7], 1, model)).all()

    @pytest.mark.parametrize("counts, k, error, message", [
        (2.5, 1, TypeError, "counts must be of an integer type, not float64"),
        ([1, 2], [0.0, 1.0], TypeError, "k must be of an integer type, not float64"),
        (True, 1, TypeError, "counts must be of an integer type, not bool"),
        ([3, -1], 1, ValueError, "counts must be non-negative"),
        (3, [0, -2], ValueError, "k must be non-negative"),
        (2**63, 1, ValueError, "counts must be at most 2**63 - 1"),
        ([3, 2**64], 1, ValueError, "counts must be at most 2**63 - 1"),
        (np.array([3, 1.5], dtype=object), 1, TypeError,
         "counts must be of an integer type, not object"),
        # numpy reads these lists as floats: the first holds only ints
        ([2**63, 1], 1, ValueError, "counts must be at most 2**63 - 1"),
        ([2**63, 1.5], 1, TypeError, "counts must be of an integer type, not float64"),
    ])
    def test_non_integer_or_negative_arguments_raise(self, counts, k, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            burst_count_logpmf(counts, k, BurstModel())

    @pytest.mark.parametrize("n_f4", [0, 1, 3])
    def test_burst_window_sums_follow_the_pmf(self, n_f4):
        # the generator draws the law, the classifier reads the pmf: a two-sample
        # test ties the two, so neither can change alone
        model, n = BurstModel(), 4000
        rng = run_stream(25, n_f4)
        sums = [int(synthesize_detection_burst(n_f4, model, rng).counts.sum()) for _ in range(n)]
        support = np.arange(80)
        pmf = np.exp(burst_count_logpmf(support, n_f4, model))
        drawn = run_stream(26, n_f4).choice(support, size=n, p=pmf / pmf.sum())
        assert chi2_two_sample(sums, drawn.tolist()) > 1e-3


@pytest.mark.parametrize("window, n_bins", [(2e-3, 10), (0.5e-3, 3), (0.1e-3, 1), (2.05e-3, 11)])
def test_burst_bin_means_sum_to_the_window_law(window, n_bins):
    # the bins split a bright atom's photons and the background exactly, so
    # their means add up to the mean of burst_count_logpmf's law
    model = BurstModel()
    share, background = signals._burst_law(model, window)
    assert len(share) == len(background) == n_bins
    assert share.sum() == pytest.approx(1.0, rel=1e-12)
    assert background.sum() == pytest.approx(model.background_photons_per_window, rel=1e-12)
    support = np.arange(200)
    for k in (0, 1, 3):
        pmf_mean = (support * np.exp(burst_count_logpmf(support, k, model))).sum()
        means = k * model.mean_photons_per_atom * share + background
        assert means.sum() == pytest.approx(pmf_mean, rel=1e-9)


# The per-bin law against the per-photon sampler it replaced, 4000 windows
# each: two-sample chi-square tests, rejected below p = 1e-3. The 0.5 ms
# window ends in a partial third bin, and its truncation leaves 29 % of the
# envelope outside, which the shares must put back into the window.
_BURST_WINDOWS = {"2ms": 2e-3, "0.5ms": 0.5e-3}


@pytest.mark.parametrize("window", _BURST_WINDOWS.values(), ids=_BURST_WINDOWS)
@pytest.mark.parametrize("n_f4", [0, 1, 3])
class TestBurstLawFollowsThePerPhotonSampler:
    N = 4000

    def windows(self, n_f4, window):
        model, seed = BurstModel(), round(window * 1e4)
        rng = run_stream(27 + seed, n_f4)
        law = burst_reference._burst_law(model, window)
        reference = np.array([burst_reference._burst_draw(n_f4, model, law, rng)
                              for _ in range(self.N)])
        drawn = signals._burst_draw(np.full(self.N, n_f4), model,
                                    signals._burst_law(model, window), run_stream(47 + seed, n_f4))
        assert drawn.shape == reference.shape
        return reference, drawn

    def test_window_sums(self, n_f4, window):
        reference, drawn = self.windows(n_f4, window)
        assert chi2_two_sample(reference.sum(axis=1).tolist(), drawn.sum(axis=1).tolist()) > 1e-3

    def test_first_and_last_bins(self, n_f4, window):
        reference, drawn = self.windows(n_f4, window)
        pairs = [list(zip(c[:, 0].tolist(), c[:, -1].tolist())) for c in (reference, drawn)]
        assert chi2_two_sample(*pairs) > 1e-3


class TestPhotonTraceCsv:
    def test_header_and_format(self):
        tr = PhotonTrace(t0=0.0, bin_width=0.1, counts=[5, 7, 3])
        text = tr.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "bin_start_s,counts"
        assert lines[1] == "0,5"
        assert lines[2] == "0.1,7"

    def test_round_trip(self):
        tr = PhotonTrace(t0=0.25, bin_width=0.1, counts=[5, 7, 3, 0, 11])
        back = PhotonTrace.from_csv(tr.to_csv())
        assert np.array_equal(back.counts, tr.counts)
        assert back.t0 == pytest.approx(tr.t0)
        assert back.bin_width == pytest.approx(tr.bin_width)

    def test_nine_significant_digits(self):
        tr = PhotonTrace(t0=1.0 / 3.0, bin_width=0.1, counts=[1])
        assert tr.to_csv().splitlines()[1].split(",")[0] == "0.333333333"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            PhotonTrace.from_csv("time,counts\n0,1\n")

    def test_one_bin_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            PhotonTrace.from_csv("bin_start_s,counts\n0,1\n")

    def test_non_uniform_spacing_rejected(self):
        with pytest.raises(ValueError, match="not uniformly spaced: bin 2"):
            PhotonTrace.from_csv("bin_start_s,counts\n0,1\n0.1,2\n0.25,3\n0.35,1\n")
        with pytest.raises(ValueError, match="not uniformly spaced"):
            PhotonTrace.from_csv("bin_start_s,counts\n0.2,1\n0.1,2\n0,3\n")
        # 1.2 % off the median is rejected, 0.8 % is accepted
        with pytest.raises(ValueError):
            PhotonTrace.from_csv("bin_start_s,counts\n0,1\n0.1,2\n0.2,3\n0.3012,1\n")
        back = PhotonTrace.from_csv("bin_start_s,counts\n0,1\n0.1,2\n0.2,3\n0.3008,1\n")
        assert back.bin_width == pytest.approx(0.1)

    def test_long_trace_round_trip(self):
        # 36 000 bins of 0.1 s: the 9-digit starts stay far inside the tolerance
        tr = PhotonTrace(t0=0.0, bin_width=0.1, counts=np.arange(36000) % 7)
        back = PhotonTrace.from_csv(tr.to_csv())
        assert back.bin_width == pytest.approx(0.1, rel=1e-9)
        assert np.array_equal(back.counts, tr.counts)

    @given(width=st.floats(1e-6, 10.0), start_bins=st.integers(0, 1000),
           counts=st.lists(st.integers(0, 10**6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, width, start_bins, counts):
        # a start up to 1000 bins in keeps the 9-digit bin starts well
        # inside the spacing tolerance
        tr = PhotonTrace(t0=start_bins * width, bin_width=width, counts=counts)
        back = PhotonTrace.from_csv(tr.to_csv())
        assert np.array_equal(back.counts, tr.counts)
        assert back.t0 == pytest.approx(tr.t0, rel=1e-8)
        assert back.bin_width == pytest.approx(width, rel=1e-5)

    def test_large_start_round_trip(self):
        # 9 digits would write all three starts as 36000
        tr = PhotonTrace(t0=36000.0, bin_width=2e-5, counts=[1, 2, 3])
        back = PhotonTrace.from_csv(tr.to_csv())
        assert np.array_equal(back.counts, tr.counts)
        assert back.t0 == 36000.0
        assert back.bin_width == pytest.approx(2e-5, rel=BIN_SPACING_TOLERANCE)

    @given(width=st.floats(1e-6, 10.0), t0=st.floats(0.0, 1e5),
           counts=st.lists(st.integers(0, 10**6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_large_start_round_trip_property(self, width, t0, counts):
        tr = PhotonTrace(t0=t0, bin_width=width, counts=counts)
        back = PhotonTrace.from_csv(tr.to_csv())
        assert np.array_equal(back.counts, tr.counts)
        assert back.t0 == pytest.approx(t0, rel=1e-8, abs=BIN_SPACING_TOLERANCE * width)
        assert back.bin_width == pytest.approx(width, rel=BIN_SPACING_TOLERANCE)

    def test_file_round_trip(self, tmp_path):
        tr = PhotonTrace(t0=0.0, bin_width=0.2, counts=[4, 2])
        path = tmp_path / "trace.csv"
        path.write_text(tr.to_csv())
        back = PhotonTrace.from_csv(str(path))
        assert np.array_equal(back.counts, tr.counts)

    @pytest.mark.parametrize("row, column", [
        ("0.1,x", "counts"), ("0.1,1.5", "counts"), ("x,2", "bin_start_s"),
        ("nan,2", "bin_start_s"), ("inf,2", "bin_start_s"), ("0.1,nan", "counts"),
    ])
    def test_bad_field_names_row_and_column(self, row, column):
        # row 4: the blank line below the header counts as a row
        with pytest.raises(ValueError, match=re.escape(f"<text>: row 4, column {column}: ")):
            PhotonTrace.from_csv(f"bin_start_s,counts\n\n0,1\n{row}\n0.2,3\n")

    def test_bytes_equal_reference(self):
        # the digit bound must pick 9 digits only where the digit search
        # stops at 9; far from zero the search runs and may go up to 17
        rng = np.random.default_rng(22)
        for t0 in (0.0, 36000.0, 1e5):
            for k in range(-7, 2):
                for width in (10.0 ** k, 10.0 ** rng.uniform(k, k + 1)):
                    for n in (1, 2, 3, 1000):
                        tr = PhotonTrace(t0=t0, bin_width=width, counts=rng.poisson(50.0, n))
                        assert tr.to_csv() == csv_reference.to_csv(tr), (t0, width, n)

    @pytest.mark.parametrize("t0, width", [
        (-DBL_MAX, DBL_MAX), (0.9999999999 * DBL_MAX, 1e297),
    ])
    def test_starts_near_dbl_max_write_without_warning(self, t0, width):
        # the digit bound must not overflow at DBL_MAX, and the digit search
        # must skip a digit count whose rounding parses back as inf
        tr = PhotonTrace(t0=t0, bin_width=width, counts=[1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = tr.to_csv()
        starts = [float(row.split(",")[0]) for row in text.splitlines()[1:]]
        assert np.isfinite(starts).all()
        if width == DBL_MAX:
            assert text == csv_reference.to_csv(tr)

    @pytest.mark.parametrize("t0, width, n_bins", [
        (DBL_MAX, 1.0, 2), (0.9999999999 * DBL_MAX, 1.0, 2), (1e17, 1.0, 3), (1e16, 3.0, 50),
        (-1e16, 3.0, 50),
    ])
    def test_bin_width_below_the_float_resolution_rejected(self, t0, width, n_bins):
        # the starts would collapse or their spacings alternate (1e16 + 3 i
        # steps by 2 s and 4 s), so the CSV could not be read back
        with pytest.raises(ValueError, match="^bin_width must be at least "):
            PhotonTrace(t0=t0, bin_width=width, counts=[1] * n_bins)

    @given(t0=st.floats(allow_nan=False, allow_infinity=False),
           width=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           counts=st.lists(st.integers(0, 10**6), min_size=2, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_trace_round_trips(self, t0, width, counts):
        # a width within about 1 % above the bound can read back just below it
        # and be rejected; widths drawn over the whole float range all but
        # never land in that band
        try:
            tr = PhotonTrace(t0=t0, bin_width=width, counts=counts)
        except ValueError:
            assume(False)
        back = PhotonTrace.from_csv(tr.to_csv())
        assert np.array_equal(back.counts, tr.counts)
        assert back.t0 == pytest.approx(t0, rel=1e-8, abs=BIN_SPACING_TOLERANCE * width)
        assert back.bin_width == pytest.approx(width, rel=BIN_SPACING_TOLERANCE)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            PhotonTrace(t0=0.0, bin_width=0.1, counts=[-1])
        with pytest.raises(ValueError):
            PhotonTrace(t0=0.0, bin_width=0.1, counts=[])

    @pytest.mark.parametrize("t0, width, message", [
        *[(t0, 0.1, "t0 must be finite") for t0 in (float("nan"), float("inf"), -float("inf"))],
        *[(0.0, width, "bin_width must be positive and finite")
          for width in (float("nan"), float("inf"), 0.0, -0.1)],
        (1e308, 1e308, "the last bin start, t0 + bin_width * (len(counts) - 1), must be finite"),
    ])
    def test_non_finite_bin_starts_rejected(self, t0, width, message):
        # to_csv would write starts that from_csv rejects, or warn on the way
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PhotonTrace(t0=t0, bin_width=width, counts=[1, 2])


class TestReadCsvTable:
    def test_typed_columns(self):
        starts, counts, words = read_csv_table(
            "a,b,c\n0.5,1,on\n\n1e3,2,off\n", {"a": float, "b": int, "c": str})
        assert starts.dtype == float and starts.tolist() == [0.5, 1000.0]
        assert counts.dtype == np.int64 and counts.tolist() == [1, 2]
        assert list(words) == ["on", "off"]

    def test_callable_column_names_the_row(self):
        def parity(word):
            if word not in ("even", "odd"):
                raise ValueError(f"not a parity: {word!r}")
            return word == "odd"
        _, odd = read_csv_table("a,b\n0,odd\n1,even\n", {"a": float, "b": parity})
        assert odd == [True, False]
        with pytest.raises(ValueError, match=re.escape("<text>: row 3, column b: not a parity: 'x'")):
            read_csv_table("a,b\n0,odd\n1,x\n", {"a": float, "b": parity})

    def test_empty_body_gives_empty_columns(self):
        starts, words = read_csv_table("a,b\n", {"a": float, "b": str})
        assert len(starts) == 0 and len(words) == 0

    def test_numeric_tables_skip_csv_reader(self, monkeypatch, tmp_path):
        # a silent fall back to csv.reader would keep every other test green
        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called on a numeric table")

        monkeypatch.setattr(signals.csv, "reader", no_reader)
        tr = PhotonTrace(t0=0.0, bin_width=0.1, counts=np.arange(36000) % 7)
        back = PhotonTrace.from_csv(tr.to_csv())
        assert np.array_equal(back.counts, tr.counts)
        assert back.bin_width == pytest.approx(0.1, rel=1e-9)
        path = tmp_path / "survival.csv"
        path.write_text("t_s,survived,total\n1,390,400\n20,260,400\n")
        assert cli._read_fit_csv(str(path), cli._SURVIVAL_COLUMNS) == [
            (1.0, 390, 400), (20.0, 260, 400)]

    def test_int_overflow_names_the_row(self):
        with pytest.raises(ValueError, match="row 3, column b: "):
            read_csv_table("a,b\n0,1\n1,99999999999999999999999\n", {"a": float, "b": int})


def _outcome(read, source, columns):
    """The arrays read_csv_table returns, or the exception it raises."""
    try:
        cols = read(source, columns)
    except Exception as exc:
        return type(exc), str(exc)
    return [(col.dtype.str, col.shape, col.tobytes()) for col in cols]


_NUMERIC_TABLES = [
    {"bin_start_s": float, "counts": int},
    {"t_s": float, "survived": int, "total": int},
    {"t_s": float, "p4": float, "n": int},
    {"n": int},
]
# fields the C path must decline or read as float() and int() do
_ODD_FIELDS = ['"1"', '"1,2"', "1\r", "\x0b1", "1\t", " 2", "", "nan", "inf", "-inf",
               "1e999", "1_0", "\u0661", "1.0", "1e3", "+.5", "-0", "007", "-", ".",
               "1e", "e5", "1-2", "99999999999999999999999", "9223372036854775808"]
_ODD_LINES = ["", "", " ", "\t", ",", ",,", ",,,", "\r", '"0","1"']


def _numeric_field(kind, rng):
    if kind is int:
        return str(int(rng.integers(0, 10**6)))
    x = rng.normal(0.0, 10.0 ** rng.integers(-8, 6))
    return ("%.9g", "%r", "%.3e", "%.17g", "%.0f", "%d")[rng.integers(6)] % x


def _numeric_body(kinds, rng):
    lines = []
    for _ in range(rng.integers(0, 7)):
        fields = [_numeric_field(kind, rng) for kind in kinds]
        roll = rng.random()
        if roll < 0.25:
            fields[rng.integers(len(fields))] = _ODD_FIELDS[rng.integers(len(_ODD_FIELDS))]
        elif roll < 0.3:
            fields.pop()
        elif roll < 0.35:
            fields.append(_numeric_field(int, rng))
        elif roll < 0.45:
            lines.append(_ODD_LINES[rng.integers(len(_ODD_LINES))])
        lines.append(",".join(fields))
    return lines


def test_reader_outcome_equals_reference(tmp_path):
    # 20 000 seeded tables, most of them valid: the C path must return the
    # same arrays as csv.reader, or decline so that the error is the same
    rng = np.random.default_rng(2022)
    path = tmp_path / "table.csv"
    for i in range(20000):
        columns = _NUMERIC_TABLES[i % len(_NUMERIC_TABLES)]
        head = ",".join(columns) if rng.random() < 0.95 else "t_s,counts"
        lines = [head] + _numeric_body(list(columns.values()), rng)
        # one table in ten also ends lines with "\r\n" or a bare "\r"
        ends = rng.choice(["\n", "\r\n", "\r"], len(lines),
                          p=[0.8, 0.1, 0.1] if i % 10 == 1 else [1, 0, 0])
        text = "".join(line + end for line, end in zip(lines, ends))
        if rng.random() < 0.1:
            text = text[:-len(ends[-1])]
        source = text
        if "\n" not in text or i % 50 == 0:
            path.write_bytes(text.encode())
            source = str(path)
        assert _outcome(read_csv_table, source, columns) == _outcome(
            csv_reference.read_csv_table, source, columns), repr(text)


class TestModels:
    def test_detector_defaults(self):
        det = DetectorModel()
        assert det.per_atom_rate == 1.6e4
        assert det.background_rate == 5e3
        assert det.bin_width == 0.1
        assert det.overlap_suppression == 0.3
        assert det.dipole_stray_rate == det.background_rate

    def test_burst_defaults(self):
        model = BurstModel()
        assert model.mean_photons_per_atom == 3.0
        assert model.background_photons_per_window == 0.5
        assert model.burst_duration_mean == 400e-6
        assert model.detection_bin == 200e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(overlap_suppression=1.5)
        with pytest.raises(ValueError):
            BurstModel(mean_photons_per_atom=-1.0)

    @pytest.mark.parametrize("name", ["burst_duration_mean", "detection_bin"])
    def test_burst_time_scales_must_be_finite(self, name):
        # an endless envelope puts no photon in any bin: its shares are 0 / 0
        with pytest.raises(ValueError, match="^time scales must be positive and finite$"):
            BurstModel(**{name: float("inf")})
