"""Photon-count signal synthesis: MOT staircases and detection bursts.

Each bin's count is Poisson, independent of the other bins, with its mean
computed exactly: the integral of a piecewise-constant rate, so rate changes
need not align with bin edges, or a bin's share of a detection burst.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kinetics import StateTrajectory, nonnegative_integers

__all__ = [
    "DetectorModel",
    "BurstModel",
    "PhotonTrace",
    "synthesize_counts",
    "synthesize_mot_trace",
    "synthesize_detection_burst",
    "burst_count_logpmf",
]


@dataclass(frozen=True)
class DetectorModel:
    """APD counting model for MOT fluorescence.

    overlap_suppression multiplies the fluorescence while both traps are
    on (light shift pushes the atoms out of resonance). dipole_stray_rate
    is the count rate with only the dipole laser on.
    """

    per_atom_rate: float = 1.6e4
    background_rate: float = 5e3
    bin_width: float = 0.1
    overlap_suppression: float = 0.3
    dipole_stray_rate: float = 5e3

    def __post_init__(self):
        if not (self.per_atom_rate >= 0 and self.background_rate >= 0):
            raise ValueError("rates must be non-negative")
        if not self.bin_width > 0:
            raise ValueError("bin_width must be positive")
        if not (0 <= self.overlap_suppression <= 1):
            raise ValueError("overlap_suppression must be in [0, 1]")
        if not self.dipole_stray_rate >= 0:
            raise ValueError("dipole_stray_rate must be non-negative")


@dataclass(frozen=True)
class BurstModel:
    """State-selective detection burst: bright F=4 atoms on a stray background.

    Each F=4 atom emits an expected mean_photons_per_atom photons in a
    burst whose envelope decays exponentially with scale
    burst_duration_mean (the atom is optically pumped into the dark state
    on that time scale). Each bin's count is an independent Poisson draw of
    its share of the burst and background; burst_count_logpmf states the window's law.
    """

    mean_photons_per_atom: float = 3.0
    background_photons_per_window: float = 0.5
    burst_duration_mean: float = 400e-6
    detection_bin: float = 200e-6

    def __post_init__(self):
        if not (self.mean_photons_per_atom >= 0 and self.background_photons_per_window >= 0):
            raise ValueError("photon numbers must be non-negative")
        if not (0 < self.burst_duration_mean < np.inf and 0 < self.detection_bin < np.inf):
            raise ValueError("time scales must be positive and finite")


DETECTION_WINDOW_S = 2e-3  # the state-selective detection window, s

# relative deviation of a bin spacing from the median that from_csv accepts;
# to_csv writes enough digits to stay inside it
BIN_SPACING_TOLERANCE = 0.01


def _column(fields, kind):
    """Text fields as one column of kind: a float or int array, or the list of kind(field).

    Raises ValueError when a field does not convert, or a float is not finite.
    """
    if kind not in (float, int):
        return [kind(text) for text in fields]
    values = np.array(fields, dtype=kind)
    if kind is float and not np.isfinite(values).all():
        raise ValueError(f"{fields[int(np.argmin(np.isfinite(values)))]!r} is not a finite number")
    return values


def read_csv_table(text_or_path, columns: dict[str, Callable[[str], object]]) -> list:
    """The columns below the header of a CSV table, converted to their types.

    text_or_path is a text holding a newline, or a file path.
    columns maps each header field, in order, to float or int, whose columns
    come back as numpy arrays, or to any callable that converts one field
    (str, an Enum), whose column comes back as a list. Raises ValueError,
    naming the source, when the header differs, a row has a different number
    of fields than the header, or a field does not convert (the callable
    raises ValueError; floats must be finite); the last two name the row too.
    """
    header = list(columns)
    if "\n" in str(text_or_path):
        name, text, newline = "<text>", str(text_or_path), "\n"
    else:
        # split the lines as csv.reader over open(path, newline="") does
        name, newline = str(text_or_path), ""
        with open(text_or_path, newline="") as fh:
            text = fh.read()
    out = _numeric_table(text, columns)
    if out is not None:
        return out
    rows = list(csv.reader(io.StringIO(text, newline=newline)))
    if not rows or rows[0] != header:
        raise ValueError(f"{name}: expected header '{','.join(header)}'")
    body = [row for row in rows[1:] if row]
    if set(map(len, body)) - {len(header)}:
        line, row = next((i, r) for i, r in enumerate(rows, 1) if r and len(r) != len(header))
        raise ValueError(f"{name}: row {line} has {len(row)} fields, expected {len(header)}")
    out = []
    for j, col in enumerate(header):
        try:
            out.append(_column([row[j] for row in body], columns[col]))
        except (ValueError, OverflowError):
            # convert field by field only now, to name the first bad row
            for line, row in enumerate(rows[1:], 2):
                if not row:
                    continue
                try:
                    _column([row[j]], columns[col])
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"{name}: row {line}, column {col}: {exc}") from exc
            raise
    return out


# a table body that csv.reader splits at "," and "\n" only, into fields that
# numpy's C parser reads as Python's float() and int() do
_NUMERIC_BODY = re.compile(r"[0-9.eE+\-,\n]*")


def _numeric_table(text: str, columns: dict) -> list | None:
    """The columns of text parsed in C, or None where csv.reader must read it.

    None when a column is not float or int, the header differs, the body
    holds a character outside _NUMERIC_BODY, numpy raises or warns (a
    malformed row or field, no rows, an int written as a float) or a float
    is not finite: read_csv_table then reads the text with csv.reader and
    names the faulty row.
    """
    kinds = list(columns.values())
    head, _, body = text.partition("\n")
    if (not all(kind in (float, int) for kind in kinds) or head != ",".join(columns)
            or not _NUMERIC_BODY.fullmatch(body)):
        return None
    dtype = np.dtype([(f"f{j}", kind) for j, kind in enumerate(kinds)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                               dtype=dtype, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    out = [np.ascontiguousarray(table[field]) for field in dtype.names]
    if not all(np.isfinite(col).all() for col, kind in zip(out, kinds) if kind is float):
        return None
    return out


def _off(spacing: np.ndarray, width: float) -> np.ndarray:
    """Which bin spacings deviate from width by more than the tolerance."""
    return np.abs(spacing - width) > BIN_SPACING_TOLERANCE * width


def _nine_digits_suffice(starts: np.ndarray, width: float) -> bool:
    """Whether bin starts written with %.9g provably pass both spacing checks.

    %.9g moves a start by at most half a unit in its 9th digit, so a spacing
    by at most one such unit at the largest start; 64 ulps there cover
    forming, parsing and differencing the starts. Both checks pass when that
    stays under a quarter of the tolerance (the median is then off by as much).
    """
    top = float(np.abs(starts).max())
    if not 0 < top < np.inf:
        return False
    # the decimal exponent of top rounded to 9 digits, as %.9g writes it
    unit = 10.0 ** (int(f"{top:.8e}".partition("e")[2]) - 8)
    return 4 * (unit + 64 * math.ulp(top)) <= BIN_SPACING_TOLERANCE * width


@dataclass
class PhotonTrace:
    """Binned photon counts starting at t0 with fixed bin width."""

    t0: float
    bin_width: float
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if not 0 < self.bin_width < np.inf:
            raise ValueError("bin_width must be positive and finite")
        if self.counts.ndim != 1 or len(self.counts) == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        if not -np.inf < self.t0 < np.inf:
            raise ValueError("t0 must be finite")
        last = self.t0 + self.bin_width * (len(self.counts) - 1)
        if not -np.inf < last < np.inf:
            raise ValueError("the last bin start, t0 + bin_width * (len(counts) - 1), "
                             "must be finite")
        # a start is off by a few float spacings at the largest |start|, and so
        # is a spacing of the exact starts that to_csv writes at most; 16 of
        # them stay far inside the tolerance that from_csv applies
        limit = 16 / BIN_SPACING_TOLERANCE * math.ulp(max(abs(self.t0), abs(last)))
        if not self.bin_width >= limit:
            raise ValueError(f"bin_width must be at least {limit:.3g} s, "
                             f"{16 / BIN_SPACING_TOLERANCE:g} float spacings at the largest "
                             "|bin start|, for the CSV to keep the bin spacing")

    @property
    def bin_starts(self) -> np.ndarray:
        return self.t0 + self.bin_width * np.arange(len(self.counts))

    def to_csv(self) -> str:
        """Bin starts with the fewest significant digits, at least 9, whose
        spacings stay within BIN_SPACING_TOLERANCE of the bin width and of
        their median, so from_csv reads the trace back; 17 digits are exact."""
        starts = self.bin_starts
        digits = 9
        if len(starts) >= 2 and not _nine_digits_suffice(starts, self.bin_width):
            times = starts.tolist()
            for digits in range(9, 17):
                parsed = np.array(list(map(f"%.{digits}g".__mod__, times)), dtype=float)
                # near DBL_MAX a start may round past it and parse back as inf
                if not np.isfinite(parsed).all():
                    continue
                spacing = np.diff(parsed)
                if not (_off(spacing, self.bin_width).any()
                        or _off(spacing, float(np.median(spacing))).any()):
                    break
            else:
                digits = 17
        cells = [0] * (2 * len(starts))
        cells[::2], cells[1::2] = starts.tolist(), self.counts.tolist()
        return "bin_start_s,counts\n" + (f"%.{digits}g,%d\n" * len(starts)) % tuple(cells)

    @classmethod
    def from_csv(cls, text_or_path) -> "PhotonTrace":
        """Read a trace written by to_csv; the bin width is the bin spacing.

        Raises ValueError for a trace of fewer than two bins (its width is
        undefined) and for bin starts whose spacing is not uniform within
        BIN_SPACING_TOLERANCE of the median spacing.
        """
        starts, counts = read_csv_table(text_or_path, {"bin_start_s": float, "counts": int})
        if len(starts) < 2:
            raise ValueError(f"trace has {len(starts)} bin(s); the bin width needs at least two")
        spacing = np.diff(starts)
        width = float(np.median(spacing))
        off = _off(spacing, width)
        if width <= 0 or off.any():
            i = int(np.argmax(off)) if width > 0 else 0
            raise ValueError(
                f"bin starts are not uniformly spaced: bin {i + 1} starts "
                f"{spacing[i]:.9g} s after bin {i}, median spacing {width:.9g} s"
            )
        return cls(t0=float(starts[0]), bin_width=width, counts=counts)


def bin_expected_counts(times, rates, t_end: float, bin_width: float) -> np.ndarray:
    """Expected counts per bin over [0, t_end) of the piecewise-constant rate
    that is rates[i] from times[i] until times[i+1] (and rates[0] before
    times[0]); a trailing partial bin is dropped."""
    if not 0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    if not 0 < bin_width < np.inf:
        raise ValueError("bin_width must be positive and finite")
    n_bins = int(np.floor(t_end / bin_width + 1e-9))
    if n_bins < 1:
        raise ValueError("interval shorter than one bin")
    times, rates = np.asarray(times, dtype=float), np.asarray(rates, dtype=float)
    if not 0 < len(times) == len(rates) or np.any(np.diff(times) <= 0) or not np.all(rates >= 0):
        raise ValueError("rates must be non-negative, one per strictly increasing time")
    edges = bin_width * np.arange(n_bins + 1)
    # the exact integral of the rate from 0 to each edge
    idx = np.clip(np.searchsorted(times, edges, side="right") - 1, 0, None)
    cum = np.concatenate([[0.0], np.cumsum(rates[:-1] * np.diff(times))])
    return np.diff(cum[idx] + rates[idx] * (edges - times[idx]))


def synthesize_counts(
    times, rates, t_end: float, bin_width: float, rng: np.random.Generator
) -> PhotonTrace:
    """Poisson counts per bin with means given by the exact rate integral
    (see bin_expected_counts); raises ValueError for a negative rate."""
    means = bin_expected_counts(times, rates, t_end, bin_width)
    return PhotonTrace(t0=0.0, bin_width=bin_width, counts=rng.poisson(means))


def synthesize_mot_trace(
    traj: StateTrajectory, det: DetectorModel, rng: np.random.Generator, overlap: bool = False
) -> PhotonTrace:
    """Photon trace of MOT fluorescence for a given atom-number trajectory.

    rate(t) = background + N(t) * per_atom_rate, multiplied by the overlap
    suppression when overlap is set: the dipole trap is on throughout and
    its light shift pushes the atoms out of resonance.
    """
    rates = det.background_rate + traj.values * det.per_atom_rate
    if overlap:
        rates = rates * det.overlap_suppression
    return synthesize_counts(traj.times, rates, traj.t_end, det.bin_width, rng)


def synthesize_detection_burst(
    n_f4: int,
    model: BurstModel,
    rng: np.random.Generator,
    window: float = DETECTION_WINDOW_S,
) -> PhotonTrace:
    """Detection-window photon trace: bright F=4 bursts plus stray background.

    Each bin's count is Poisson, independent of the other bins, with mean
    n_f4 * mean_photons_per_atom times the bin's share of the exponential
    envelope truncated to the window, plus its share of the uniform
    background; F=3 atoms stay dark. The window's total count follows
    burst_count_logpmf. Raises TypeError when n_f4 is not of an integer
    type and ValueError when it is negative.
    """
    n_f4 = operator.index(nonnegative_integers(n_f4, "n_f4"))
    counts = _burst_draw(n_f4, model, _burst_law(model, window), rng)
    return PhotonTrace(t0=0.0, bin_width=model.detection_bin, counts=counts)


_log_factorial = np.vectorize(lambda n: math.lgamma(n + 1), otypes=[float])


def burst_count_logpmf(counts, k, model: BurstModel) -> np.ndarray:
    """Log-probability of counts photons in one detection window holding k bright atoms.

    The count is Poisson with mean background_photons_per_window
    + k * mean_photons_per_atom. counts and k broadcast; a mean of 0 gives
    -inf for counts > 0. Raises TypeError when counts or k are not integers
    and ValueError when one is negative.
    """
    counts, k = nonnegative_integers(counts, "counts"), nonnegative_integers(k, "k")
    mean = model.background_photons_per_window + k * model.mean_photons_per_atom
    loglik = counts * np.log(np.maximum(mean, 1e-300)) - mean - _log_factorial(counts)
    return np.where(mean > 0, loglik, np.where(counts > 0, -np.inf, 0.0))


@lru_cache
def _burst_law(model: BurstModel, window: float) -> tuple[np.ndarray, np.ndarray]:
    """(share, background) per detection bin: a bright atom's share of photons under
    the envelope truncated to the window, and the mean background count. The
    bins are detection_bin wide but the last, which ends at the window. Cached
    per (model, window), so both arrays are read-only."""
    if not 0 < window < np.inf:
        raise ValueError("window must be positive and finite")
    n_bins = max(int(np.ceil(window / model.detection_bin - 1e-9)), 1)
    edges = np.append(model.detection_bin * np.arange(n_bins), window)
    cdf = -np.expm1(-edges / model.burst_duration_mean)
    law = np.diff(cdf) / cdf[-1], model.background_photons_per_window * np.diff(edges) / window
    for a in law:
        a.flags.writeable = False
    return law


def _burst_draw(n_f4, model: BurstModel, law: tuple[np.ndarray, np.ndarray],
                rng: np.random.Generator) -> np.ndarray:
    """Photon counts per detection bin of windows holding n_f4 bright atoms, each
    Poisson with mean n_f4 * mean_photons_per_atom * share + background, in one
    draw: one row of bins for an int n_f4, one row per run for an int array."""
    share, background = law
    return rng.poisson(np.multiply.outer(model.mean_photons_per_atom * n_f4, share) + background)
