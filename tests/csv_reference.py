"""The photon-trace CSV writer and the table reader that signals must reproduce.

These are the plain forms, copied as they were before the reader gained its
numpy C path and the writer its single format operation and digit bound:
the reader runs csv.reader over every input and converts column by column,
and the writer formats every start at each digit count it tries. The fast
forms must write the same bytes and read every input to the same arrays or
the same error.
"""

import csv
import io
from collections.abc import Callable

import numpy as np

from atomtrap.signals import BIN_SPACING_TOLERANCE


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
        name, rows = "<text>", list(csv.reader(io.StringIO(str(text_or_path))))
    else:
        name = str(text_or_path)
        with open(text_or_path, newline="") as fh:
            rows = list(csv.reader(fh))
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


def _off(spacing: np.ndarray, width: float) -> np.ndarray:
    """Which bin spacings deviate from width by more than the tolerance."""
    return np.abs(spacing - width) > BIN_SPACING_TOLERANCE * width


def to_csv(self) -> str:
    """PhotonTrace.to_csv of the trace self."""
    times = self.bin_starts.tolist()
    for digits in range(9, 18):
        starts = list(map(f"%.{digits}g".__mod__, times))
        if digits == 17 or len(starts) < 2:
            break
        spacing = np.diff(np.array(starts, dtype=float))
        if not (_off(spacing, self.bin_width).any()
                or _off(spacing, float(np.median(spacing))).any()):
            break
    rows = "\n".join(map(",".join, zip(starts, map(str, self.counts.tolist()))))
    return f"bin_start_s,counts\n{rows}\n"
