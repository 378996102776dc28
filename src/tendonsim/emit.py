"""CSV/JSON emission of experiment tables, and the CSV schema check.

Conventions:
  * every column name carries a unit suffix from UNIT_SUFFIXES; the writer
    checks the names and the column arrays (nonempty labels, finite
    numbers) in the one pass that lays the columns out, _slot_table,
    before it opens the file; validate_csv_schema runs that pass on a CSV
    file read from disk, after the checks only a file can fail (header,
    ragged rows, numbers),
  * CSV dialect: comma separated, '.' decimal, header row mandatory,
  * every output file (CSV, JSON, summary) is written as UTF-8 bytes with
    LF line ends, opened in binary mode by _replacing, so no platform
    newline rule applies and nothing is decoded and encoded again,
  * rows are rendered a block at a time (_row_blocks) and streamed to a
    temporary file in the output directory, renamed onto the output name
    once complete; a block holds as many rows as fill _BLOCK_BYTES of
    slots (_block_rows), so its memory is bounded in bytes whatever the
    format and the columns; both formats render a block by numpy in one
    slot layout (_slot_rows), a CSV float cell's "%.12g" text from its 12-digit
    significand, a JSON float cell's repr text from its shortest
    round-trip digits; Python renders the cells outside 1e-4 <= |x| < 1e11
    (CSV) or 1e16 (JSON) and those its guard cannot be sure of.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
from contextlib import contextmanager, suppress
from functools import reduce
from itertools import count, islice
from pathlib import Path
from typing import (BinaryIO, Callable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

# every emitted column must end in one of these
UNIT_SUFFIXES = (
    "_mm", "_N", "_Nmm", "_Nm", "_rad", "_rad_per_s", "_rad_per_s2",
    "_Nmm_per_rad", "_Nm_per_rad", "_N_per_mm", "_m", "_s", "_W",
    "_count", "_label",
)


class SchemaError(Exception):
    """A table to emit, or a CSV file, violates the unit-suffix schema."""


# --------------------------------------------------------------------------
# emission


def _csv_line(cells: Sequence[str]) -> str:
    """A row of string cells exactly as csv.writer writes it, LF ended."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


# A block of rows is laid out as uint8 slots, a fixed number per cell, that
# hold its text or _FILL; dropping the _FILL bytes leaves the rows. 0xFF is
# in no UTF-8 text, so a label slot may hold any quoted label.
_FILL = b"\xff"

# the slot bytes of a block of a table's rows, rendered at once by one
# numpy pass: a block's temporaries grow with its slots, so a wide row (a
# JSON cell's 56 slots against a CSV cell's 32, the Lift's six columns
# against the Workspace's three) makes a block of fewer rows
_BLOCK_BYTES = 256 * 1024

# rows of a CSV file read and checked at once by validate_csv_schema
_CHECK_ROWS = 4096


# A float cell with 1e-4 <= |x| < 10**(X_max + 1) is written in fixed
# notation: its exponent X = floor(log10|x|) is -4..X_max and its digits
# are an integer N of a fixed number of digits, trailing zeros dropped. Its
# slots: a _FILL, the sign, "0.000" (for X < 0), then each digit of N
# followed by a slot for the decimal point, and the format's separator in
# the last slots.
_DIGIT0 = 8                                # slot of N's first digit

# 10**k for k = 0..20, each exactly a float, and Veltkamp's split of each
# into two halves of at most 26 bits
_POW10 = np.array([float(10 ** k) for k in range(21)])


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a, each with at most 26 significant
    bits, so the product of two halves is exact."""
    c = a * 134217729.0                    # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digit_tables() -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """By 4-digit group 0000..9999: its ASCII digits in the even bytes of a
    uint64, to be or-ed into the digit slots of a cell; and for the group
    at digits 4j..4j+3 of N (j = 0..4), the index in N of its last nonzero
    digit (0 for the group 0000)."""
    g = np.arange(10000, dtype=np.int16)  # small temporaries at import
    digits = np.zeros((10000, 8), np.uint8)
    digits[:, ::2] = (g[:, None] // np.array([1000, 100, 10, 1], np.int16)
                      % 10 + ord("0"))
    last = 3 - sum(g % 10 ** k == 0 for k in (1, 2, 3))
    return (digits.view(np.uint64).ravel(),
            tuple(np.where(g > 0, last + 4 * j, 0).astype(np.uint8)
                  for j in range(5)))


_DIGITS4, _LAST_DIGIT = _digit_tables()


def _digit_groups(N: np.ndarray, n_digits: int) -> List[np.ndarray]:
    """The n_digits digits of N in 4-digit groups from the first; a short
    last group is padded with zeros."""
    groups, head = [], None         # head: N's digits before the group
    for k in range(n_digits - 4, -4, -4):
        top = N // 10 ** k if k > 0 else N      # N's digits through it
        g = top if head is None else top - head * 10 ** min(4, 4 + k)
        groups.append(g if k >= 0 else g * 10 ** -k)
        head = top
    return groups


def _cell_slots(n_digits: int, x_max: int, width: int, sep: bytes,
                point_zero: bool) -> np.ndarray:
    """The width slots of a float cell by (sign, X + 4, index of N's last
    nonzero digit), as width // 8 uint64: the fixed characters in place, 0
    in the digit slots to keep and _FILL everywhere else. With point_zero
    an integral value ends in ".0"."""
    t = np.full((2, x_max + 5, n_digits, width), ord(_FILL), np.uint8)
    t[1, ..., 1] = ord("-")
    t[..., width - len(sep):] = np.frombuffer(sep, np.uint8)
    for X in range(-4, x_max + 1):
        for last in range(n_digits):
            slots = t[:, X + 4, last]
            keep = last if X < 0 else max(last, X + point_zero)
            if X < 0:
                slots[:, 2:4] = np.frombuffer(b"0.", np.uint8)
                slots[:, 4:3 - X] = ord("0")
            elif keep > X:
                slots[:, _DIGIT0 + 2 * X + 1] = ord(".")
            slots[:, _DIGIT0:_DIGIT0 + 2 * keep + 1:2] = 0
    return t.view(np.uint64)


def _significand_12g(a: np.ndarray):
    """(ok, X, N) for "%.12g" of |x| = a: N = rint(a * 10**(11-X)), the
    correctly rounded 12-digit significand, where ok.

    Exactness. The power of ten is exact, so p = a * 10**(11-X) is rounded
    once and is off the true product by at most 2**-53 * 1e12 ~ 1.1e-4.
    Outside the guard band |frac(p) - 0.5| <= 1e-3 the nearest integer to p
    is thus the nearest to the true product. The guard clears ok for a
    outside [1e-4, 1e11) (other notations and non-finite values included),
    p near a tie, N that rounds up to 1e12 (the next power of ten), and
    p < 1e11, where log10 rounded up to X. Zero is ok, with X = N = 0.
    """
    zero = a == 0
    ok = (a >= 1e-4) & (a < 1e11)
    a = np.where(ok, a, 1.0)
    X = np.clip(np.floor(np.log10(a)), -4, 10).astype(np.intp)
    p = a * _POW10[11 - X]
    N = np.rint(p)
    ok &= (p >= 1e11) & (N < 1e12) & (np.abs(p - np.floor(p) - 0.5) > 1e-3)
    return ok | zero, X, np.where(ok, N, 0).astype(np.int64)


def _significand_repr(a: np.ndarray):
    """(ok, X, N) for repr of |x| = a: where ok, N is the 17-digit integer
    whose digits, trailing zeros dropped, are the shortest that read back
    as a, the nearest to a of that length (a tie to the even one).

    The method. With s = 16 - X, P = a * 10**s lies in [1e16, 1e17), and
    Dekker's product gives it exactly as hi + lo, hi an integer; N17 = hi +
    rint(lo) = P + R, rounded half to even since hi is even. A decimal
    reads back as a if it lies within the half gap to a's neighbours,
    H = 2**(e-54) * 10**s exactly, of P. D15 and D16, P rounded to a
    multiple of 100 and of 10 on N17's last digits and the sign of R (a
    tie, R == 0 and N17 ending in 5, to the even multiple of 10), lie at
    exact distances from P. At most one multiple of 100 lies within
    H < 11.2 of P, so if D15 does, its digits are the shortest; else D16
    if it lies within H; else N17.

    The guard clears ok for a outside [1e-4, 1e16) (the exponent notation
    included), a power of two (the float below is nearer than H), a
    distance within 1e-6 of H, P outside [1e16, 1e17) (log10 rounded
    across a power of ten) and N that rounds up to 1e17. Zero is ok, with
    X = N = 0.
    """
    zero = a == 0
    ok = (a >= 1e-4) & (a < 1e16)
    a = np.where(ok, a, 1.0)
    X = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    s = 16 - X
    b = _POW10.take(s)
    hi = a * b
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    rlo = np.rint(lo)
    R = rlo - lo
    N17 = hi.astype(np.int64) + rlo.astype(np.int64)
    m, e = np.frexp(a)
    H = np.ldexp(b, e - 54)
    r100 = N17 % 100
    r10 = r100 % 10
    off15 = np.where(r100 > 50, 100, 0) - r100  # at r100 == 50, never in H
    even_up = (R == 0) & (r100 // 10 % 2 == 1)   # a tie, to the even one
    off16 = np.where((r10 > 5) | (r10 == 5) & ((R < 0) | even_up), 10, 0) - r10
    d15, d16 = np.abs(off15 + R), np.abs(off16 + R)
    in15, in16 = d15 < H, d16 < H
    N = N17 + np.where(in15, off15, np.where(in16, off16, 0))
    unsure = (np.abs(d15 - H) < 1e-6) | ~in15 & (np.abs(d16 - H) < 1e-6)
    ok &= ((hi < 1e17) & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
           & (m != 0.5) & ~unsure & (N < 10 ** 17))
    return ok | zero, X, np.where(ok, N, 0)


class _Format(NamedTuple):
    """How a data file format lays out a block of rows in slots."""
    significand: Callable      # |x| -> (ok, X, N), as _significand_12g
    python: Callable[[float], bytes]   # a cell's text where ok is False
    quote: Callable[[str], str]        # a *_label cell's text
    slots: np.ndarray          # of a float cell, by _cell_slots
    sep: bytes                 # the last slots of a cell
    lead: bytes                # before each row
    end: bytes                 # after each row, in its last cell's sep


_CSV = _Format(_significand_12g, lambda v: b"%.12g" % v,
               lambda s: _csv_line([s])[:-1],
               _cell_slots(12, 10, 32, b",", False), b",", b"", b"\n")
# json.dump(indent=2) puts one cell on each line, a row in brackets
_JSON = _Format(_significand_repr, lambda v: b"%r" % v, json.dumps,
                _cell_slots(17, 15, 56, b",\n      ", True), b",\n      ",
                b",\n    [\n      ", b"\n    ]")

# the data file formats, by name: the --format choices and file suffixes
FORMATS = {"csv": _CSV, "json": _JSON}


def _float_cells(x: np.ndarray, form: _Format) -> np.ndarray:
    """The slots of each cell of a float array as form renders it, followed
    by its separator: uint8 of shape x.shape + (cell width,). Cells with
    1e-4 <= |x| < 10**(X_max + 1) get their digits from form.significand;
    the cells its guard flags go to Python (form.python)."""
    _, n_exp, n_digits, words = form.slots.shape
    ok, X, N = form.significand(np.abs(x))
    groups = _digit_groups(N, n_digits)
    last = reduce(np.maximum, map(np.take, _LAST_DIGIT, groups))
    cells = form.slots.reshape(-1, words).take(
        (np.signbit(x) * n_exp + X + 4) * n_digits + last, axis=0)
    for j, g in enumerate(groups, start=1):
        cells[..., j] |= _DIGITS4.take(g)
    cells = cells.view(np.uint8)
    width = cells.shape[-1] - len(form.sep)
    bad = np.nonzero(~ok)               # the cells Python renders
    text = b"".join(form.python(v).ljust(width, _FILL)
                    for v in x[bad].tolist())
    cells[(*bad, slice(width))] = np.frombuffer(text, np.uint8).reshape(
        -1, width)
    return cells


def _label_slots(labels: Sequence[str], form: _Format) -> np.ndarray:
    """One row of slots per label: its quoted UTF-8 bytes, _FILL, then the
    separator."""
    quoted = [form.quote(s).encode() for s in labels]
    width = max(map(len, quoted), default=0)
    return np.frombuffer(b"".join(q.ljust(width, _FILL) + form.sep
                                  for q in quoted),
                         np.uint8).reshape(len(quoted), width + len(form.sep))


def _slot_rows(form: _Format, slots: Sequence[Optional[np.ndarray]],
               block: list) -> bytes:
    """The rows of a block, as form lays them out. Its float columns are
    rendered by _float_cells together; a *_label column holds indices into
    its slots, the _label_slots of its distinct labels (None for a float
    column)."""
    m = len(block[0])
    floats = [col for col, s in zip(block, slots) if s is None]
    cells = (_float_cells(np.stack(floats, axis=-1), form) if floats
             else np.empty((m, 0, 8 * form.slots.shape[-1]), np.uint8))
    if len(floats) == len(block) and not form.lead:   # the cells are the rows
        row = cells.reshape(m, -1)
    else:
        parts = iter(cells.swapaxes(0, 1))
        lead = np.broadcast_to(np.frombuffer(form.lead, np.uint8),
                               (m, len(form.lead)))
        row = np.concatenate([lead] + [
            next(parts) if s is None else s.take(col, axis=0)
            for col, s in zip(block, slots)], axis=1)
    row[:, -len(form.sep):] = np.frombuffer(
        form.end.ljust(len(form.sep), _FILL), np.uint8)
    return row.tobytes().translate(None, _FILL)


# a table as the writer renders it: per column, (cells, slots), a float
# column as its float array and None, a *_label column as the index of each
# cell's label and the _label_slots of its distinct labels
_SlotTable = List[Tuple[np.ndarray, Optional[np.ndarray]]]


def _is_label(s: object) -> bool:
    return isinstance(s, str) and s != ""


def _slot_table(path: Path, header: Sequence[str], columns: Sequence,
                form: _Format, first_row: int = 0) -> _SlotTable:
    """The columns of a table as form renders them, checked against the
    schema as each is laid out: every name ends in a known unit suffix, all
    columns have the same length, *_label cells are nonempty strings (each
    distinct label checked once) and every other cell is finite. Raises
    SchemaError, prefixed with path, on the first violation; the columns
    hold the rows after the first first_row of the table."""
    if not header or len(columns) != len(header):
        raise SchemaError(f"{path}: {len(header)} column names for "
                          f"{len(columns)} columns")
    n = len(columns[0])
    table = []
    for name, col in zip(header, columns):
        if not name.endswith(UNIT_SUFFIXES):
            raise SchemaError(f"{path}: column '{name}' lacks a known unit "
                              f"suffix {UNIT_SUFFIXES}")
        if len(col) != n:
            raise SchemaError(f"{path}: column '{name}' has {len(col)} "
                              f"cells, expected {n}")
        if name.endswith("_label"):
            try:
                labels = list(dict.fromkeys(col))
            except TypeError:   # a cell that cannot be hashed is no label
                labels = [None]
            if all(map(_is_label, labels)):
                index = {s: i for i, s in enumerate(labels)}
                table.append((np.array([index[s] for s in col], np.intp),
                              _label_slots(labels, form)))
                continue
            bad = next(i for i, s in enumerate(col) if not _is_label(s))
            what = "empty label"
        else:
            cells = np.asarray(col, dtype=float)
            finite = np.isfinite(cells)
            if finite.all():
                table.append((cells, None))
                continue
            bad, what = int(np.argmin(finite)), "non-finite cell"
        raise SchemaError(f"{path}: row {first_row + bad + 1}: {what} "
                          f"in '{name}'")
    return table


def _block_rows(form: _Format, table: _SlotTable) -> int:
    """Rows in a block of the table: as many as fill _BLOCK_BYTES with
    slots, at least one. A row's slots are the lead, a float cell's for
    each float column and each *_label column's own."""
    width = len(form.lead) + sum(8 * form.slots.shape[-1] if s is None
                                 else s.shape[1] for _, s in table)
    return max(1, _BLOCK_BYTES // width)


def _row_blocks(form: _Format, table: _SlotTable) -> Iterator[bytes]:
    """The bytes of a table's rows, _slot_rows of each block of
    _block_rows rows in turn, so only one block of cells and text exists
    at once."""
    step = _block_rows(form, table)
    cells, slots = zip(*table)
    for start in range(0, len(cells[0]), step):
        yield _slot_rows(form, slots, [c[start:start + step] for c in cells])


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """A binary file written under a temporary name in path's directory
    and moved onto path when the block ends; on an exception it is removed,
    so a failed write leaves no truncated file at path. Writers hand it
    UTF-8 bytes with LF line ends, the same on every platform. The name is
    the writer's own (process and thread), so two writers of one path
    never share a temporary file."""
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def _write_rows(path: Path, header: Sequence[str], columns: Sequence,
                fmt: str) -> None:
    """Write a table from its columns as CSV (cells formatted "%.12g") or
    as JSON ({"columns", "rows"}, as json.dump with indent=2 and sorted keys
    lays it out, float cells as repr). The schema is checked before the
    file is opened.

    columns are float arrays, or lists of str for *_label columns. The rows
    are rendered by _row_blocks a block at a time, as bytes, and streamed to
    the file, so neither the table's cells nor its text are held whole, and
    a block's memory is bounded by its slot bytes. Both formats
    render a block by numpy in slots (_slot_rows): each float cell from its
    correctly rounded 12-digit significand (CSV) or its shortest round-trip
    digits (JSON), each label from its distinct labels' slots. Python
    renders only the float cells that _significand_12g or _significand_repr
    flags: outside [1e-4, 1e11) or [1e-4, 1e16) in magnitude, or where the
    numpy digits could be wrong. The file appears at path only once it is
    complete.
    """
    form = FORMATS[fmt]
    blocks = _row_blocks(form, _slot_table(path, header, columns, form))
    if form is _CSV:
        with _replacing(path) as fh:
            fh.write(_csv_line(header).encode())
            fh.writelines(blocks)
        return
    # json.dump(indent=2) puts "rows" last (sorted keys)
    head, tail = json.dumps({"columns": list(header), "rows": []}, indent=2,
                            sort_keys=True).encode().rsplit(b"[]", 1)
    with _replacing(path) as fh:
        fh.write(head + b"[")
        first = next(blocks, None)
        if first is not None:
            fh.write(memoryview(first)[1:])
            fh.writelines(blocks)
            fh.write(b"\n  ")
        fh.write(b"]" + tail + b"\n")


def validate_csv_schema(path: Union[str, Path]) -> None:
    """Check a CSV file on disk against the contract of emitted tables:
    the checks only a file can fail (a header row, rows of the header's
    length, numbers that parse outside *_label columns), then the writer's
    own _slot_table pass on the columns read. Rows count from the first
    after the header. Raises SchemaError on the first violation.

    The rows are read and checked _CHECK_ROWS at a time, so memory stays
    that many rows', however long the file."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise SchemaError(f"{path}: missing header row")
            for start in count(0, _CHECK_ROWS):
                rows = list(islice(reader, _CHECK_ROWS))
                _check_rows(path, header, rows, start)
                if len(rows) < _CHECK_ROWS:
                    return
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # such as a field past csv's size limit
        raise SchemaError(f"{path}: CSV error: {exc}") from exc


def _check_rows(path: Path, header: List[str], rows: List[List[str]],
                start: int) -> None:
    """validate_csv_schema's checks of the rows after the first start."""
    for i, row in enumerate(rows, start=start + 1):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {i}: expected {len(header)} "
                              f"cells, got {len(row)}")
    columns = []
    for j, name in enumerate(header):
        col = [row[j] for row in rows]
        if not name.endswith("_label"):
            for i, cell in enumerate(col):
                try:
                    col[i] = float(cell)
                except ValueError:
                    raise SchemaError(f"{path}: row {start + i + 1}: "
                                      f"non-numeric cell {cell!r} in "
                                      f"'{name}'") from None
        columns.append(col)
    _slot_table(path, header, columns, _CSV, start)

