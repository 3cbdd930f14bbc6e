r"""The shipped Belsley dataset, strict CSV ingestion, and a portable RNG.

The Belsley data are Belsley's near-constant columns X2 and X3 with the
dependent y; X4 is the extra independent draw (normal, mean 4, variance
16), shipped as printed because its original seed is unrecoverable; X1 is
the explicit constant. They ship once, as ``data/belsley.csv``, the file
:func:`belsley` reads.

The CSV dialect is deliberately narrow: UTF-8, comma separated, header of
unique names, every other cell a finite ASCII decimal numeral
``[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?``, quoted or not.
``load_csv`` hands each chunk of plain numerals to NumPy's C parser and
reads from the first other chunk on with the ``csv`` module row by row, so
a malformed file raises the same error, with the same row and column,
wherever its fault lies. Canonical serialization uses the shortest
round-trip decimal for each float64, so load -> serialize -> load is
bit-exact.

Random normal columns come from SplitMix64 uniforms pushed through
Box-Muller with a fixed consumption order, making every draw reproducible
from the seed alone (no dependence on a vendor RNG) wherever the C
library's ``log``, ``cos`` and ``sin`` give the same bits: no standard
requires them to be correctly rounded, and C libraries differ.
SplitMix64 is counter-based: its j-th state is ``seed + j*gamma mod 2**64``,
so the draws of many seeds are computed at once in ``uint64`` arrays, bit
for bit equal to stepping the scalar :class:`SplitMix64` one call at a time.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Iterable

import numpy as np

from .errors import DuplicateHeader, NonFiniteValue, ParseError, RaggedRow
from .ols import DataMatrix


def belsley() -> DataMatrix:
    """The 20x5 Belsley dataset (y, X1, X2, X3, X4); X1 is all ones.

    Read from the CSV shipped with the package, :func:`belsley_csv_path`.
    """
    return load_csv(belsley_csv_path())


def belsley_csv_path() -> Path:
    """Path of the golden CSV shipped with the package."""
    return Path(__file__).parent / "data" / "belsley.csv"


#: Body bytes read per chunk; each chunk is extended to the next newline.
_CHUNK_BYTES = 1 << 20
#: The bytes of a numeral: among strings of these, ``float()`` accepts
#: exactly the grammar in the module docstring.
_NUMERAL_BYTES = b"0123456789eE+-."
#: The only bytes a chunk may hold, once CRLF is LF, to go to NumPy's C parser.
_FAST_BYTES = _NUMERAL_BYTES + b",\n"
#: Bytes compared at a time when counting newlines, which bounds the
#: comparison's temporary whatever the size of the chunk.
_COUNT_BYTES = 1 << 16


def load_csv(source: str | Path | IO) -> DataMatrix:
    """Parse a strict numeric CSV into a DataMatrix.

    ``source`` may be a path or an open text/binary stream; text is
    encoded to UTF-8 and read like bytes. A leading UTF-8 byte-order mark
    is dropped. The first row is the header; every further cell must be a
    finite ASCII decimal numeral (the grammar in the module docstring),
    quoted or not. Rows may end in LF, CRLF or CR. Blank lines at the end
    are ignored; a blank line followed by more data is a
    :class:`ParseError`.

    The body's lines are counted first, to size the result array. Then
    the body is read in chunks of about ``_CHUNK_BYTES``, each extended to
    the next newline. A chunk of unquoted numerals with LF or CRLF line
    ends and no blank line goes to NumPy's C parser; the first chunk that
    is anything else, or that the C parser refuses, and all that follows
    it, go to the row-wise ``csv`` parser, which raises the error with its
    location or accepts what only it handles (quoted cells, CR line ends,
    trailing blank lines). Both parsers convert a numeral as ``float()``
    does, so the values do not depend on which one read them.

    Raises
    ------
    DuplicateHeader, RaggedRow, NonFiniteValue, ParseError
        With the 1-based row (and column) of the offense where it applies.
    """
    if isinstance(source, (str, Path)):
        # binary: byte offsets are what the chunks and the header seek by
        with open(source, "rb") as handle:
            return _parse_csv(handle)
    data = source.read()
    if isinstance(data, str):
        data = data.encode("utf-8")
    return _parse_csv(io.BytesIO(data))


def _parse_csv(handle: IO[bytes]) -> DataMatrix:
    start = len(codecs.BOM_UTF8) if handle.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8 else 0
    handle.seek(start)
    header, header_bytes = _read_header(handle)
    if not header or any(name == "" for name in header):
        raise ParseError("header has an empty column name", row=1)
    if len(set(header)) != len(header):
        raise DuplicateHeader("duplicate column name in header", row=1)
    handle.seek(start + header_bytes)
    values = _read_body(handle, len(header))
    if not len(values):
        raise ParseError("no data rows after the header")
    values.setflags(write=False)  # nothing else holds it, so DataMatrix need not copy it
    return DataMatrix(tuple(header), values)


def _read_header(handle: IO[bytes]) -> tuple[list[str], int]:
    """The first CSV record and the number of bytes it spans.

    The decoder reads ahead, so the caller seeks past the header by the
    returned count; with ``newline=""`` the decoded lines re-encode to
    exactly the bytes they came from.
    """
    text = io.TextIOWrapper(handle, encoding="utf-8", newline="")
    lines: list[str] = []

    def next_line() -> str:
        lines.append(text.readline())
        return lines[-1]

    try:
        header = next(csv.reader(iter(next_line, "")))
    except StopIteration:
        raise ParseError("empty input: no header row") from None
    finally:
        text.detach()
    return header, len("".join(lines).encode("utf-8"))


def _read_body(handle: IO[bytes], width: int) -> np.ndarray:
    """Every data row after the header as an (n, width) array.

    A first pass counts the body's lines; then the result array is
    allocated once, and the rows of each fast chunk are copied into it.
    A load so holds one copy of the matrix and one chunk of the body,
    and its largest allocation, the result, does not depend on how the
    rows fall into chunks.
    """
    values = np.empty((_count_lines(handle), width))
    filled = 0
    while chunk := handle.read(_CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += handle.readline()
        block = _fast_block(chunk, width)
        if block is None:
            handle.seek(-len(chunk), io.SEEK_CUR)
            return np.concatenate([values[:filled], _parse_rows(handle, width, filled + 2)])
        values[filled:filled + len(block)] = block
        filled += len(block)
    return values[:filled]


def _count_lines(handle: IO[bytes]) -> int:
    """Lines from the handle's position to the end, an unterminated last one
    included; the position is left where it was.

    Every row the C parser reads is one of these lines, so the count bounds
    the rows of the fast chunks.
    """
    start = handle.tell()
    lines, last = 0, b"\n"
    while piece := handle.read(_CHUNK_BYTES):
        lines += _newlines(piece)
        last = piece[-1:]
    handle.seek(start)
    return lines + (last != b"\n")


def _newlines(data: bytes) -> int:
    """The number of ``b"\\n"`` bytes in ``data``, compared by NumPy ``_COUNT_BYTES`` at a time.

    Every slice is compared into one buffer. A fresh temporary per slice
    churns the heap and so changes whether the large allocations after it
    reuse resident pages or fault in new ones: on the diagnose-wide bench
    input it cut the page faults of an op with its probe samples from
    about 6,000 to 3,200, and the speed probe then read up to 30% fast.
    """
    view = np.frombuffer(data, np.uint8)
    hits = np.empty(min(len(view), _COUNT_BYTES), bool)
    count = 0
    for at in range(0, len(view), _COUNT_BYTES):
        part = view[at:at + _COUNT_BYTES]
        count += int(np.count_nonzero(np.equal(part, ord("\n"), out=hits[:len(part)])))
    return count


def _fast_block(chunk: bytes, width: int) -> np.ndarray | None:
    """The rows of ``chunk`` from NumPy's C parser, or None to read it row-wise.

    The C parser skips blank lines, so a chunk held one exactly when it
    gave fewer rows than it has lines. A chunk that starts with one is
    sent row-wise before parsing: if it is all blank lines, ``np.loadtxt``
    warns that the input held no data.
    """
    if b"\r" in chunk:  # CRLF line ends; a bare CR stays and sends the chunk row-wise
        chunk = chunk.replace(b"\r\n", b"\n")
    if chunk.translate(None, _FAST_BYTES) or chunk.startswith(b"\n"):
        return None
    try:
        block = np.loadtxt(io.BytesIO(chunk), delimiter=",", ndmin=2)
    except ValueError:
        return None
    lines = _newlines(chunk) + (not chunk.endswith(b"\n"))
    if len(block) < lines or block.shape[1] != width or not np.isfinite(block).all():
        return None
    return block


def _parse_rows(handle: IO[bytes], width: int, first_row: int) -> np.ndarray:
    """The row-wise parser: every row from the handle's position to the end.

    ``first_row`` is the 1-based CSV row number of the first row read,
    which every error carries.
    """
    with io.TextIOWrapper(handle, encoding="utf-8", newline="") as text:
        reader = csv.reader(text)
        values: list[list[float]] = []
        for rownum, cells in enumerate(reader, start=first_row):
            if len(cells) != width:
                if not cells:  # a blank line: only more blank lines may follow
                    if any(reader):
                        raise ParseError("blank line before the end of the data", row=rownum)
                    break
                raise RaggedRow(f"expected {width} cells, got {len(cells)}", row=rownum)
            values.append([_numeral(cell, rownum, col) for col, cell in enumerate(cells, 1)])
    return np.array(values, dtype=float).reshape(-1, width)


def _numeral(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"not a number: {cell!r}", row=row, col=col) from None
    if not math.isfinite(value):
        raise NonFiniteValue(f"non-finite value: {cell!r}", row=row, col=col)
    if cell.encode().translate(None, _NUMERAL_BYTES):
        # float() also takes '_' separators, surrounding whitespace and non-ASCII digits
        raise ParseError(f"not a number: {cell!r}", row=row, col=col)
    return value


def to_csv(data: DataMatrix) -> str:
    """Canonical serialization: header plus shortest round-trip decimals.

    A name is quoted only when it needs it (a comma, a quote, CR or LF),
    as :func:`load_csv` reads it back.
    """
    return _csv_text([data.names, *data.values.tolist()])


def _csv_text(rows: Iterable[Iterable]) -> str:
    """``rows`` as CSV text with LF line ends; a float is written as its shortest repr.

    A cell is quoted when it holds a comma, a quote, CR or LF, on every
    Python. Before 3.13 the ``csv`` writer counts as a line break only the
    characters of its line terminator, so under LF it leaves a lone CR
    bare, which :func:`load_csv` reads as a line end. So the writer ends
    each line in CRLF, and that CRLF is then cut to LF.
    """
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def save_csv(data: DataMatrix, path: str | Path) -> None:
    Path(path).write_text(to_csv(data), encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Seeded normal generator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _check_integers(**fields) -> None:
    """``ValueError`` naming the first of ``fields`` that is no int or NumPy integer.

    A float is refused rather than truncated: a seed of 1.5 would run seed 1.
    So is a bool, which Python counts as an int but NumPy does not take as a size.
    """
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one i.i.d. normal column; ``n`` and ``seed`` are integers."""

    n: int
    mean: float
    variance: float
    seed: int

    def __post_init__(self):
        _check_integers(n=self.n, seed=self.seed)
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not 0 < self.variance < math.inf:
            raise ValueError(f"variance must be positive and finite, got {self.variance!r}")
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood): 64-bit mix with golden-gamma steps.

    Chosen because the whole algorithm fits in a dozen lines and is
    trivially portable, so a seed means the same stream everywhere. This
    scalar form is the reference that the array kernel below reproduces.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform on (0, 1] from the top 53 bits (log-safe)."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic child seed: the ``index``-th output of the master stream.

    Computed directly as mix(master + (index+1)*gamma), so deriving child
    ``i`` never depends on having derived children ``0..i-1``. Both
    arguments are integers; anything else raises ``ValueError``.
    """
    _check_integers(master_seed=master_seed, index=index)
    return SplitMix64((int(master_seed) + int(index) * _GOLDEN) & _MASK64).next_u64()


def generate_normal_column(spec: GeneratorSpec) -> np.ndarray:
    """Draw n i.i.d. values from Normal(mean, variance), reproducibly.

    Box-Muller with fixed consumption order: uniforms are drawn in pairs
    (u1, u2), each pair yields the cosine variate then the sine variate,
    and an odd n discards the final sine variate.
    """
    return _normal_columns(np.array([spec.seed], np.uint64), spec.n, spec.mean, spec.variance)[0]


# Array form. uint64 arithmetic wraps mod 2**64, which is SplitMix64's own
# arithmetic; ``errstate`` only silences NumPy's overflow warning on scalars.


def _u64(value) -> np.ndarray:
    """A uint64 array as it is; a Python int reduced mod 2**64 like the scalar API."""
    return value if isinstance(value, np.ndarray) else np.uint64(int(value) & _MASK64)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array of states."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _derive_seeds(master_seeds, indices) -> np.ndarray:
    """:func:`derive_seed` elementwise, broadcasting ``master_seeds`` against ``indices``."""
    with np.errstate(over="ignore"):
        return _mix(_u64(master_seeds) + (_u64(indices) + np.uint64(1)) * np.uint64(_GOLDEN))


def _normal_columns(seeds: np.ndarray, n: int, mean: float, variance: float) -> np.ndarray:
    """``generate_normal_column`` for every seed of a uint64 array, as rows of an (S, n) array.

    Row s is bit-equal to the scalar stream of ``seeds[s]``: the states
    ``seed + j*gamma`` for j = 1..2*ceil(n/2) are mixed, u1 and u2 are the
    odd and even steps, and every float operation is the scalar one in the
    same order. The bits rest on the C library's ``log``, reached through
    NumPy's scalar float64 loop, which NumPy runs when the operands partly
    overlap (:func:`_radius`), and on its ``cos`` and ``sin``
    (:func:`_cos_sin`), both shown on NumPy 2.4.6 with glibc on x86-64. No
    standard requires these to be correctly rounded; ``np.sqrt`` is, as is
    ``math.sqrt``. The pair is scaled by ``sd*radius`` in NumPy, one
    rounding per variate as in ``(sd*radius)*cos(theta)``, which gives the
    two variates interleaved in their draw order.
    """
    pairs = (n + 1) // 2
    # row 0 the odd steps (u1), row 1 the even ones (u2), each contiguous
    steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64).reshape(pairs, 2).T
    with np.errstate(over="ignore"):
        states = seeds[:, None] + steps[:, None, :] * np.uint64(_GOLDEN)
    # (z >> 11) + 1 <= 2**53 converts to float64 exactly
    u1, u2 = ((_mix(states) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    variates = (math.sqrt(variance) * _radius(u1))[..., None] * _cos_sin(2.0 * math.pi * u2)
    return mean + variates.reshape(len(seeds), 2 * pairs)[:, :n]


def _radius(u1: np.ndarray) -> np.ndarray:
    """``sqrt(-2*log(u1))``, ``log`` the C library's, reached through NumPy's scalar float64 loop.

    NumPy's float64 ``log`` has a SIMD loop whose bits differ from the C
    library's in the last place. That loop refuses operands that partly
    overlap, and NumPy then runs its scalar loop, which calls the C library's
    ``log`` element by element (shown on NumPy 2.4.6 with glibc on x86-64).
    So ``log`` reads the uniforms one slot above where it writes: a forward
    elementwise loop may do that, and NumPy hands it the overlapping buffer
    without a copy. A lone element does not overlap, so a trailing 1.0 makes
    every call at least two elements long.
    """
    shifted = np.empty(u1.size + 2)
    shifted[1:-1].reshape(u1.shape)[...] = u1
    shifted[-1] = 1.0
    log_u1 = np.log(shifted[1:], out=shifted[:-1])[: u1.size]
    log_u1 *= -2.0
    return np.sqrt(log_u1, out=log_u1).reshape(u1.shape)


def _cos_sin(theta: np.ndarray) -> np.ndarray:
    """``cos(theta)`` and ``sin(theta)`` side by side on a new last axis.

    NumPy's float64 ufuncs call the C library's ``cos`` and ``sin`` (shown on
    NumPy 2.4.6 with glibc on x86-64); a vector library would give other bits.
    """
    cos_sin = np.empty((*theta.shape, 2))
    np.cos(theta, out=cos_sin[..., 0])
    np.sin(theta, out=cos_sin[..., 1])
    return cos_sin
