import cmath
import hashlib
import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vifnc import (
    DataMatrix,
    GeneratorSpec,
    SplitMix64,
    belsley,
    belsley_csv_path,
    derive_seed,
    generate_normal_column,
    load_csv,
    save_csv,
    to_csv,
)
from vifnc import datasets
from vifnc.datasets import _derive_seeds, _normal_columns
from vifnc.errors import DuplicateHeader, NonFiniteValue, ParseError, RaggedRow

#: Column names that a CSV writer must quote, or must leave as they are (the leading space).
AWKWARD_NAMES = ("a\rb", "a\r\nb", "a\nb", 'a"b', "X,4", " lead")

#: The numeral grammar of the CSV contract, the oracle for the loader's byte-class rule.
NUMERAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class TestBelsley:
    def test_shape_and_names(self, belsley_data):
        assert belsley_data.n == 20
        assert belsley_data.names == ("y", "X1", "X2", "X3", "X4")

    def test_first_row(self, belsley_data):
        assert belsley_data.values[0].tolist() == [2.69385, 1.0, 0.996926, 1.00006, 8.883976]

    def test_last_row(self, belsley_data):
        assert belsley_data.values[19].tolist() == [2.69532, 1.0, 1.00469, 1.00021, 5.731981]

    def test_ones_column(self, belsley_data):
        assert np.all(belsley_data.column("X1") == 1.0)

    def test_referentially_transparent(self):
        a, b = belsley(), belsley()
        assert a.names == b.names
        assert np.array_equal(a.values, b.values)

    def test_matches_golden_csv_byte_for_byte(self, belsley_data):
        golden = belsley_csv_path().read_text(encoding="utf-8")
        assert to_csv(belsley_data) == golden

    def test_golden_csv_roundtrips_bit_identically(self, belsley_data):
        loaded = load_csv(belsley_csv_path())
        assert loaded.names == belsley_data.names
        assert np.array_equal(loaded.values, belsley_data.values)


class TestLoadCsv:
    def test_small_matrix(self):
        data = load_csv(io.StringIO("a,b\n1,2\n3,4"))
        assert data.names == ("a", "b")
        assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_binary_stream(self):
        data = load_csv(io.BytesIO(b"a,b\n1,2\n3,4\n"))
        assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_duplicate_header(self):
        with pytest.raises(DuplicateHeader):
            load_csv(io.StringIO("a,a\n1,2\n3,4"))

    def test_ragged_row_reports_location(self):
        with pytest.raises(RaggedRow) as err:
            load_csv(io.StringIO("a,b\n1,2\n3"))
        assert err.value.row == 3

    def test_every_row_short_reports_the_first(self):
        with pytest.raises(RaggedRow) as err:
            load_csv(io.StringIO("a,b,c\n1,2\n3,4\n"))
        assert err.value.row == 2

    def test_bad_numeral_reports_location(self):
        with pytest.raises(ParseError) as err:
            load_csv(io.StringIO("a,b\n1,2\n3,oops"))
        assert (err.value.row, err.value.col) == (3, 2)

    def test_nonfinite_cell(self):
        with pytest.raises(NonFiniteValue):
            load_csv(io.StringIO("a,b\n1,2\n3,nan"))
        with pytest.raises(NonFiniteValue):
            load_csv(io.StringIO("a,b\n1,inf\n3,4"))

    def test_empty_header_name_or_line(self):
        for text in ("a,,b\n1,2,3\n", "\n1,2\n"):
            with pytest.raises(ParseError, match="empty column name") as err:
                load_csv(io.StringIO(text))
            assert err.value.row == 1

    def test_empty_input(self):
        with pytest.raises(ParseError):
            load_csv(io.StringIO(""))

    def test_no_data_rows(self):
        with pytest.raises(ParseError):
            load_csv(io.StringIO("a,b\n"))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "\ufeffa,b\n1,2\n3,4\n"
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8")
        for source in (path, str(path), io.StringIO(text), io.BytesIO(text.encode("utf-8"))):
            data = load_csv(source)
            assert data.names == ("a", "b")
            assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_trailing_blank_lines_are_ignored(self):
        for text in ("a,b\n1,2\n3,4\n\n", "a,b\n1,2\n3,4\n\n\n\n", "a,b\r\n1,2\r\n3,4\r\n\r\n"):
            assert load_csv(io.StringIO(text)).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_interior_blank_line_reports_location(self):
        for text, row in (("a,b\n1,2\n\n3,4\n", 3), ("a,b\n\n1,2\n", 2), ("a,b\n1,2\n\n\n3,4", 3)):
            with pytest.raises(ParseError) as err:
                load_csv(io.StringIO(text))
            assert not isinstance(err.value, RaggedRow)
            assert "blank line" in str(err.value)
            assert err.value.row == row
            assert f"row {row}" in str(err.value)

    def test_only_blank_lines_after_header(self):
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(io.StringIO("a,b\n\n\n"))

    @pytest.mark.parametrize("cell", ["1_0", " 3 ", "\t2", "\u0661\u0662"])
    def test_cell_outside_the_numeral_grammar_reports_location(self, cell):
        # float() accepts every one of these
        text = f"a,b\n1,2\n3,{cell}\n"
        for source in (io.StringIO(text), io.BytesIO(text.encode("utf-8"))):
            with pytest.raises(ParseError) as err:
                load_csv(source)
            assert type(err.value) is ParseError
            assert (err.value.row, err.value.col) == (3, 2)
            assert str(err.value) == f"not a number: {cell!r} (row 3, column 2)"

    def test_every_short_cell_follows_the_numeral_grammar(self):
        # both parsers: a bare cell goes to NumPy's C parser, a quoted one row-wise
        for length in range(1, 6):
            for cell in map("".join, itertools.product("01eE+-.", repeat=length)):
                want = float(cell) if NUMERAL.fullmatch(cell) else None
                for text in (f"x\n{cell}\n", f'x\n"{cell}"\n'):
                    try:
                        got = load_csv(io.StringIO(text)).values[0, 0]
                    except ParseError:
                        got = None
                    assert got == want, text

    def test_quoted_cells_and_any_line_end_are_accepted(self):
        texts = ('a,b\r\n"1.5",2\r\n3,"-4e2"\r\n', 'a,b\n"1.5",2\n3,"-4e2"', "a,b\r1.5,2\r3,-4e2\r")
        for text in texts:
            assert load_csv(io.StringIO(text)).values.tolist() == [[1.5, 2.0], [3.0, -400.0]]
        assert load_csv(io.StringIO("a\n1\r2\r3\r")).values.tolist() == [[1.0], [2.0], [3.0]]

    def test_header_record_spanning_lines(self):
        data = load_csv(io.StringIO('\u00e9,"b\nc"\n1,2\n'))
        assert data.names == ("\u00e9", "b\nc")
        assert data.values.tolist() == [[1.0, 2.0]]
        with pytest.raises(ParseError) as err:
            load_csv(io.StringIO('\u00e9,"b\nc"\n1,2\n3,x\n'))
        assert (err.value.row, err.value.col) == (3, 2)


def _outcome(text):
    """What load_csv makes of ``text``: the loaded bits, or the error's identity."""
    try:
        data = load_csv(io.StringIO(text))
    except ParseError as err:
        return type(err), err.row, err.col, str(err)
    return data.names, data.values.shape, data.values.tobytes()


class TestChunkedIngestion:
    """The chunked C-parser path against the row-wise parser, on 64-byte chunks."""

    @pytest.fixture
    def fast_chunks(self, monkeypatch):
        """Shrink the chunks and count the ones NumPy's parser serves."""
        served = []
        fast_block = datasets._fast_block

        def counting(chunk, width):
            block = fast_block(chunk, width)
            served.append(block is not None)
            return block

        monkeypatch.setattr(datasets, "_CHUNK_BYTES", 64)
        monkeypatch.setattr(datasets, "_fast_block", counting)
        return served

    @staticmethod
    def row_wise(monkeypatch, text):
        with monkeypatch.context() as patch:
            patch.setattr(datasets, "_fast_block", lambda chunk, width: None)
            return _outcome(text)

    @staticmethod
    def lines(seed):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-8, 8, 3)
        data = DataMatrix(("x", "y", "z"), rng.normal(0.0, 1.0, (40, 3)) * scales)
        return to_csv(data).splitlines()

    MUTATIONS = {
        "bad cell": lambda row: [row[0], "oops", *row[2:]],
        "empty cell": lambda row: [row[0], "", *row[2:]],
        "C parser refuses": lambda row: [row[0], "1e", *row[2:]],
        "underscore": lambda row: [row[0], "1_0", *row[2:]],
        "ragged row": lambda row: row[:-1],
        "overflow": lambda row: [row[0], "1e400", *row[2:]],
        "quoted cell": lambda row: [row[0], f'"{row[1]}"', *row[2:]],
    }

    def test_clean_files_are_bit_identical(self, fast_chunks, monkeypatch):
        for seed in range(5):
            text = "\n".join(self.lines(seed)) + "\n"
            assert _outcome(text) == self.row_wise(monkeypatch, text)
        assert all(fast_chunks) and len(fast_chunks) >= 5 * 20

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_cell_mutation_in_a_later_chunk(self, mutation, fast_chunks, monkeypatch):
        for seed in range(3):
            lines = self.lines(seed)
            lines[30] = ",".join(self.MUTATIONS[mutation](lines[30].split(",")))
            text = "\n".join(lines) + "\n"
            fast_chunks.clear()
            assert _outcome(text) == self.row_wise(monkeypatch, text)
            assert fast_chunks.count(True) >= 10 and fast_chunks[-1] is False

    @pytest.mark.parametrize(
        "layout",
        ["interior blank line", "crlf blank line", "cr", "trailing blank lines", "ragged tail"],
    )
    def test_line_mutation_in_a_later_chunk(self, layout, fast_chunks, monkeypatch):
        for seed in range(3):
            lines = self.lines(seed)
            if layout == "interior blank line":
                text = "\n".join(lines[:30] + [""] + lines[30:]) + "\n"
            elif layout == "crlf blank line":
                text = "\r\n".join(lines[:30] + [""] + lines[30:]) + "\r\n"
            elif layout == "cr":
                text = "\n".join(lines[:30]) + "\n" + "\r".join(lines[30:]) + "\r"
            elif layout == "ragged tail":  # whole chunks of consistent, wrong width
                short = [line.rsplit(",", 1)[0] for line in lines[30:]]
                text = "\n".join(lines[:30] + short) + "\n"
            else:
                text = "\n".join(lines) + "\n\n\n"
            fast_chunks.clear()
            assert _outcome(text) == self.row_wise(monkeypatch, text)
            assert fast_chunks.count(True) >= 10 and fast_chunks[-1] is False

    def test_crlf_line_ends_take_the_fast_path(self, fast_chunks, monkeypatch):
        for seed in range(3):
            lines = self.lines(seed)
            mixed = "\n".join(lines[:30]) + "\n" + "\r\n".join(lines[30:]) + "\r\n"
            for text in (mixed, "\r\n".join(lines) + "\r\n", "\r\n".join(lines)):
                assert _outcome(text) == self.row_wise(monkeypatch, text)
                assert _outcome(text) == _outcome("\n".join(lines))
        assert all(fast_chunks)

    def test_blank_line_at_every_boundary(self, fast_chunks, monkeypatch):
        lines = self.lines(7)[:12]
        for at in range(2, len(lines)):
            text = "\n".join(lines[:at] + [""] + lines[at:]) + "\n"
            assert _outcome(text) == self.row_wise(monkeypatch, text)
            assert _outcome(text)[1:3] == (at + 1, None)

    def test_blank_line_straddling_a_chunk_boundary(self, fast_chunks):
        # the first 64-byte read ends on the first newline of the blank line
        text = "a\n" + "1" * 63 + "\n" + "\n" + "2\n"
        with pytest.raises(ParseError, match="blank line") as err:
            load_csv(io.StringIO(text))
        assert err.value.row == 3
        assert fast_chunks == [True, False]

    def test_newlines_counted_across_slices(self, fast_chunks, monkeypatch):
        # slices of 7 bytes split rows, blank lines and CRLF pairs anywhere
        monkeypatch.setattr(datasets, "_COUNT_BYTES", 7)
        lines = self.lines(5)
        for text in (
            "\n".join(lines) + "\n",
            "\n".join(lines),
            "\r\n".join(lines[:25] + [""] + lines[25:]) + "\r\n",
            "\n".join(lines) + "\n\n\n",
        ):
            raw = text.encode()
            assert datasets._newlines(raw) == raw.count(b"\n")
            assert _outcome(text) == self.row_wise(monkeypatch, text)
        assert datasets._newlines(b"") == 0

    def test_cells_drawn_from_the_fast_bytes(self, fast_chunks, monkeypatch):
        # every cell the C parser could see: both parsers must agree on each
        tokens = ["", "0", "7", "12", ".", "e", "E", "+", "-", "5", "e-3", "E+2", "1e400"]
        rng = np.random.default_rng(11)
        lines = self.lines(3)
        for _ in range(300):
            cell = "".join(rng.choice(tokens, int(rng.integers(1, 5))))
            row = int(rng.integers(1, len(lines)))
            mutated = lines[:row] + [f"{cell},{lines[row].split(',', 1)[1]}"] + lines[row + 1:]
            text = "\n".join(mutated) + "\n"
            assert _outcome(text) == self.row_wise(monkeypatch, text), cell
        assert any(fast_chunks) and not all(fast_chunks)

    def test_rows_are_copied_into_one_array(self, monkeypatch, tmp_path):
        # a load holds one copy of the matrix and one chunk of the body: the line
        # count reads chunk by chunk, each chunk's rows go into the presized result
        # (never gathered and concatenated), and DataMatrix keeps that result
        monkeypatch.setattr(datasets, "_CHUNK_BYTES", 1 << 16)
        rng = np.random.default_rng(3)
        matrix = DataMatrix(tuple("abcdefghi"), rng.normal(0.0, 1.0, (50_000, 9)))
        path = tmp_path / "tall.csv"
        path.write_text(to_csv(matrix))
        tracemalloc.start()
        try:
            values = load_csv(path).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.tobytes() == matrix.values.tobytes()
        assert peak <= 1.25 * values.nbytes


class TestRoundTrip:
    def test_seeded_random_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, 5))
            scale = 10.0 ** rng.integers(-12, 12)
            data = DataMatrix(
                tuple(f"c{i}" for i in range(k)), rng.normal(0.0, scale, (n, k))
            )
            again = load_csv(io.StringIO(to_csv(data)))
            assert again.names == data.names
            assert np.array_equal(again.values, data.values)

    def test_names_that_need_quotes_roundtrip(self):
        # names that load_csv accepts quoted: a comma, a quote, a line break
        names = ("X,4", 'a"b', "line\nbreak")
        values = np.array([[1.0, 0.1, -2.5e-300], [3.0, 1e300, 1 / 3]])
        loaded = load_csv(io.StringIO(to_csv(DataMatrix(names, values))))
        assert loaded.names == names
        assert loaded.values.view(np.uint64).tolist() == values.view(np.uint64).tolist()

    def test_names_with_a_line_break_a_quote_or_a_comma_roundtrip(self, tmp_path):
        # a lone CR is quoted on every Python, not only from 3.13 on, or the loader
        # reads it as a line end
        rng = np.random.default_rng(6)
        data = DataMatrix(AWKWARD_NAMES, rng.normal(size=(4, len(AWKWARD_NAMES))))
        save_csv(data, tmp_path / "awkward.csv")
        for loaded in (load_csv(io.StringIO(to_csv(data))), load_csv(tmp_path / "awkward.csv")):
            assert loaded.names == AWKWARD_NAMES
            assert loaded.values.tobytes() == data.values.tobytes()

    @settings(max_examples=60)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=2,
            max_size=8,
        )
    )
    def test_any_finite_floats_roundtrip(self, values):
        data = DataMatrix(("v",), np.asarray(values)[:, None])
        again = load_csv(io.StringIO(to_csv(data)))
        assert np.array_equal(again.values, data.values)


class TestGenerator:
    def test_deterministic(self):
        spec = GeneratorSpec(n=20, mean=4.0, variance=16.0, seed=987654321)
        assert np.array_equal(generate_normal_column(spec), generate_normal_column(spec))

    def test_law_of_large_numbers(self):
        spec = GeneratorSpec(n=100_000, mean=4.0, variance=16.0, seed=20240515)
        draws = generate_normal_column(spec)
        assert abs(draws.mean() - 4.0) < 0.1
        assert abs(draws.var(ddof=1) - 16.0) < 0.5

    def test_two_draws_finite(self):
        draws = generate_normal_column(GeneratorSpec(n=2, mean=0.0, variance=1.0, seed=1))
        assert draws.shape == (2,)
        assert np.all(np.isfinite(draws))

    def test_odd_length_prefix_of_even(self):
        even = generate_normal_column(GeneratorSpec(n=10, mean=0.0, variance=1.0, seed=5))
        odd = generate_normal_column(GeneratorSpec(n=9, mean=0.0, variance=1.0, seed=5))
        assert np.array_equal(odd, even[:9])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=1, mean=0.0, variance=1.0, seed=0)
        with pytest.raises(ValueError):
            GeneratorSpec(n=5, mean=0.0, variance=0.0, seed=0)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_nonfinite_mean(self, mean):
        with pytest.raises(ValueError, match="mean"):
            GeneratorSpec(n=5, mean=mean, variance=1.0, seed=0)

    @pytest.mark.parametrize("variance", [math.nan, math.inf])
    def test_spec_rejects_nonfinite_variance(self, variance):
        with pytest.raises(ValueError, match="variance"):
            GeneratorSpec(n=5, mean=0.0, variance=variance, seed=0)

    @pytest.mark.parametrize(
        "field, value", [("n", 2.5), ("n", 4.0), ("seed", 1.5), ("seed", "7"), ("seed", True)]
    )
    def test_spec_rejects_non_integer_size_and_seed(self, field, value):
        # n = 2.5 failed deep in the generator, seed = 1.5 ran seed 1
        fields = {"n": 4, "mean": 0.0, "variance": 1.0, "seed": 7, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            GeneratorSpec(**fields)

    def test_spec_accepts_numpy_integers(self):
        plain = generate_normal_column(GeneratorSpec(n=4, mean=0.0, variance=1.0, seed=7))
        spec = GeneratorSpec(n=np.int32(4), mean=0.0, variance=1.0, seed=np.uint64(7))
        numpy = generate_normal_column(spec)
        assert np.array_equal(plain, numpy)

    def test_seed_wraps_to_64_bits(self):
        small = GeneratorSpec(n=4, mean=0.0, variance=1.0, seed=7)
        wrapped = GeneratorSpec(n=4, mean=0.0, variance=1.0, seed=7 + 2**64)
        assert np.array_equal(generate_normal_column(small), generate_normal_column(wrapped))


class TestSplitMix:
    def test_stream_is_deterministic(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_outputs_are_64_bit(self):
        rng = SplitMix64(999)
        for _ in range(100):
            value = rng.next_u64()
            assert 0 <= value < 2**64

    def test_uniform_in_half_open_interval(self):
        rng = SplitMix64(4)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 < u <= 1.0 for u in draws)

    @pytest.mark.parametrize("args, field", [((1.5, 0), "master_seed"), ((1, 0.0), "index")])
    def test_derive_seed_rejects_non_integers(self, args, field):
        # derive_seed(1.5, 0) used to equal derive_seed(1, 0)
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            derive_seed(*args)
        assert derive_seed(np.uint64(1), np.int64(0)) == derive_seed(1, 0)

    def test_derive_seed_order_independent(self):
        direct = derive_seed(42, 5)
        assert direct == derive_seed(42, 5)
        # deriving child 5 does not require visiting children 0..4
        stream = SplitMix64(42)
        outputs = [stream.next_u64() for _ in range(6)]
        assert direct == outputs[5]


# Seed->bits contract: SHA-256 of the little-endian float64 bytes of
# generate_normal_column for fixed (n, mean, variance, seed). The values
# were taken from the scalar SplitMix64/Box-Muller loop the array kernel
# replaced; any change to a single output bit fails here.
GENERATOR_GOLDENS = [
    ((20, 4.0, 16.0, 7), "e2dbc3f65508cebe38b1f3b9c3fed8e17a3c5c13221997085b57e1686e1556be"),
    ((1001, 0.0, 1.0, 2**64 - 1), "90707af5bf59f7d192ea8cc960572d37110390c56dfba8b82c83c6c29da93478"),
    ((3, -2.5, 0.25, 0), "7dbc06bc8dfbcdb278a60f3794345acc02dc1457e683051c534f56e9b4a697f9"),
]


@pytest.mark.parametrize("args, digest", GENERATOR_GOLDENS)
def test_generator_golden(args, digest):
    column = generate_normal_column(GeneratorSpec(*args))
    assert hashlib.sha256(column.astype("<f8").tobytes()).hexdigest() == digest


def box_muller(seed, n, mean, variance):
    """The scalar stream: uniforms in pairs, cosine variate then sine variate."""
    rng = SplitMix64(seed)
    sd = math.sqrt(variance)
    out = []
    while len(out) < n:
        u1 = rng.uniform()
        u2 = rng.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out += [mean + sd * radius * math.cos(theta), mean + sd * radius * math.sin(theta)]
    return out[:n]


def uniform_sweep():
    """Uniforms in (0, 1]: every power of two down to 2**-53, the quadrant edges
    k/4 and 1..4 ulps either side of them, and 10,000 SplitMix64 uniforms."""
    u = [2.0**-k for k in range(54)]
    for k in (1, 2, 3):
        below = above = k / 4
        u.append(k / 4)
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            u += [below, above]
    rng = SplitMix64(20_260_101)
    return np.array(u + [rng.uniform() for _ in range(10_000)])


# The generator takes its bits from the C library's log, cos and sin: log
# through NumPy's scalar float64 loop, which NumPy runs when the operands
# partly overlap, and cos and sin through NumPy's float64 ufuncs. These pins
# read each stage as the generator calls it against the scalar calls it
# stands for, so a NumPy build that sends float64 cos/sin to a vector
# library, or that runs its vector log on overlapping operands, fails here by
# name, before any digest does.
def test_trig_stage_is_the_c_library_cos_and_sin():
    theta = 2.0 * math.pi * uniform_sweep()
    expected = [cmath.rect(1.0, t) for t in theta.tolist()]
    # 2-D as the generator's (seeds, pairs) angles, and 1-D
    for angles in (theta, theta[:10_000].reshape(100, 100)):
        got = datasets._cos_sin(angles)
        assert got.shape == (*angles.shape, 2)
        assert got.reshape(-1, 2).tolist() == [[z.real, z.imag] for z in expected[: angles.size]]


def scalar_radius(u):
    return [math.sqrt(-2.0 * math.log(x)) for x in np.asarray(u).reshape(-1).tolist()]


def test_log_stage_is_the_c_library_log():
    u = uniform_sweep()
    expected = scalar_radius(u)
    assert datasets._radius(u).tolist() == expected
    assert datasets._radius(u[:10_000].reshape(100, 100)).reshape(-1).tolist() == expected[:10_000]


def test_log_stage_takes_lone_uniforms_where_vector_log_differs():
    # a one-element call cannot overlap itself, so the stage pads it; on a
    # platform where np.log equals math.log everywhere this checks nothing
    u = 1.0 - np.random.default_rng(1).random(200_000)  # in (0, 1]
    differ = u[np.log(u) != [math.log(x) for x in u.tolist()]]
    for x in differ[:200]:
        assert datasets._radius(np.array([x])).tolist() == scalar_radius([x])


@pytest.mark.parametrize("size", [2, 3, 8191, 8192, 8193])
def test_log_stage_at_sizes_around_the_ufunc_buffer(size):
    rng = SplitMix64(size)
    u = np.array([rng.uniform() for _ in range(size)])
    assert datasets._radius(u).tolist() == scalar_radius(u)


def test_log_stage_reads_a_strided_input_and_leaves_it_unchanged():
    u = uniform_sweep()[:10_000].reshape(100, 100)
    before = u.copy()
    for view in (u[:, ::3], u.T, u[::-1, 1::2]):
        got = datasets._radius(view)
        assert got.shape == view.shape
        assert got.reshape(-1).tolist() == scalar_radius(view)
    assert np.array_equal(u, before)


def test_two_draws_through_the_public_api_match_the_scalar_stream():
    # n = 2 is one pair, so each call takes log of a single uniform
    for i in range(2_000):
        seed = derive_seed(2, i)
        got = generate_normal_column(GeneratorSpec(n=2, mean=0.0, variance=1.0, seed=seed))
        assert got.tolist() == box_muller(seed, 2, 0.0, 1.0)


EDGE_SEEDS = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 123456789]


# sd = sqrt(variance) is not a power of two in the last two cases, so a
# reassociated (sd * radius) * trig shows in the last bit
@pytest.mark.parametrize("n", [2, 3, 7, 20, 101])
@pytest.mark.parametrize(
    "mean, variance", [(0.0, 1.0), (4.0, 16.0), (-2.5, 4e-6), (0.0, 3.0), (0.7, 0.3)]
)
def test_array_kernel_matches_scalar_stream(n, mean, variance):
    seeds = EDGE_SEEDS + [derive_seed(n, i) for i in range(30)]
    got = _normal_columns(np.array(seeds, dtype=np.uint64), n, mean, variance)
    assert got.shape == (len(seeds), n)
    for row, seed in zip(got, seeds):
        assert row.tolist() == box_muller(seed, n, mean, variance)


@pytest.mark.parametrize("master", [0, 7, -1, -(2**70) + 3, 2**64 - 1, 2**64, 2**64 + 5, 2**80])
def test_array_seed_derivation_matches_derive_seed(master):
    indices = np.arange(40, dtype=np.uint64)
    children = _derive_seeds(master, indices)
    assert children.dtype == np.uint64
    assert children.tolist() == [derive_seed(master, i) for i in range(40)]
    # second level: a stack of masters against one index, as Monte Carlo uses it
    assert _derive_seeds(children, 2).tolist() == [derive_seed(int(c), 2) for c in children]
