import io
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import SparseTensor, ingest
from uctensor.errors import (
    DuplicateRecordError,
    ParseError,
    RecordError,
    UnknownIdError,
)
from uctensor.ingest import (
    IdMap,
    Schema,
    decode_text,
    idmap_from_dict,
    parse_ratings,
    read_idmap,
    write_idmap,
    write_ratings,
)


def parse(text, schema=Schema(), dedupe=None):
    return parse_ratings(io.StringIO(text), schema, dedupe)


class TestParseRatings:
    def test_basic_file(self):
        tensor, idmap = parse("u1,p1,4\nu1,p2,5\nu2,p1,3\n")
        assert tensor.extents == (2, 2)
        assert tensor.entries == {(1, 1): 4.0, (1, 2): 5.0, (2, 1): 3.0}
        assert idmap.resolve(("u2", "p1")) == (2, 1)
        assert idmap.unresolve((1, 2)) == ("u1", "p2")

    def test_zero_value_is_record_error(self):
        with pytest.raises(RecordError) as excinfo:
            parse("u1,p1,0\n")
        assert excinfo.value.line == 1

    def test_duplicate_names_second_line(self):
        with pytest.raises(DuplicateRecordError) as excinfo:
            parse("u1,p1,4\nu1,p1,4\n")
        assert excinfo.value.line == 2

    def test_malformed_line_names_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse("u1,p1,4\nu2,p2\n")
        assert excinfo.value.line == 2
        with pytest.raises(ParseError) as excinfo:
            parse("u1,p1,notanumber\n")
        assert excinfo.value.line == 1

    def test_entry_count_matches_record_count(self):
        tensor, _ = parse("a,x,1\nb,y,2\nc,z,3\nd,x,4\n")
        assert len(tensor) == 4

    def test_negative_after_transform_rejected(self):
        schema = Schema(transform=(1.0, -10.0))
        with pytest.raises(RecordError):
            parse("u1,p1,4\n", schema)

    def test_shift_transform_admits_zero_scale(self):
        schema = Schema(transform=(1.0, 1.0))
        tensor, _ = parse("u1,p1,0\nu1,p2,4\n", schema)
        assert tensor.entries[(1, 1)] == 1.0
        assert tensor.entries[(1, 2)] == 5.0

    def test_movielens_double_colon(self):
        schema = Schema(delimiter="::")
        tensor, idmap = parse("1::10::4\n1::20::5\n", schema)
        assert tensor.extents == (1, 2)
        assert idmap.resolve(("1", "20")) == (1, 2)

    def test_header_skipped(self):
        schema = Schema(header=True)
        tensor, _ = parse("user,product,rating\nu1,p1,4\n", schema)
        assert len(tensor) == 1

    def test_empty_file_rejected(self):
        with pytest.raises(RecordError):
            parse("")

    def test_dedupe_last(self):
        tensor, _ = parse("u1,p1,4\nu1,p1,2\n", dedupe="last")
        assert tensor.entries[(1, 1)] == 2.0

    def test_dedupe_mean_log(self):
        tensor, _ = parse("u1,p1,2\nu1,p1,8\n", dedupe="mean-log")
        assert tensor.entries[(1, 1)] == pytest.approx(4.0, rel=1e-12)

    def test_dedupe_mean_log_keeps_singletons_exact(self):
        tensor, _ = parse("u1,p1,4.1\nu1,p2,5\n", dedupe="mean-log")
        assert tensor.entries[(1, 1)] == 4.1

    def test_three_key_columns(self):
        schema = Schema(key_columns=(0, 1, 2), value_column=3)
        tensor, _ = parse("u1,p1,weekday,4\nu1,p1,weekend,5\n", schema)
        assert tensor.d == 3
        assert tensor.extents == (1, 1, 2)

    def test_bytes_input(self):
        tensor, _ = parse_ratings(io.BytesIO(b"u1,p1,4\nu2,p1,3\n"))
        assert len(tensor) == 2

    def test_str_and_bytes_sources(self):
        for source in ("u1,p1,4\nu2,p1,3\n", b"u1,p1,4\nu2,p1,3\n"):
            tensor, idmap = parse_ratings(source)
            assert tensor.entries == {(1, 1): 4.0, (2, 1): 3.0}
            assert idmap.to_id == [["u1", "u2"], ["p1"]]

    def test_bytes_byte_order_mark_dropped(self):
        raw = b"\xef\xbb\xbfu1,p1,4\nu2,p2,3\nu1,p2,5\n"
        for source in (raw, io.BytesIO(raw)):
            tensor, idmap = parse_ratings(source)
            assert tensor.extents == (2, 2)
            assert idmap.to_id[0] == ["u1", "u2"]

    def test_non_utf8_bytes_name_line_and_offset(self):
        with pytest.raises(ParseError) as excinfo:
            parse_ratings(b"u1,p1,4\nu2,p\xff,3\n")
        assert excinfo.value.line == 2
        assert str(excinfo.value) == "line 2: byte 0xff at offset 12 is not valid UTF-8"
        with pytest.raises(ParseError, match="offset 3"):
            decode_text(b"\xef\xbb\xbf\xff")  # offsets count the mark

    def test_lines_end_at_newline_only(self):
        # splitlines would also break at \x0b, \x1c, \x85 and \u2028
        text = "u\x0b1,p\x1c1,4\nu\x852,p\u20281,3\r\n"
        _, idmap = parse(text)
        assert idmap.to_id == [["u\x0b1", "u\x852"], ["p\x1c1", "p\u20281"]]

    def test_padded_keys_stripped(self):
        tensor, idmap = parse(" u1 ,\x85p1\u2028,4\nu2,p1 ,5\n")
        assert idmap.to_id == [["u1", "u2"], ["p1"]]
        assert len(tensor) == 2

    def test_other_source_types_rejected(self):
        with pytest.raises(TypeError):
            parse_ratings(["u1,p1,4\n"])


# -- the chunked parse against the line loop ------------------------------------


def reference_parse(lines, schema, dedupe, idmap):
    """The parse one record at a time: every error names its line, and
    repeated keys are met in file order."""
    fixed_map = idmap is not None
    tables = idmap.to_coord if fixed_map else [{} for _ in schema.key_columns]
    cells: dict[tuple[int, ...], float] = {}
    log_acc: dict[tuple[int, ...], list[float]] = {}
    needed = schema.needed

    for lineno, line in enumerate(lines, start=1):
        if schema.header and lineno == 1:
            continue
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(schema.delimiter)
        if len(parts) < needed:
            raise ParseError(
                f"line {lineno}: expected at least {needed} columns, got {len(parts)}",
                line=lineno,
            )
        try:
            raw_value = float(parts[schema.value_column])
        except ValueError:
            raise ParseError(
                f"line {lineno}: value {parts[schema.value_column]!r} is not a number",
                line=lineno,
            ) from None
        value = schema.apply_transform(raw_value)
        if not (value > 0 and math.isfinite(value)):
            raise RecordError(
                f"line {lineno}: transformed value {value!r} is not strictly positive "
                "(zero marks absent entries)",
                line=lineno,
            )
        keys = tuple(parts[col].strip() for col in schema.key_columns)
        if fixed_map:
            try:
                idx = idmap.resolve(keys)
            except UnknownIdError as exc:
                raise UnknownIdError(f"line {lineno}: {exc}") from None
        else:
            idx = tuple(table.setdefault(key, len(table) + 1) for table, key in zip(tables, keys))
        if idx in cells:
            if dedupe is None:
                raise DuplicateRecordError(
                    f"line {lineno}: duplicate rating for key "
                    f"{IdMap.from_tables(tables).unresolve(idx)}",
                    line=lineno,
                )
            if dedupe == "last":
                cells[idx] = value
            else:
                log_acc[idx].append(math.log(value))
        else:
            cells[idx] = value
            if dedupe == "mean-log":
                log_acc[idx] = [math.log(value)]

    if dedupe == "mean-log":
        for idx, logs in log_acc.items():
            if len(logs) > 1:
                cells[idx] = math.exp(sum(logs) / len(logs))
    idmap = IdMap.from_tables(tables)
    if not cells:
        raise RecordError("no records parsed", line=None)
    return SparseTensor(idmap.extents(), cells), idmap


IDS = ["a", "b", "c", "u\x0bv", "x\x1cy", "\u00e9\x85z", "m\u2028n", "r\rs"]
PADS = ["", "", " ", "\x0b", "\x85", "\u2028"]
VALUES = ["4", "2.5", "1e-3", " 3 ", "1_0", "7\x0b", "0.1"]
BAD_VALUES = ["0", "-2", "nan", "inf", "x", ""]


@st.composite
def rating_files(draw):
    """A rating file, its source, and the arguments to parse it."""
    d = draw(st.sampled_from([2, 3]))
    extra = draw(st.sampled_from([0, 0, 1, 2]))
    order = draw(st.permutations(range(d + 1 + extra)))
    schema = Schema(
        key_columns=tuple(order[:d]),
        value_column=order[d],
        delimiter=draw(st.sampled_from([",", "::", "\t"])),
        header=draw(st.booleans()),
        # the last two make some or all values non-positive or infinite
        transform=draw(st.sampled_from([None, None, None, (1.0, 1.0), (2.0, 0.5), (0.5, 0.0),
                                        (-1.0, 6.0), (1e308, 1e308)])),
    )
    pool = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=len(IDS), unique=True))
    keys = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * d), min_size=1, max_size=12))
    if draw(st.integers(0, 3)):
        keys = list(dict.fromkeys(keys))  # no repeated key
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["user::item\tvalue,x"] if schema.header else []
    for key in keys:
        fields = ["e"] * (d + 1 + extra)
        for col, external in zip(schema.key_columns, key):
            fields[col] = draw(st.sampled_from(PADS)) + external + draw(st.sampled_from(PADS))
        bad = draw(st.integers(0, 29)) == 0
        fields[schema.value_column] = draw(st.sampled_from(BAD_VALUES if bad else VALUES))
        ragged = draw(st.integers(0, 29))
        if ragged == 0:
            fields.pop()
        elif ragged == 1:
            fields.append("extra")
        lines.append(schema.delimiter.join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "\r"])))
    text = "".join(line + newline for line in lines)
    if text and draw(st.booleans()):
        text = text[: -len(newline)]  # no newline at the end
    idmap = None
    if draw(st.booleans()):
        known = [draw(st.permutations(pool)) for _ in range(d)]
        if draw(st.integers(0, 5)) == 0:
            known[0] = known[0][1:]  # some ids unknown
        idmap = idmap_from_dict({"dimensions": known})
    dedupe = draw(st.sampled_from([None, "last", "mean-log"]))
    source = text.encode("utf-8") if draw(st.booleans()) else text
    return text, source, schema, dedupe, idmap


def outcome(call):
    try:
        tensor, idmap = call()
    except (ValueError, LookupError) as exc:
        return "error", type(exc), str(exc), getattr(exc, "line", None)
    return (
        "parsed",
        tensor.extents,
        tensor.coords_array().tolist(),
        tensor.values_array().tobytes(),
        idmap.to_id,
        idmap.to_coord,
    )


class TestWholeTextParse:
    """A whole text, parsed in chunks of lines, against the line loop."""

    @given(rating_files())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_line_loop(self, case):
        text, source, schema, dedupe, idmap = case
        expected = outcome(
            lambda: reference_parse(io.StringIO(text), schema, dedupe, idmap)
        )
        line_reads = []
        first_error = ingest._first_error

        def counted(*args):
            line_reads.append(args[1])
            return first_error(*args)

        # whole-file chunks, and chunks of one line or a few
        for chunk in (ingest.CHUNK, 1, 7):
            line_reads.clear()
            with mock.patch.object(ingest, "CHUNK", chunk), \
                    mock.patch.object(ingest, "_first_error", counted):
                assert outcome(lambda: parse_ratings(source, schema, dedupe, idmap)) == expected
            if expected[0] == "parsed":
                assert not line_reads  # only a bad record sends a chunk there

    def test_well_formed_file_skips_line_loop(self, monkeypatch):
        def line_loop(*args):
            raise AssertionError("the line loop ran on a well-formed file")

        monkeypatch.setattr(ingest, "_first_error", line_loop)
        schema = Schema(
            key_columns=(2, 0, 1), value_column=3, delimiter="::", header=True,
            transform=(2.0, 1.0),
        )
        text = (
            "h\r\n\r\n p1::week\x0bday:: u\x851 ::4::x\r\n"
            "p\u20282::week\x1cend::u\x851::0.5::y\r\n\n"
        )
        for source in (text, text.encode("utf-8"), io.StringIO(text)):
            tensor, idmap = parse_ratings(source, schema, dedupe="mean-log")
            assert tensor.entries == {(1, 1, 1): 9.0, (1, 2, 2): 2.0}
            assert idmap.to_id == [["u\x851"], ["p1", "p\u20282"], ["week\x0bday", "week\x1cend"]]
            again, _ = parse_ratings(text, schema, idmap=idmap)
            assert again.entries == tensor.entries

    @pytest.mark.parametrize(
        "text, error, line",
        [
            ("u1,p1,4\nu2,p2\n", ParseError, 2),
            ("u1,p1,4\nu2,p2,x\n", ParseError, 2),
            ("u1,p1,4\nu2,p2,0\n", RecordError, 2),
            ("u1,p1,4\nu2,p2,3\nu1,p1,4\n", DuplicateRecordError, 3),
            ("\n\n", RecordError, None),
        ],
    )
    def test_irregular_files_raise_from_line_loop(self, text, error, line):
        with pytest.raises(error) as excinfo:
            parse_ratings(text)
        assert excinfo.value.line == line
        with pytest.raises(error) as reference:
            reference_parse(io.StringIO(text), Schema(), None, None)
        assert str(excinfo.value) == str(reference.value)
        # a bad line is named by the line re-reader; a repeated key and an
        # empty file are found on the whole file's arrays
        if error in (ParseError, RecordError) and line is not None:
            bad, found = ingest._first_error(text.split("\n"), 1, Schema(), None)
            assert (bad + 1, found.line, str(found)) == (line, line, str(reference.value))

    def test_repeat_before_a_bad_line_is_named_first(self):
        text = "u1,p1,4\nu2,p1,3\nu1,p1,5\nu3,p1,x\n"
        for chunk in (ingest.CHUNK, 1):
            with mock.patch.object(ingest, "CHUNK", chunk):
                with pytest.raises(DuplicateRecordError, match="^line 3: "):
                    parse_ratings(text)
                with pytest.raises(ParseError, match="^line 4: "):
                    parse_ratings(text, dedupe="last")

    def test_dedupe_across_chunks(self):
        # the repeated key's records sit in different chunks
        text = "u1,p1,2\nu2,p1,3\nu1,p2,4\nu1,p1,8\nu2,p1,5\n"
        for chunk in (ingest.CHUNK, 1, 7):
            with mock.patch.object(ingest, "CHUNK", chunk):
                last, _ = parse_ratings(text, dedupe="last")
                mean, _ = parse_ratings(text, dedupe="mean-log")
                with pytest.raises(DuplicateRecordError, match="^line 4: .*'u1', 'p1'"):
                    parse_ratings(text)
            assert last.entries == {(1, 1): 8.0, (2, 1): 5.0, (1, 2): 4.0}
            assert mean.entries[(1, 1)] == math.exp((math.log(2.0) + math.log(8.0)) / 2)
            assert mean.entries[(2, 1)] == math.exp((math.log(3.0) + math.log(5.0)) / 2)


class TestIdMap:
    def test_unknown_id_raises(self):
        _, idmap = parse("u1,p1,4\n")
        with pytest.raises(UnknownIdError):
            idmap.resolve(("u9", "p1"))

    def test_unknown_id_names_its_dimension(self):
        _, idmap = parse("u1,p1,4\n")
        with pytest.raises(UnknownIdError, match="'p9' in dimension 2"):
            idmap.resolve(("u1", "p9"))
        with pytest.raises(UnknownIdError, match="'u9' in dimension 1"):
            idmap.resolve(["u9", "p9"])

    def test_wrong_id_count_raises(self):
        _, idmap = parse("u1,p1,4\n")
        for ids in (("u1",), ("u1", "p1", "p1"), ()):
            with pytest.raises(ValueError, match=f"expected 2 ids, got {len(ids)}"):
                idmap.resolve(ids)

    def test_bare_string_is_refused(self):
        # "ab" would otherwise split into the ids "a" and "b"
        _, idmap = parse("a,b,4\n")
        assert idmap.resolve(("a", "b")) == (1, 1)
        with pytest.raises(TypeError):
            idmap.resolve("ab")

    def test_round_trip(self):
        _, idmap = parse("u1,p1,4\nu2,p2,3\n")
        for ids in (("u1", "p1"), ("u2", "p2"), ("u2", "p1")):
            assert idmap.unresolve(idmap.resolve(ids)) == ids

    def test_repeated_id_in_a_payload_is_refused(self):
        with pytest.raises(ValueError, match="^dimension 2 repeats id 'p1'$"):
            idmap_from_dict({"dimensions": [["u1"], ["p1", "p2", "p1"]]})

    def test_payload_ids_are_strings_numbered_in_order(self):
        idmap = idmap_from_dict({"dimensions": [["u1", 7], ["p1"]]})
        assert idmap.to_id == [["u1", "7"], ["p1"]]
        assert idmap.to_coord == [{"u1": 1, "7": 2}, {"p1": 1}]
        assert idmap.resolve(("7", "p1")) == (2, 1)

    def test_serialization_round_trip(self):
        _, idmap = parse("u1,p1,4\nu2,p2,3\n")
        buf = io.StringIO()
        write_idmap(idmap, buf)
        buf.seek(0)
        loaded = read_idmap(buf)
        assert loaded.to_id == idmap.to_id
        assert loaded.to_coord == idmap.to_coord


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        text = "u1,p1,4.25\nu1,p2,0.1\nu2,p1,3.3333333333333335\n"
        tensor1, idmap1 = parse(text)
        buf = io.StringIO()
        write_ratings(tensor1, idmap1, buf)
        tensor2, idmap2 = parse(buf.getvalue())
        assert tensor1.entries == tensor2.entries
        assert tensor1.extents == tensor2.extents
        assert idmap1.to_id == idmap2.to_id
        # and serializing again is bit-identical
        buf2 = io.StringIO()
        write_ratings(tensor2, idmap2, buf2)
        assert buf.getvalue() == buf2.getvalue()

    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from(["u0", "u1", "u2", "u3", "u4"]),
                st.sampled_from(["p0", "p1", "p2", "p3", "p4"]),
            ),
            st.floats(
                min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_arbitrary_files(self, cells):
        # canonical output = sorted CSV plus sidecar id map; re-parsing the
        # pair reproduces (tensor, map) exactly, whatever the input order
        text = "".join(f"{u},{p},{v!r}\n" for (u, p), v in cells.items())
        tensor1, idmap1 = parse(text)
        csv_buf, map_buf = io.StringIO(), io.StringIO()
        write_ratings(tensor1, idmap1, csv_buf)
        write_idmap(idmap1, map_buf)
        map_buf.seek(0)
        sidecar = read_idmap(map_buf)
        tensor2, idmap2 = parse_ratings(
            io.StringIO(csv_buf.getvalue()), Schema(), idmap=sidecar
        )
        assert tensor2.entries == tensor1.entries
        assert tensor2.extents == tensor1.extents
        assert idmap2.to_id == idmap1.to_id
        # and the canonical CSV itself is a fixed point
        csv_buf2 = io.StringIO()
        write_ratings(tensor2, idmap2, csv_buf2)
        assert csv_buf2.getvalue() == csv_buf.getvalue()

    def test_fixed_map_rejects_unknown_ids(self):
        _, idmap = parse("u1,p1,4\n")
        with pytest.raises(UnknownIdError):
            parse_ratings(io.StringIO("u2,p1,4\n"), Schema(), idmap=idmap)


class TestSchemaValidation:
    def test_too_few_keys(self):
        with pytest.raises(ValueError):
            Schema(key_columns=(0,), value_column=1)

    def test_value_column_collision(self):
        with pytest.raises(ValueError):
            Schema(key_columns=(0, 1), value_column=1)

    def test_repeated_key_columns(self):
        with pytest.raises(ValueError):
            Schema(key_columns=(0, 0), value_column=1)

    def test_bad_dedupe_policy(self):
        with pytest.raises(ValueError):
            parse("u1,p1,4\n", dedupe="first")
