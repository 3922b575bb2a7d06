import csv
import io
import math
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botmeter.dataset import (FeatureTable, csv_rows, format_number,
                              normalize_feature_name, number_cells,
                              parse_manifest, read_feature_csv, read_flow_csv,
                              labels_to_binary, train_test_split, write_flow_csv)
from botmeter.errors import CsvFormatError, ValidationError
from botmeter.features import (FEATURE_COLUMNS, FEATURE_NAMES, IDENTITY_COLUMNS,
                               FeatureVector)
from botmeter.pcap import ip_to_str

import capgen
from test_labeling import flow

# A flow's features, all zero and each of its column's type.
ZEROS = tuple(kind(0) for _, kind in FEATURE_COLUMNS)


def read_flow_rows(path) -> list:
    """Every (flow, label) row of a flow CSV, read to the end."""
    return list(read_flow_csv(path))


def read_flow_lists(path):
    """A flow CSV's flows and labels (None for a file without a Label
    column), as ``write_flow_csv`` takes them."""
    rows = read_flow_rows(path)
    labels = [label for _, label in rows]
    return [flow for flow, _ in rows], None if None in labels else labels


class TestNormalizeName:
    @pytest.mark.parametrize("alias,canonical", [
        ("Pkt Len Mean", "Packet Length Mean"),
        ("Pkt Size Avg", "Average Packet Size"),
        ("Pkt Len Min", "Min Packet Length"),
        ("Bwd Pkt Len Min", "Bwd Packet Length Min"),
        ("Bwd Pkt Len Mean", "Bwd Packet Length Mean"),
        ("Fwd Pkt Len Mean", "Fwd Packet Length Mean"),
        ("Flow Byts/s", "Flow Bytes/s"),
        ("Bwd Pkts/s", "Bwd Packets/s"),
        ("Fwd Pkts/s", "Fwd Packets/s"),
        ("Flow Pkts/s", "Flow Packets/s"),
        ("Init Bwd Win Byts", "Init Bwd Win Bytes"),
        ("Avg Fwd Segment Size", "Avg Fwd Segment Size"),
        ("Bwd Header Len", "Bwd Header Length"),
    ])
    def test_spec_alias_pairs(self, alias, canonical):
        assert normalize_feature_name(alias) == (canonical, True)

    def test_canonical_names_are_fixed_points(self):
        for name in FEATURE_NAMES:
            assert normalize_feature_name(name) == (name, True)

    def test_unknown_name_flagged(self):
        assert normalize_feature_name("Totally Unknown Col") == \
            ("Totally Unknown Col", False)

    def test_whitespace_tidied(self):
        assert normalize_feature_name("  Flow  Duration ") == ("Flow Duration", True)

    @given(st.sampled_from(sorted(FEATURE_NAMES) + ["Pkt Len Mean", "Nope", "Flow Byts/s"]))
    def test_idempotent(self, name):
        once, _ = normalize_feature_name(name)
        twice, _ = normalize_feature_name(once)
        assert once == twice


# Cell text that float() reads, refuses, reads as non-finite, or reads but
# no writer emits.
NUMBER_TEXT = st.one_of(
    st.floats().map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-Infinity", "NaN", "1e999", "1_000", " 7 ", "7\t",
                     "\x0c2.5", "\u0661\u0660.5", "", "x", "0x10", "+.5", "1E-3"]),
    st.text(max_size=6))


def read_by_cells(path) -> np.ndarray:
    """A feature CSV's matrix, read one cell at a time by ``number_cells``."""
    with closing(csv_rows(path)) as records:
        header = next(records)
        idx = [i for i, name in enumerate(header)
               if name not in IDENTITY_COLUMNS and name != "Label"]
        kinds = [(header[i], float) for i in idx]
        data = [number_cells(path, row, idx, kinds, line_no)
                for line_no, row in records]
    return np.array(data, dtype=np.float64).reshape(len(data), len(idx))


class TestFeatureCsv:
    @settings(max_examples=150, deadline=None)
    @given(width=st.integers(1, 3), data=st.data())
    def test_matches_reading_every_cell(self, tmp_path_factory, width, data):
        rows = data.draw(st.lists(st.tuples(
            st.text(max_size=4), st.lists(NUMBER_TEXT, min_size=width,
                                          max_size=width),
            st.text(max_size=4)), max_size=5))
        path = tmp_path_factory.mktemp("cells") / "table.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Source IP", *FEATURE_NAMES[:width], "Label"])
            writer.writerows([ident, *cells, label] for ident, cells, label in rows)

        def outcome(read):
            try:
                matrix = read(path)
            except CsvFormatError as exc:
                return str(exc)
            return matrix.shape, matrix.tobytes()

        assert outcome(lambda p: read_feature_csv(p).rows) == outcome(read_by_cells)

    def test_roundtrip_small_table(self, tmp_path):
        table = FeatureTable(["a", "b", "c"], [[1.5, 2, 3], [4, 5.25, 6]])
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([table.columns, *table.rows.tolist()])
        back = read_feature_csv(path)
        assert back.columns == ["a", "b", "c"]
        np.testing.assert_array_equal(back.rows, table.rows)

    def test_alias_headers_normalized_on_read(self, tmp_path):
        path = tmp_path / "aliased.csv"
        path.write_text("Pkt Len Mean,Flow Byts/s,Label\n1.0,2.0,Botnet\n")
        table = read_feature_csv(path)
        assert table.columns == ["Packet Length Mean", "Flow Bytes/s"]
        assert table.labels.tolist() == [1]

    def test_unknown_headers_are_one_warning_per_file(self, tmp_path, caplog):
        path = tmp_path / "odd.csv"
        path.write_text("Pkt Len Mean, Fwd  Pkt Rate ,Src IP,Bwd Pkt Rate,Label\n"
                        "1.0,2.0,10.0.0.1,3.0,Botnet\n")
        known = tmp_path / "known.csv"
        known.write_text("Pkt Len Mean,Src IP,Label\n1.0,10.0.0.1,Botnet\n")
        with caplog.at_level("DEBUG", logger="botmeter.dataset"):
            table = read_feature_csv(path)
            read_feature_csv(known)
            read_feature_csv(path)
        assert table.columns == ["Packet Length Mean", "Fwd Pkt Rate", "Bwd Pkt Rate"]
        # Every read of the file says it again; a file of known names is quiet.
        assert [(r.levelname, r.message) for r in caplog.records] == [
            ("WARNING", f"{path}: unknown column name(s) kept as-is: "
                        "'Fwd Pkt Rate', 'Bwd Pkt Rate'")] * 2

    def test_flow_csv_unknown_headers_are_one_warning_per_file(self, tmp_path,
                                                               caplog):
        plain = tmp_path / "plain.csv"
        write_flow_csv(plain, [flow(values=ZEROS), flow(values=ZEROS)], ["Botnet"] * 2)
        lines = plain.read_text(encoding="utf-8").splitlines()
        odd = tmp_path / "odd.csv"
        odd.write_text("".join(f"{line},{extra}\n" for line, extra in
                               zip(lines, (" Fwd  Pkt Rate ", "7", "8"))),
                       encoding="utf-8")
        with caplog.at_level("DEBUG", logger="botmeter.dataset"):
            got = read_flow_rows(odd)
            want = read_flow_rows(plain)
        # The column is ignored; a file of known names is quiet.
        assert got == want
        assert [(r.levelname, r.message) for r in caplog.records] == [
            ("WARNING", f"{odd}: unknown column name(s) ignored: 'Fwd Pkt Rate'")]

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c\n1,2,3\n1,2\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_feature_csv(path)

    @pytest.mark.parametrize("reader", [read_feature_csv, read_flow_rows])
    def test_readers_reject_missing_header_and_ragged_row(self, reader, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(CsvFormatError, match="empty.csv: missing header row"):
            reader(empty)
        fv = flow(values=ZEROS)
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [fv], ["Botnet"])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("1,2\n")
        with pytest.raises(CsvFormatError,
                           match=r"ragged row at line 3 \(2 cells, expected 73\)"):
            reader(path)

    @pytest.mark.parametrize("reader", [read_feature_csv, read_flow_rows])
    def test_readers_reject_non_utf8_text_naming_file_and_line(self, reader,
                                                               tmp_path):
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [flow(values=ZEROS), flow(values=ZEROS)])
        data = path.read_bytes().split(b"\r\n")
        data[2] = data[2].replace(b"8.8.8.8", b"8.8.8.\xff", 1)
        path.write_bytes(b"\r\n".join(data))
        with pytest.raises(CsvFormatError,
                           match=r"flows.csv: not UTF-8 text at line 3 "):
            reader(path)

    def test_non_utf8_line_is_found_past_the_first_block(self, tmp_path):
        path = tmp_path / "long.csv"
        # A two-byte character split by the 64 KiB block boundary, then a
        # bad byte 40,000 lines down.
        body = (b"ab,Label\n" + b"1,x\n" * 16381 + b"3,\xc3\xa9\n"
                + b"4,y\n" * 23617)
        assert body[65535:65537] == b"\xc3\xa9"
        path.write_bytes(body + b"6,\xff\n")
        with pytest.raises(CsvFormatError, match="not UTF-8 text at line 40001 "):
            read_feature_csv(path)

    def test_non_numeric_cell_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,oops\n")
        with pytest.raises(CsvFormatError) as info:
            read_feature_csv(path)
        assert str(info.value) == f"{path}: non-numeric value 'oops' in column 'b' at line 2"

        rows = [flow(sport=sport, values=ZEROS) for sport in (1000, 1001)]
        path = tmp_path / "flows.csv"
        write_flow_csv(path, rows)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("Flow IAT Std")] = "12x"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError) as info:
            read_flow_rows(path)
        assert str(info.value) == (
            f"{path}: non-numeric value '12x' in column 'Flow IAT Std' at line 3")

    @pytest.mark.parametrize("cell", ["Infinity", "inf", "-inf", "NaN", "nan"])
    def test_non_finite_cell_names_value_column_and_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b,Label\n1,2,Normal\n3,4,Botnet\n5,{cell},Normal\n")
        with pytest.raises(CsvFormatError) as info:
            read_feature_csv(path)
        assert str(info.value) == (
            f"{path}: non-finite value {cell!r} in column 'b' at line 4")

    def test_finite_cells_whose_sum_overflows_are_read(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("a,b,Label\n1e308,1e308,Botnet\n-1e308,-1e308,Normal\n")
        table = read_feature_csv(path)
        assert table.rows.tolist() == [[1e308, 1e308], [-1e308, -1e308]]
        assert table.labels.tolist() == [1, 0]

    def test_first_bad_row_in_line_order_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,Label\n1,2,Normal\n3,inf,Botnet\n"
                        "1e308,1e308,Normal\n1,2\n")
        with pytest.raises(CsvFormatError) as info:
            read_feature_csv(path)
        assert str(info.value) == (
            f"{path}: non-finite value 'inf' in column 'b' at line 3")

    def test_repeated_canonical_names_are_refused(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("Tot Fwd Pkts,Fwd Header Length,Total Fwd Packets,"
                        "Fwd Header Length,Flow Duration,Label\n"
                        "1,2,3,4,5,Botnet\n")
        with pytest.raises(CsvFormatError) as info:
            read_feature_csv(path)
        assert str(info.value) == (f"{path}: column(s) named more than once: "
                                   "'Total Fwd Packets', 'Fwd Header Length'")

    def test_flow_csv_repeated_canonical_name_is_refused(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [flow(values=ZEROS)], ["Botnet"])
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(f"{lines[0]},Tot Fwd Pkts\n{lines[1]},7\n", encoding="utf-8")
        with pytest.raises(CsvFormatError) as info:
            read_flow_rows(path)
        assert str(info.value) == (
            f"{path}: column(s) named more than once: 'Total Fwd Packets'")

    def test_flow_csv_headers_and_labels(self, tmp_path):
        values = list(ZEROS)
        values[FEATURE_NAMES.index("Packet Length Mean")] = 123.456789
        fv = flow(values=tuple(values))
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [fv], ["Botnet"])
        text = path.read_text().splitlines()
        assert text[0].split(",")[:7] == list(IDENTITY_COLUMNS)
        assert text[0].split(",")[-1] == "Label"
        assert text[1].endswith("Botnet")
        table = read_feature_csv(path)
        assert table.columns == list(FEATURE_NAMES)
        assert table.labels.tolist() == [1]
        assert table.rows[0][FEATURE_NAMES.index("Packet Length Mean")] == \
            pytest.approx(123.456789, abs=1e-6)
        with pytest.raises(ValidationError, match="2 labels for 1 flows"):
            write_flow_csv(path, [fv], ["Botnet", "Normal"])

    @pytest.mark.parametrize("column", ["Source Port", "Destination Port",
                                        "Protocol", "Timestamp"])
    def test_flow_csv_non_integer_identity_cell_names_file_line_column(
            self, column, tmp_path):
        rows = [flow(sport=sport, values=ZEROS) for sport in (1000, 1001)]
        path = tmp_path / "flows.csv"
        write_flow_csv(path, rows, ["Botnet"] * len(rows))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = "8x"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError,
                           match=f"flows.csv: non-integer value '8x' in column "
                                 f"'{column}' at line 3"):
            read_flow_rows(path)

    @pytest.mark.parametrize("text", ["2.0", "7.5", "1e3", "nan", ""])
    def test_flow_csv_float_text_in_int_feature_column_is_refused(self, text,
                                                                   tmp_path):
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [flow(values=ZEROS)])
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index("Total Fwd Packets")] = text
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError) as info:
            read_flow_rows(path)
        assert str(info.value) == (f"{path}: non-integer value {text!r} in "
                                   "column 'Total Fwd Packets' at line 2")

    @pytest.mark.parametrize("reader", [read_feature_csv, read_flow_rows])
    @pytest.mark.parametrize("column, text", [
        ("Flow Duration", "1_000"), ("Total Fwd Packets", " 7 "),
        ("Total Fwd Packets", "7\t"), ("Flow IAT Std", "\x0c2.5"),
        ("Fwd Packet Length Mean", "\u0661\u0660.5")])
    def test_number_text_no_writer_emits_is_refused(self, reader, column, text,
                                                    tmp_path):
        # int() and float() read these; a label with a space passes.  The
        # edited row's label has none, so only the edit trips the row test.
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [flow(values=ZEROS)] * 2, ["DoS Hulk", "Botnet"])
        reader(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = text
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        what = ("non-integer" if reader is read_flow_rows
                and dict(FEATURE_COLUMNS)[column] is int else "non-numeric")
        with pytest.raises(CsvFormatError) as info:
            reader(path)
        assert str(info.value) == (
            f"{path}: {what} value {text!r} in column {column!r} at line 3")

    def test_off_type_value_in_int_column_shows_in_the_text(self, tmp_path):
        # Written as its str, not truncated to an int, so reading refuses it.
        values = list(ZEROS)
        values[FEATURE_NAMES.index("Total Fwd Packets")] = 2.5
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [flow(values=tuple(values))])
        with pytest.raises(CsvFormatError, match="non-integer value '2.5' in "
                                                 "column 'Total Fwd Packets'"):
            read_flow_rows(path)

    def test_flow_csv_reads_each_column_as_its_type(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [flow(values=ZEROS)])
        ((back, _),) = read_flow_csv(path)
        assert [type(v) for v in back.values] == [k for _, k in FEATURE_COLUMNS]
        assert back.values == ZEROS

    def test_flow_csv_addresses_read_in_flow_text_form(self, tmp_path):
        from botmeter.labeling import label_flows, parse_rules
        fv = flow(src="2001:db8:0:0:0:0:0:1", dst="2001:DB8::0:2", values=ZEROS)
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [fv])
        ((back, label),) = read_flow_csv(path)
        assert label is None
        assert (back.src_ip, back.dst_ip) == ("2001:db8::1", "2001:db8::2")
        rules = tmp_path / "rules.csv"
        rules.write_text("src_ip,src_port,dst_ip,dst_port,protocol,label\n"
                         "2001:db8:0:0:0:0:0:1,*,*,*,*,Botnet\n")
        labels, report = label_flows([back], parse_rules(str(rules)))
        assert labels == ["Botnet"]
        assert report.unmatched == 0

    @pytest.mark.parametrize("column", ["Source IP", "Destination IP"])
    @pytest.mark.parametrize("text", ["10.0.0.256", "2001:db8::1::2", "host", ""])
    def test_flow_csv_unparsable_address_names_file_line_column(
            self, column, text, tmp_path):
        rows = [flow(sport=sport, values=ZEROS) for sport in (1000, 1001)]
        path = tmp_path / "flows.csv"
        write_flow_csv(path, rows)
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        table[2][table[0].index(column)] = text
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        with pytest.raises(CsvFormatError) as info:
            read_flow_rows(path)
        assert str(info.value) == (
            f"{path}: unparsable address {text!r} in column {column!r} at line 3")

    def test_binary_label_column_read_back(self, tmp_path):
        path = tmp_path / "lab.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["a", "Label"], [1.0, 0], [2.0, 1]])
        back = read_feature_csv(path)
        assert back.labels.tolist() == [0, 1]


class TestFeatureTableLabels:
    ROWS = [[1.0], [2.0], [3.0]]

    @pytest.mark.parametrize("labels", [[0, 0.5, 1.9], [0, 2, -1]])
    def test_labels_other_than_0_and_1_are_refused(self, labels):
        # As given, before the int cast: 0.5 and 1.9 would truncate to 0 and 1.
        with pytest.raises(ValidationError, match="labels must be 0 or 1"):
            FeatureTable(["x"], self.ROWS, labels=labels)

    @pytest.mark.parametrize("labels, expected", [
        ([True, False, True], [1, 0, 1]),
        ([1.0, 0.0, 0.0], [1, 0, 0]),
        (np.array([0, 1, 1], dtype=np.uint8), [0, 1, 1]),
        ([1, 1, 1], [1, 1, 1]),   # one class: fit refuses it, the table does not
    ])
    def test_binary_labels_become_ints(self, labels, expected):
        table = FeatureTable(["x"], self.ROWS, labels=labels)
        assert table.labels.dtype == np.int64
        assert table.labels.tolist() == expected


def test_binary_collapse():
    assert labels_to_binary(["Normal", "Botnet", "DDoS", "Normal"]) == [0, 1, 1, 0]
    assert labels_to_binary(["ok", "bad"], negative_label="ok") == [0, 1]


class TestFormatNumber:
    def test_integral_floats_render_as_ints(self):
        assert format_number(350.0) == "350"
        assert format_number(-1.0) == "-1"
        assert format_number(0.0) == "0"
        assert format_number(1e15) == "1000000000000000"

    def test_fractions_capped_at_six_digits(self):
        assert format_number(1 / 3) == "0.333333"
        assert format_number(76.37626158259734) == "76.376262"

    def test_integrality_is_decided_after_rounding(self):
        assert format_number(2.0000001) == "2"
        assert format_number(-2.0000001) == "-2"
        assert format_number(1e-7) == "0"
        assert format_number(-1e-7) == "0"
        assert format_number(-0.0) == "0"
        assert format_number(2.0000005000001) == "2.000001"

    def test_non_finite_values_keep_their_names(self):
        assert [format_number(x) for x in (math.nan, math.inf, -math.inf)] == \
            ["nan", "inf", "-inf"]

    @given(x=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.tuples(st.integers(-10**9, 10**9),
                                 st.floats(-1e-6, 1e-6)).map(sum)))
    def test_text_reads_back_to_the_same_text(self, x):
        text = format_number(x)
        assert format_number(float(text)) == text
        assert text != "-0"

    @settings(max_examples=100, deadline=None)
    @given(values=st.tuples(*(st.integers() if kind is int else st.floats()
                              for _, kind in FEATURE_COLUMNS)))
    def test_flow_csv_cells_equal_format_number(self, tmp_path_factory, values):
        # The flow CSV writer formats cells without calling format_number;
        # its float cells must still read exactly as format_number's, and
        # its int cells as str's.
        fv = flow(values=values)
        path = tmp_path_factory.mktemp("cells") / "flows.csv"
        write_flow_csv(path, [fv])
        with open(path, newline="", encoding="utf-8") as fh:
            _, row = csv.reader(fh)
        start = len(IDENTITY_COLUMNS)
        assert row[start:start + len(values)] == [
            str(v) if kind is int else format_number(v)
            for (_, kind), v in zip(FEATURE_COLUMNS, values)]


def reference_flow_csv(flows, labels=None) -> bytes:
    """What ``write_flow_csv`` must write: ``csv.writer`` over the identity
    cells, the text of every feature (``str`` in an int column,
    ``format_number`` in a float column) and the label."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([*IDENTITY_COLUMNS, *FEATURE_NAMES]
                    + ([] if labels is None else ["Label"]))
    for i, f in enumerate(flows):
        cells = [f.flow_id, f.src_ip, f.src_port, f.dst_ip, f.dst_port,
                 f.protocol, f.start_ts_us]
        cells += [str(v) if kind is int else format_number(v)
                  for (_, kind), v in zip(FEATURE_COLUMNS, f.values)]
        if labels is not None:
            cells.append(labels[i])
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")


# Text that needs csv quoting now and then.
QUOTABLE = st.text(st.sampled_from('ab1.:-_ é,"\r\n'), max_size=10)
ADDRESSES = st.one_of(st.binary(min_size=4, max_size=4),
                      st.binary(min_size=16, max_size=16)).map(ip_to_str)
PORTS = st.integers(0, 65535)
# The cells the one-format path writes: ints, and floats that are integral
# or a multiple of 1/1024 (so never within 5e-7 of an integer).
PLAIN_CELLS = {
    int: st.integers(-10**18, 10**18),
    float: st.one_of(st.integers(-10**16, 10**16).map(float),
                     st.integers(-2**50, 2**50).map(lambda n: n / 1024)),
}
# Cells at the edges of their column's type: ints of any size, and any
# float, fractions within 1e-6 of an integer (some of which round to it),
# values either side of 1e15, -0.0, nan and infinities.
EDGE_CELLS = {
    int: st.one_of(st.integers(), st.sampled_from(
        [10**15, -10**15, 10**15 - 1, 2**63, -2**63, -1, 0])),
    float: st.one_of(
        st.floats(),
        st.tuples(st.integers(-10**9, 10**9), st.floats(-1e-6, 1e-6)).map(sum),
        st.sampled_from([1e15, -1e15, 1e15 - 1, 1e15 + 2, -(1e15 + 2), 1e15 - 0.5,
                         1e300, -0.0, 0.5, 1e-7, -1e-7, 2.0000001, -2.0000001,
                         5e-324, math.nan, math.inf, -math.inf])),
}


@st.composite
def flow_rows(draw, finite=False, addresses=st.one_of(ADDRESSES, QUOTABLE)):
    """Rows with each feature drawn by its column's type, half of them with
    one to three edge cells (finite ones only if ``finite``), and identity
    text that sometimes needs quoting."""
    kinds = [kind for _, kind in FEATURE_COLUMNS]
    values = [draw(PLAIN_CELLS[kind]) for kind in kinds]
    if draw(st.booleans()):
        for position in draw(st.lists(st.integers(0, len(kinds) - 1),
                                      min_size=1, max_size=3)):
            kind = kinds[position]
            edge = EDGE_CELLS[kind]
            if finite and kind is float:
                edge = edge.filter(math.isfinite)
            values[position] = draw(edge)
    return FeatureVector(
        flow_id=draw(st.one_of(ADDRESSES, QUOTABLE)), src_ip=draw(addresses),
        src_port=draw(PORTS), dst_ip=draw(addresses), dst_port=draw(PORTS),
        protocol=draw(st.sampled_from([1, 6, 17])),
        start_ts_us=draw(st.integers(0, 2**62)), values=tuple(values))


@st.composite
def flow_tables(draw):
    flows = draw(st.lists(flow_rows(), max_size=6))
    label = st.one_of(st.sampled_from(["Normal", "Botnet"]), QUOTABLE, st.none())
    labels = draw(st.none() | st.lists(label, min_size=len(flows),
                                       max_size=len(flows)))
    return flows, labels


class TestFlowCsvWriter:
    @settings(max_examples=100, deadline=None)
    @given(table=flow_tables())
    def test_bytes_equal_csv_writer_with_format_number(self, tmp_path_factory,
                                                       table):
        flows, labels = table
        path = tmp_path_factory.mktemp("writer") / "flows.csv"
        write_flow_csv(path, flows, labels)
        assert path.read_bytes() == reference_flow_csv(flows, labels)

    # Every value the bytes property draws but nan and infinities, which the
    # reader refuses; addresses in the text form the reader writes them in.
    @settings(max_examples=50, deadline=None)
    @given(flows=st.lists(flow_rows(finite=True, addresses=ADDRESSES),
                          min_size=1, max_size=4),
           label=QUOTABLE)
    def test_read_then_write_is_byte_stable(self, tmp_path_factory, flows, label):
        root = tmp_path_factory.mktemp("stable")
        first, second = root / "first.csv", root / "second.csv"
        write_flow_csv(first, flows, [label] * len(flows))
        write_flow_csv(second, *read_flow_lists(first))
        assert second.read_bytes() == first.read_bytes()

    def test_near_integer_float_and_large_int_survive_read_back(self, tmp_path):
        # Six decimals cannot tell 2.0000001 from 2, so it is written "2";
        # the int 10**15 is read back as an int.
        values = list(ZEROS)
        values[FEATURE_NAMES.index("Flow Duration")] = 10**15
        values[FEATURE_NAMES.index("Flow IAT Mean")] = 2.0000001
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_flow_csv(first, [flow(values=tuple(values))])
        write_flow_csv(second, *read_flow_lists(first))
        header = first.read_text().splitlines()[0].split(",")
        cells = [header.index("Flow Duration"), header.index("Flow IAT Mean")]
        for path in (first, second):
            row = path.read_text().splitlines()[1].split(",")
            assert [row[i] for i in cells] == ["1000000000000000", "2"]
        assert second.read_bytes() == first.read_bytes()

    # The text that the writer strips from its float cells, in identity
    # cells and labels, where it must stay: a quoted flow ID, bare addresses
    # beside it and in a row that needs no quoting, and a quoted label.
    EDGE_FLOATS = (-0.0, -1e-7, 2.0000001, -2.0000001, 1e15, 1e300,
                   math.nan, math.inf, -math.inf, 0.5)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_identity_and_label_text_like_float_cells_is_kept(self, tmp_path,
                                                             labeled):
        floats = iter(self.EDGE_FLOATS * 5)
        values = [tuple(next(floats) if kind is float else -i
                        for i, (_, kind) in enumerate(FEATURE_COLUMNS))
                  for _ in range(2)]
        flows = [
            FeatureVector("a.000000,-0.000000,b", "1.000000", 0, "-0.000000",
                          0, 6, 0, values[0]),
            FeatureVector("c.000000-0.000000", "2.000000", 1, "-0.000000",
                          2, 17, 3, values[1]),
        ]
        labels = ["x.000000,-0.000000,", "-0.000000"] if labeled else None
        path = tmp_path / "flows.csv"
        write_flow_csv(path, flows, labels)
        assert path.read_bytes() == reference_flow_csv(flows, labels)


class TestSplit:
    def table(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return FeatureTable(["a", "b"], rng.normal(size=(n, 2)),
                            labels=rng.integers(0, 2, size=n))

    def test_80_20_counts(self):
        train, test = train_test_split(self.table(10), 0.8, seed=7)
        assert (train.n_rows, test.n_rows) == (8, 2)

    def test_round_half_up_on_small_n(self):
        train, test = train_test_split(self.table(5), 0.8, seed=7)
        assert (train.n_rows, test.n_rows) == (4, 1)

    def test_same_seed_same_split(self):
        t = self.table(50)
        a_train, a_test = train_test_split(t, 0.8, seed=3)
        b_train, b_test = train_test_split(t, 0.8, seed=3)
        np.testing.assert_array_equal(a_train.rows, b_train.rows)
        np.testing.assert_array_equal(a_test.rows, b_test.rows)

    def test_bad_ratio_rejected(self):
        for ratio in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                train_test_split(self.table(10), ratio, seed=1)

    @pytest.mark.parametrize("n, ratio, half", [
        (10, 0.95, "test"), (2, 0.8, "test"), (10, 0.04, "train"),
        (1, 0.8, "test"), (1, 0.2, "train"), (0, 0.5, "train")])
    def test_a_split_with_an_empty_half_is_refused(self, n, ratio, half):
        with pytest.raises(ValidationError) as info:
            train_test_split(self.table(n), ratio, seed=1)
        assert str(info.value) == (
            f"split ratio {ratio} of {n} rows leaves the {half} half empty")

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           ratio=st.floats(0.05, 0.95))
    def test_partition_property(self, n, seed, ratio):
        table = self.table(n, seed=n)
        cut = math.floor(ratio * n + 0.5)
        if cut in (0, n):  # e.g. n = 2 at ratio 0.8
            with pytest.raises(ValidationError, match="half empty"):
                train_test_split(table, ratio, seed)
            return
        train, test = train_test_split(table, ratio, seed)
        assert train.n_rows + test.n_rows == n
        merged = np.vstack([train.rows, test.rows])
        assert merged.shape == table.rows.shape
        key = lambda m: sorted(map(tuple, m))
        assert key(merged) == key(table.rows)


class TestManifest:
    def test_parse_and_resolve_paths(self, tmp_path):
        (tmp_path / "caps").mkdir()
        (tmp_path / "caps/a.pcap").write_bytes(b"")
        (tmp_path / "rules.csv").write_text("x")
        manifest = tmp_path / "ds.manifest"
        manifest.write_text(
            "# demo dataset\n"
            "name = demo\n"
            "captures = caps/a.pcap\n"
            "rules = rules.csv\n"
            "default_label = Normal\n"
            "notes = an ignored key\n")
        m = parse_manifest(manifest)
        assert m.name == "demo"
        assert m.captures[0] == tmp_path / "caps/a.pcap"
        m.validate()

    def test_missing_key_rejected(self, tmp_path):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("name = x\n")
        with pytest.raises(CsvFormatError, match="captures"):
            parse_manifest(manifest)

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        manifest = tmp_path / "ds.manifest"
        manifest.write_bytes(b"name = \xe9t\xe9\ncaptures = a.pcap\nrules = r.csv\n")
        with pytest.raises(CsvFormatError, match="ds.manifest: 'utf-8' codec"):
            parse_manifest(manifest)

    @pytest.mark.parametrize("name", ["", "ddos/x", "ddos\\x", "ddos\0x"])
    def test_a_name_that_cannot_be_a_file_name_part_is_refused(self, tmp_path,
                                                               name):
        # Stage extract would fail on ``labeled_ddos/x.csv``; an empty name
        # would write ``labeled_.csv``.
        manifest = tmp_path / "ds.manifest"
        manifest.write_text(f"name = {name}\ncaptures = a.pcap\nrules = r.csv\n")
        with pytest.raises(CsvFormatError) as info:
            parse_manifest(manifest)
        assert str(info.value) == (f"{manifest}: dataset name {name!r} cannot "
                                   f"be part of a file name")

    VALID = ("# demo dataset\nname = demo\ncaptures = caps/a.pcap, caps/b.pcap\n"
             "rules = rules.csv\ndefault_label = Normal\nnotes = two captures\n")

    @settings(max_examples=200, deadline=None)
    @given(edits=capgen.EDITS)
    def test_mutated_file_parses_or_is_refused(self, tmp_path_factory, edits):
        manifest = tmp_path_factory.mktemp("manifest") / "ds.manifest"
        manifest.write_bytes(capgen.overwrite(self.VALID.encode(), edits))
        try:
            m = parse_manifest(manifest)
        except (CsvFormatError, ValidationError):
            return
        assert m.captures and all(isinstance(p, Path) for p in m.captures)
        assert m.name and not set(m.name) & set("/\\\0")

    def test_validate_reports_missing_paths(self, tmp_path):
        manifest = tmp_path / "ds.manifest"
        manifest.write_text("name = x\ncaptures = nope.pcap\nrules = r.csv\n")
        with pytest.raises(ValidationError, match="nope.pcap"):
            parse_manifest(manifest).validate()
