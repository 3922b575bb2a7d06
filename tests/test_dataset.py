import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botmeter.dataset import (FeatureTable, format_number, normalize_feature_name,
                              parse_manifest, read_feature_csv, read_flow_csv,
                              train_test_split, write_feature_csv, write_flow_csv)
from botmeter.errors import CsvFormatError, ValidationError
from botmeter.features import FEATURE_NAMES, IDENTITY_COLUMNS

import capgen

ZEROS = (0.0,) * len(FEATURE_NAMES)


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


class TestFeatureCsv:
    def test_roundtrip_small_table(self, tmp_path):
        table = FeatureTable(["a", "b", "c"], [[1.5, 2, 3], [4, 5.25, 6]])
        path = tmp_path / "t.csv"
        write_feature_csv(table, path)
        back = read_feature_csv(path)
        assert back.columns == ["a", "b", "c"]
        np.testing.assert_array_equal(back.rows, table.rows)

    def test_roundtrip_keeps_six_fractional_digits(self, tmp_path):
        table = FeatureTable(["x"], [[1 / 3], [2 / 7]])
        path = tmp_path / "t.csv"
        write_feature_csv(table, path)
        back = read_feature_csv(path)
        np.testing.assert_allclose(back.rows, table.rows, atol=5e-7)

    def test_alias_headers_normalized_on_read(self, tmp_path):
        path = tmp_path / "aliased.csv"
        path.write_text("Pkt Len Mean,Flow Byts/s,Label\n1.0,2.0,Botnet\n")
        table = read_feature_csv(path)
        assert table.columns == ["Packet Length Mean", "Flow Bytes/s"]
        assert table.labels.tolist() == [1]

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c\n1,2,3\n1,2\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_feature_csv(path)

    @pytest.mark.parametrize("reader", [read_feature_csv, read_flow_csv])
    def test_readers_reject_missing_header_and_ragged_row(self, reader, tmp_path):
        from test_labeling import flow

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

    def test_non_numeric_cell_names_column(self, tmp_path):
        from test_labeling import flow

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
            read_flow_csv(path)
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

    def test_flow_csv_headers_and_labels(self, tmp_path):
        from test_labeling import flow

        values = [0.0] * len(FEATURE_NAMES)
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
        from test_labeling import flow

        rows = [flow(sport=sport, values=ZEROS) for sport in (1000, 1001)]
        path = tmp_path / "flows.csv"
        write_flow_csv(path, rows, ["Botnet"] * len(rows))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = "8x"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError,
                           match=f"flows.csv: non-integer '{column}' cell at line 3"):
            read_flow_csv(path)

    def test_flow_csv_addresses_read_in_flow_text_form(self, tmp_path):
        from botmeter.labeling import label_flows, parse_rules
        from test_labeling import flow

        fv = flow(src="2001:db8:0:0:0:0:0:1", dst="2001:DB8::0:2", values=ZEROS)
        path = tmp_path / "flows.csv"
        write_flow_csv(path, [fv])
        (back,), labels = read_flow_csv(path)
        assert labels is None
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
        from test_labeling import flow

        rows = [flow(sport=sport, values=ZEROS) for sport in (1000, 1001)]
        path = tmp_path / "flows.csv"
        write_flow_csv(path, rows)
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        table[2][table[0].index(column)] = text
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        with pytest.raises(CsvFormatError) as info:
            read_flow_csv(path)
        assert str(info.value) == (
            f"{path}: unparsable address {text!r} in column {column!r} at line 3")

    def test_binary_label_column_read_back(self, tmp_path):
        table = FeatureTable(["a"], [[1.0], [2.0]], labels=[0, 1])
        path = tmp_path / "lab.csv"
        write_feature_csv(table, path)
        back = read_feature_csv(path)
        assert back.labels.tolist() == [0, 1]


class TestFormatNumber:
    def test_integral_floats_render_as_ints(self):
        assert format_number(350.0) == "350"
        assert format_number(-1.0) == "-1"
        assert format_number(0.0) == "0"

    def test_fractions_capped_at_six_digits(self):
        assert format_number(1 / 3) == "0.333333"
        assert format_number(76.37626158259734) == "76.376262"

    # The flow CSV writer formats ints and floats without calling
    # format_number; its cells must still read exactly as format_number's.
    CELL_VALUES = st.one_of(
        st.integers(-10**18, 10**18),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-10**16, 10**16).map(float),
        st.sampled_from([1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 2, -(1e15 + 2),
                         -0.0, 1e-7, -1e-7, math.nan, math.inf, -math.inf]),
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    )

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(CELL_VALUES, min_size=len(FEATURE_NAMES),
                           max_size=len(FEATURE_NAMES)))
    def test_flow_csv_cells_equal_format_number(self, tmp_path_factory, values):
        from test_labeling import flow

        fv = flow(values=tuple(values))
        path = tmp_path_factory.mktemp("cells") / "flows.csv"
        write_flow_csv(path, [fv])
        with open(path, newline="", encoding="utf-8") as fh:
            _, row = csv.reader(fh)
        start = len(IDENTITY_COLUMNS)
        assert row[start:start + len(values)] == [format_number(v) for v in values]


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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           ratio=st.floats(0.05, 0.95))
    def test_partition_property(self, n, seed, ratio):
        table = self.table(n, seed=n)
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
            "default_label = Normal\n")
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

    def test_validate_reports_missing_paths(self, tmp_path):
        manifest = tmp_path / "ds.manifest"
        manifest.write_text("name = x\ncaptures = nope.pcap\nrules = r.csv\n")
        with pytest.raises(ValidationError, match="nope.pcap"):
            parse_manifest(manifest).validate()
