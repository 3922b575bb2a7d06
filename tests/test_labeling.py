import dataclasses
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botmeter.errors import CsvFormatError, ValidationError
from botmeter.features import FeatureVector
from botmeter.labeling import (LabelReport, LabelRule, RuleIndex, label_flows,
                               log_label_warnings, parse_rules, write_rules)
from botmeter.pcap import ip_from_str, ip_to_str
import capgen
from label_oracle import match_rule


def flow(src="10.0.0.5", sport=1000, dst="8.8.8.8", dport=80, proto=6, ts=0,
         values=()):
    return FeatureVector(
        flow_id=f"{src}-{dst}-{sport}-{dport}-{proto}",
        src_ip=src, src_port=sport, dst_ip=dst, dst_port=dport,
        protocol=proto, start_ts_us=ts, values=values)


def rules_csv(tmp_path, text, name="rules.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def first_match(f, rules):
    """The rule the index picks for flow ``f``, or None."""
    i = RuleIndex(rules).match(f)
    return None if i is None else rules[i]


HEADER = "src_ip,src_port,dst_ip,dst_port,protocol,label\n"


class TestParseRules:
    def test_exact_rule(self, tmp_path):
        rules = parse_rules(rules_csv(
            tmp_path, HEADER + "10.0.0.5,4444,8.8.8.8,80,6,Botnet\n"))
        assert len(rules) == 1
        r = rules[0]
        assert (r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.protocol) == \
            ("10.0.0.5", 4444, "8.8.8.8", 80, 6)
        assert r.label == "Botnet"
        assert not r.has_wildcard

    def test_wildcard_port(self, tmp_path):
        rules = parse_rules(rules_csv(
            tmp_path, HEADER + "10.0.0.5,*,8.8.8.8,80,6,Botnet\n"))
        assert rules[0].src_port is None
        assert rules[0].has_wildcard

    WINDOWED = HEADER.replace("label", "label,start,end")

    @pytest.mark.parametrize("text, error, message", [
        ("src_ip,src_port,dst_ip,dst_port,protocol\n10.0.0.5,1,8.8.8.8,80,6\n",
         CsvFormatError, "rule file missing mandatory column(s): label"),
        (HEADER + "10.0.0.5,1,8.8.8.8,80,6,X\nnot-an-ip,1,8.8.8.8,80,6,X\n",
         CsvFormatError, "unparsable address 'not-an-ip' in column 'src_ip' at line 3"),
        (HEADER + "10.0.0.5,x,8.8.8.8,80,6,X\n",
         CsvFormatError, "non-integer value 'x' in column 'src_port' at line 2"),
        (HEADER + "10.0.0.5,1,8.8.8.8,80,6, \n",
         ValidationError, "line 2: rule label must be non-empty"),
        (HEADER + "10.0.0.5,1,8.8.8.8,80,6\n",
         CsvFormatError, "ragged row at line 2 (5 cells, expected 6)"),
        (WINDOWED + "10.0.0.5,1,8.8.8.8,80,6,X,5,1\n",
         ValidationError, "line 2: time window start must not exceed end"),
        (HEADER + "*,*,*,*,*," + "x" * 200_000 + "\n",
         CsvFormatError, "field larger than field limit (131072) at line 2"),
        ("", CsvFormatError, "missing header row"),
        (HEADER.replace("label", "label,label,dst_port")
         + "10.0.0.5,1,8.8.8.8,80,6,A,B,81\n",
         CsvFormatError, "column(s) named more than once: 'dst_port', 'label'"),
    ], ids=["no-label-column", "bad-ip", "bad-port", "empty-label", "ragged-row",
            "window", "field-limit", "empty-file", "repeated-column"])
    def test_error_names_the_file(self, tmp_path, text, error, message):
        path = rules_csv(tmp_path, text)
        with pytest.raises(error, match=f"^{re.escape(path)}: {re.escape(message)}$"):
            parse_rules(path)

    @pytest.mark.parametrize("row, error, message", [
        ("10.0.0.5,-5,8.8.8.8,80,6,X", ValidationError,
         "line 2: src_port must be within 0..65535, got -5"),
        ("10.0.0.5,1,8.8.8.8,70000,6,X", ValidationError,
         "line 2: dst_port must be within 0..65535, got 70000"),
        ("10.0.0.5,1,8.8.8.8,80,300,X", ValidationError,
         "line 2: protocol must be within 0..255, got 300"),
        ("10.0.0.5,1_024,8.8.8.8,80,6,X", CsvFormatError,
         "non-integer value '1_024' in column 'src_port' at line 2"),
        ("10.0.0.5,1,8.8.8.8,\u0668\u0660,6,X", CsvFormatError,
         "non-integer value '\u0668\u0660' in column 'dst_port' at line 2"),
        ("fe80::1%eth0,1,8.8.8.8,80,6,X", CsvFormatError,
         "unparsable address 'fe80::1%eth0' in column 'src_ip' at line 2"),
    ], ids=["negative-port", "port-above-range", "protocol-above-range",
            "digit-group", "arabic-digits", "zone-index"])
    def test_cells_are_read_like_flow_cells(self, tmp_path, row, error, message):
        path = rules_csv(tmp_path, HEADER + row + "\n")
        with pytest.raises(error, match=f"^{re.escape(path)}: {re.escape(message)}$"):
            parse_rules(path)

    def test_cells_may_be_padded_and_empty_cells_are_wildcards(self, tmp_path):
        rules = parse_rules(rules_csv(
            tmp_path, HEADER + " 10.0.0.5 , 80 ,,\t*\t, 6 , Bot \n"))
        assert rules == [LabelRule("10.0.0.5", 80, "*", None, 6, "Bot")]

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text(HEADER + "10.0.0.5,4444,8.8.8.8,80,6,Botnet\n",
                        encoding="utf-8-sig")
        assert parse_rules(str(path)) == [
            LabelRule("10.0.0.5", 4444, "8.8.8.8", 80, 6, "Botnet")]

    def test_written_rules_read_back(self, tmp_path):
        path = tmp_path / "rules.csv"
        rules = [LabelRule("10.0.0.5", 4444, "2001:db8::1", 80, 6, 'Bot,"net"',
                           start_us=100, end_us=200),
                 LabelRule("*", None, "8.8.8.8", None, None, "Scan")]
        write_rules(path, rules)
        assert parse_rules(str(path)) == rules
        write_rules(path, rules[1:])
        assert path.read_bytes() == HEADER.encode() + b"*,*,8.8.8.8,*,*,Scan\n"

    def test_time_window_columns(self, tmp_path):
        path = rules_csv(tmp_path,
                         "src_ip,src_port,dst_ip,dst_port,protocol,label,start,end\n"
                         "10.0.0.5,1,8.8.8.8,80,6,Botnet,100,200\n")
        r = parse_rules(path)[0]
        assert (r.start_us, r.end_us) == (100, 200)
        assert r.in_window(flow(ts=150))
        assert not r.in_window(flow(ts=201))

    def test_inverted_window_rejected(self):
        with pytest.raises(ValidationError):
            LabelRule("*", None, "*", None, None, "X", start_us=5, end_us=1)

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_bytes(HEADER.encode() + b"10.0.0.5,1,8.8.8.8,80,6,Bot\xffnet\n")
        with pytest.raises(CsvFormatError, match=(
                f"^{re.escape(str(path))}: not UTF-8 text at line 2 "
                r"\(invalid start byte\)$")):
            parse_rules(str(path))

    VALID = (HEADER.replace("label", "label,start,end")
             + "10.0.0.5,4444,8.8.8.8,80,6,Botnet,100,200\n"
             + "*,*,2001:db8::1,*,17,Scan,,\n"
             + "192.168.1.9,*,*,53,*,Dns,,\n")

    @settings(max_examples=200, deadline=None)
    @given(edits=capgen.EDITS)
    def test_mutated_file_parses_or_is_refused(self, tmp_path_factory, edits):
        path = tmp_path_factory.mktemp("rules") / "rules.csv"
        path.write_bytes(capgen.overwrite(self.VALID.encode(), edits))
        try:
            rules = parse_rules(str(path))
        except (CsvFormatError, ValidationError):
            return
        assert all(rule.label for rule in rules)


class TestLabelFlows:
    def exact(self, label="Botnet", **kw):
        base = dict(src_ip="10.0.0.5", src_port=1000, dst_ip="8.8.8.8",
                    dst_port=80, protocol=6, label=label)
        base.update(kw)
        return LabelRule(**base)

    def test_exact_orientation_match(self):
        labels, report = label_flows([flow()], [self.exact()])
        assert labels[0] == "Botnet"
        assert report.counts["Botnet"] == 1
        assert report.unmatched == 0

    def test_reversed_orientation_match(self):
        reply_flow = flow(src="8.8.8.8", sport=80, dst="10.0.0.5", dport=1000)
        labels, _ = label_flows([reply_flow], [self.exact()])
        assert labels[0] == "Botnet"

    def test_unmatched_gets_default(self, caplog):
        rules = [self.exact()]
        with caplog.at_level(logging.WARNING):
            labels, report = label_flows([flow(src="1.2.3.4")], rules,
                                         default_label="Normal")
            assert not caplog.records  # label_flows itself never warns
            log_label_warnings(report, rules, "Normal")
        assert labels[0] == "Normal"
        assert report.unmatched == 1
        assert any("matched no rule" in r.message for r in caplog.records)

    def test_precedence_exact_beats_reversed_beats_wildcard(self):
        # One flow, three candidate rules in deliberately bad file order.
        f = flow()
        wildcard = LabelRule("10.0.0.5", None, "*", None, None, "wild")
        reverse = LabelRule("8.8.8.8", 80, "10.0.0.5", 1000, 6, "rev")
        exact = self.exact(label="exact")
        assert first_match(f, [wildcard, reverse, exact]).label == "exact"
        assert first_match(f, [wildcard, reverse]).label == "rev"
        assert first_match(f, [wildcard]).label == "wild"

    def test_first_rule_wins_within_tier(self):
        a = self.exact(label="first")
        b = self.exact(label="second")
        assert first_match(flow(), [a, b]).label == "first"

    def test_windowed_rule_skipped_outside_window(self):
        windowed = self.exact(start_us=0, end_us=10)
        labels, _ = label_flows([flow(ts=50)], [windowed], default_label="Normal")
        assert labels[0] == "Normal"

    def test_completeness_and_flow_order_independence(self):
        flows = [flow(sport=p) for p in (1000, 2000, 3000)]
        rules = [self.exact(), LabelRule("10.0.0.5", 2000, "8.8.8.8", 80, 6, "DDoS")]
        labels_ab, _ = label_flows(flows, rules)
        labels_ba, _ = label_flows(list(reversed(flows)), rules)
        assert len(labels_ab) == len(flows)
        by_port = {f.src_port: lab for f, lab in zip(flows, labels_ab)}
        assert by_port == {f.src_port: lab
                           for f, lab in zip(reversed(flows), labels_ba)}
        assert by_port == {1000: "Botnet", 2000: "DDoS", 3000: "Normal"}

    def test_empty_rules_rejected(self):
        with pytest.raises(ValidationError, match="need at least one label rule"):
            label_flows([flow()], [])
        with pytest.raises(ValidationError, match="need at least one label rule"):
            RuleIndex([])

    def test_a_rule_index_labels_like_its_rule_list(self):
        rules = [self.exact(), self.exact(label="Dns", src_ip="*", src_port=None)]
        flows = [flow(), flow(sport=7), flow(src="1.2.3.4", dport=53)]
        assert (label_flows(flows, RuleIndex(rules), "Normal")
                == label_flows(flows, rules, "Normal"))

    def test_merged_reports_equal_one_report_over_all_flows(self):
        rules = [self.exact(), self.exact(label="Dns", src_ip="*", src_port=None)]
        flows = [flow(src="1.2.3.4", dport=53), flow(), flow(sport=7),
                 flow(src="1.2.3.4")]
        merged = LabelReport(rule_matches=[0, 0])
        for part in (flows[:1], flows[1:3], flows[3:]):
            merged.merge(label_flows(part, rules)[1])
        whole = label_flows(flows, rules)[1]
        assert merged == whole
        assert list(merged.counts) == list(whole.counts)  # first-seen order

    @pytest.mark.parametrize("text", ["::ffff:1.2.3.4", "::1.2.3.4",
                                      "2001:DB8:0:0::1", "10.0.0.5"])
    def test_rule_address_text_is_the_flow_address_text(self, tmp_path, text):
        # Flows render addresses with inet_ntop, which keeps the dotted
        # tail of IPv4-mapped and IPv4-compatible IPv6 addresses.
        flow_text = ip_to_str(ip_from_str(text))
        rules = parse_rules(rules_csv(
            tmp_path, HEADER + f"{text},1000,8.8.8.8,80,6,Botnet\n"))
        assert rules[0].src_ip == flow_text
        labels, _ = label_flows([flow(src=flow_text)], rules)
        assert labels[0] == "Botnet"

    def test_rules_that_matched_no_flow_are_counted_and_logged(self, tmp_path, caplog):
        path = rules_csv(tmp_path, HEADER + "10.0.0.5,1000,8.8.8.8,80,6,Botnet\n\n"
                                            "1.1.1.1,*,*,*,*,Scan\n"
                                            "*,*,8.8.8.8,*,*,Dns\n")
        rules = parse_rules(path)
        assert [r.line for r in rules] == [2, 4, 5]
        coded = rules[:1] + [self.exact(src_ip="1.1.1.1")]
        with caplog.at_level(logging.WARNING):
            _, report = label_flows([flow(), flow(sport=7)], rules)
            log_label_warnings(report, rules, "Normal")
            log_label_warnings(label_flows([flow()], coded)[1], coded, "Normal")
        assert report.rule_matches == [1, 0, 1]
        messages = [r.message for r in caplog.records]
        assert messages == ["1 of 3 rules matched no flow: line 4",
                            "1 of 2 rules matched no flow: rule 2"]


# Small pools so that random rules and flows often share fields.
IPS = ("10.0.0.1", "10.0.0.2", "2001:db8::1", "::ffff:1.2.3.4")
PORTS = (80, 1000, 5353)
PROTOCOLS = (6, 17)
TIMES = (0, 5, 10)


@st.composite
def flows_and_rules(draw):
    f = flow(src=draw(st.sampled_from(IPS)), sport=draw(st.sampled_from(PORTS)),
             dst=draw(st.sampled_from(IPS)), dport=draw(st.sampled_from(PORTS)),
             proto=draw(st.sampled_from(PROTOCOLS)), ts=draw(st.sampled_from(TIMES)))
    rules = []
    for n in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):  # the flow's own ends, either way round
            ends = [f.src_ip, f.src_port, f.dst_ip, f.dst_port]
            if draw(st.booleans()):
                ends = ends[2:] + ends[:2]
            fields = [*ends, f.protocol]
        else:
            fields = [draw(st.sampled_from(IPS)), draw(st.sampled_from(PORTS)),
                      draw(st.sampled_from(IPS)), draw(st.sampled_from(PORTS)),
                      draw(st.sampled_from(PROTOCOLS))]
        for pos in draw(st.sets(st.integers(0, 4), max_size=5)):
            fields[pos] = "*" if pos in (0, 2) else None
        window = draw(st.none() | st.lists(st.sampled_from(TIMES), min_size=2,
                                           max_size=2).map(sorted))
        start, end = window or (None, None)
        rule = LabelRule(*fields, label=f"r{n}", start_us=start, end_us=end)
        rules.append(rule)
        if draw(st.integers(0, 3)) == 0:  # same fields, another label, anywhere
            rules.insert(draw(st.integers(0, len(rules))),
                         dataclasses.replace(rule, label=f"r{n}dup"))
    return f, rules


@settings(max_examples=200, deadline=None)
@given(flows_and_rules())
def test_index_picks_the_oracle_rule(case):
    f, rules = case
    assert first_match(f, rules) is match_rule(f, rules)
