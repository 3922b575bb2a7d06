"""Ground-truth labeling of flows by 5-tuple rule matching.

Dataset providers enumerate malicious endpoints; everything unmatched falls
back to the default label with a loud summary warning.  Match precedence:
exact-orientation 5-tuple, then reversed orientation, then rules containing
wildcards (either orientation); within a tier the first rule in file order
wins.  A rule with a time window only applies to flows starting inside it.

Rules are found by tuple-space search (Srinivasan, Suri & Varghese,
SIGCOMM 1999): see ``RuleIndex``.
"""

from __future__ import annotations

import csv
import ipaddress
import logging
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import CsvFormatError, ValidationError
from .features import FeatureVector
from .pcap import ip_to_str

logger = logging.getLogger(__name__)

WILDCARD = "*"
_MANDATORY = ("src_ip", "src_port", "dst_ip", "dst_port", "protocol", "label")


@dataclass(frozen=True)
class LabelRule:
    src_ip: str          # normalized address text or "*"
    src_port: int | None  # None is wildcard
    dst_ip: str
    dst_port: int | None
    protocol: int | None
    label: str
    start_us: int | None = None
    end_us: int | None = None
    line: int | None = field(default=None, compare=False)  # rule-file line

    def __post_init__(self):
        if not self.label:
            raise ValidationError("rule label must be non-empty")
        if (self.start_us is None) != (self.end_us is None):
            raise ValidationError("time window needs both start and end")
        if self.start_us is not None and self.start_us > self.end_us:
            raise ValidationError("time window start must not exceed end")

    @property
    def has_wildcard(self) -> bool:
        return (self.src_ip == WILDCARD or self.dst_ip == WILDCARD
                or self.src_port is None or self.dst_port is None
                or self.protocol is None)

    def in_window(self, flow: FeatureVector) -> bool:
        if self.start_us is None:
            return True
        return self.start_us <= flow.start_ts_us <= self.end_us


def _no_fields(_key) -> tuple:
    return ()


class RuleIndex:
    """Tuple-space search over a rule list.

    Rules without wildcards sit in one table keyed on the 5-tuple (source
    IP, source port, destination IP, destination port, protocol).  Wildcard
    rules get one table per pattern of concrete fields, keyed on just those
    fields.  Each bucket lists rule positions in file order, and a time
    window is checked only on a bucket's candidates.  A flow probes the
    exact table with its forward key, then its reversed key, then every
    pattern table in both orientations, keeping the lowest position.
    """

    def __init__(self, rules: list[LabelRule]):
        self.rules = rules
        self._exact: dict[tuple, list[int]] = {}
        # Concrete field positions -> (key getter, table).  itemgetter gives
        # a bare value for one field; rule and flow keys both come from the
        # same getter, so they agree.
        patterns: dict[tuple, tuple] = {}
        for i, rule in enumerate(rules):
            key = (rule.src_ip, rule.src_port, rule.dst_ip, rule.dst_port,
                   rule.protocol)
            if not rule.has_wildcard:
                self._exact.setdefault(key, []).append(i)
                continue
            concrete = tuple(p for p, v in enumerate(key)
                             if v is not None and v != WILDCARD)
            if concrete not in patterns:
                getter = itemgetter(*concrete) if concrete else _no_fields
                patterns[concrete] = (getter, {})
            getter, table = patterns[concrete]
            table.setdefault(getter(key), []).append(i)
        self._patterns = list(patterns.values())

    def match(self, flow: FeatureVector) -> int | None:
        """Position of the rule that labels ``flow``, or None."""
        rules = self.rules
        forward = (flow.src_ip, flow.src_port, flow.dst_ip, flow.dst_port,
                   flow.protocol)
        reverse = (flow.dst_ip, flow.dst_port, flow.src_ip, flow.src_port,
                   flow.protocol)
        exact = self._exact
        for key in (forward, reverse):
            for i in exact.get(key, ()):
                if rules[i].in_window(flow):
                    return i
        best = None
        for getter, table in self._patterns:
            for key in (forward, reverse):
                for i in table.get(getter(key), ()):
                    if best is not None and i >= best:
                        break
                    if rules[i].in_window(flow):
                        best = i
                        break
        return best


@dataclass
class LabelReport:
    counts: Counter = field(default_factory=Counter)
    unmatched: int = 0
    rule_matches: list[int] = field(default_factory=list)  # flows per rule

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _parse_ip_cell(cell: str, line_no: int, column: str) -> str:
    cell = cell.strip()
    if cell == WILDCARD:
        return WILDCARD
    try:
        # Validated by ipaddress, rendered like a flow's own address text.
        return ip_to_str(ipaddress.ip_address(cell).packed)
    except ValueError:
        raise CsvFormatError(
            f"line {line_no}: column {column!r} has unparseable IP {cell!r}") from None


def _parse_int_cell(cell: str, line_no: int, column: str) -> int | None:
    cell = cell.strip()
    if cell in (WILDCARD, ""):
        return None
    try:
        return int(cell)
    except ValueError:
        raise CsvFormatError(
            f"line {line_no}: column {column!r} is not an integer: {cell!r}") from None


def parse_rules(path: str) -> list[LabelRule]:
    """Read a rule CSV: src_ip, src_port, dst_ip, dst_port, protocol, label
    plus optional start/end microsecond columns; "*" means wildcard.  Text
    that is not UTF-8 CSV is a format error."""
    rules = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in _MANDATORY if c not in header]
            if missing:
                raise CsvFormatError(f"rule file missing mandatory column(s): "
                                     f"{', '.join(missing)}")
            for row in reader:
                line_no = reader.line_num
                label = (row["label"] or "").strip()
                if not label:
                    raise CsvFormatError(f"line {line_no}: empty label")
                rules.append(LabelRule(
                    src_ip=_parse_ip_cell(row["src_ip"] or "*", line_no, "src_ip"),
                    src_port=_parse_int_cell(row["src_port"] or "*", line_no, "src_port"),
                    dst_ip=_parse_ip_cell(row["dst_ip"] or "*", line_no, "dst_ip"),
                    dst_port=_parse_int_cell(row["dst_port"] or "*", line_no, "dst_port"),
                    protocol=_parse_int_cell(row["protocol"] or "*", line_no, "protocol"),
                    label=label,
                    start_us=_parse_int_cell(row.get("start") or "", line_no, "start"),
                    end_us=_parse_int_cell(row.get("end") or "", line_no, "end"),
                    line=line_no,
                ))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    return rules


def label_flows(flows, rules: list[LabelRule],
                default_label: str = "Normal") -> tuple[list[str], LabelReport]:
    """One label per flow, in flow order, and the report of the matches."""
    if not rules:
        raise ValidationError("need at least one label rule")
    index = RuleIndex(rules)
    report = LabelReport(rule_matches=[0] * len(rules))
    hits = report.rule_matches
    labels = []
    for flow in flows:
        i = index.match(flow)
        if i is None:
            label = default_label
            report.unmatched += 1
        else:
            label = rules[i].label
            hits[i] += 1
        report.counts[label] += 1
        labels.append(label)
    if report.unmatched:
        logger.warning(
            "%d of %d flows matched no rule and were labeled %r",
            report.unmatched, report.total, default_label)
    # By rule-file line; rules built in code have none, so by position.
    idle = [f"line {rule.line}" if rule.line is not None else f"rule {i + 1}"
            for i, rule in enumerate(rules) if not hits[i]]
    if idle:
        logger.warning("%d of %d rules matched no flow: %s",
                       len(idle), len(rules), ", ".join(idle))
    return labels, report


def labels_to_binary(labels, negative_label: str = "Normal") -> list[int]:
    """Collapse string labels for training: anything but the negative label
    is the positive (attack) class."""
    return [0 if lb == negative_label else 1 for lb in labels]
