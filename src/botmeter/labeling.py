"""Ground-truth labeling of flows by 5-tuple rule matching.

Dataset providers enumerate malicious endpoints; everything unmatched falls
back to the default label, and ``log_label_warnings`` reports them and
the rules that matched no flow.  Match precedence:
exact-orientation 5-tuple, then reversed orientation, then rules containing
wildcards (either orientation); within a tier the first rule in file order
wins.  A rule with a time window only applies to flows starting inside it.

Rules are found by tuple-space search (Srinivasan, Suri & Varghese,
SIGCOMM 1999): see ``RuleIndex``.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from contextlib import closing
from dataclasses import astuple, dataclass, field
from operator import itemgetter

from .dataset import address_cell, csv_rows, number_cells, refuse_repeated_names
from .errors import CsvFormatError, ValidationError
from .features import FeatureVector

logger = logging.getLogger(__name__)

WILDCARD = "*"
_MANDATORY = ("src_ip", "src_port", "dst_ip", "dst_port", "protocol", "label")
# The rule-file columns read as addresses or ints, in LabelRule order.
_TYPED_COLUMNS = ("src_ip", "src_port", "dst_ip", "dst_port", "protocol",
                  "start", "end")


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
        for name, top in (("src_port", 65535), ("dst_port", 65535),
                          ("protocol", 255)):
            value = getattr(self, name)
            if value is not None and not 0 <= value <= top:
                raise ValidationError(f"{name} must be within 0..{top}, got {value}")
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
    pattern table in both orientations, keeping the lowest position.  An
    empty rule list is a ValidationError.
    """

    def __init__(self, rules: list[LabelRule]):
        if not rules:
            raise ValidationError("need at least one label rule")
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

    def merge(self, other: LabelReport) -> None:
        """Add the counts of ``other``, a report over the same rules."""
        self.counts.update(other.counts)
        self.unmatched += other.unmatched
        self.rule_matches = [a + b for a, b in
                             zip(self.rule_matches, other.rule_matches)]


def _rule_cell(path, row, column, line_no):
    """The stripped cell of ``column`` in a rule-file ``row``: ``*`` or an
    empty cell is a wildcard (``*`` for an address, None for a number);
    other text is read as a flow CSV's address or int cell."""
    text = row.get(column, "")
    address = column.endswith("_ip")
    if text in (WILDCARD, ""):
        return WILDCARD if address else None
    if address:
        return address_cell(path, text, column, line_no)
    return number_cells(path, (text,), (0,), ((column, int),), line_no)[0]


def parse_rules(path: str) -> list[LabelRule]:
    """Read a rule CSV: src_ip, src_port, dst_ip, dst_port, protocol, label
    plus optional start/end microsecond columns; "*" or an empty cell means
    wildcard.  The file is read by ``dataset.csv_rows`` and its cells,
    stripped of surrounding whitespace, by ``dataset.address_cell`` and
    ``dataset.number_cells``, so a ragged row, text that is not UTF-8 and an
    unreadable address or number are format errors, as is a header that
    names one column twice; every error names the file, and the line of a
    bad row."""
    rules = []
    with closing(csv_rows(path)) as records:
        header = next(records)
        refuse_repeated_names(path, header)
        missing = [c for c in _MANDATORY if c not in header]
        if missing:
            raise CsvFormatError(f"{path}: rule file missing mandatory column(s): "
                                 f"{', '.join(missing)}")
        for line_no, cells in records:
            row = dict(zip(header, map(str.strip, cells)))
            src_ip, src_port, dst_ip, dst_port, protocol, start, end = (
                _rule_cell(path, row, column, line_no) for column in _TYPED_COLUMNS)
            try:
                rules.append(LabelRule(src_ip, src_port, dst_ip, dst_port, protocol,
                                       row["label"], start, end, line=line_no))
            except ValidationError as exc:
                raise ValidationError(f"{path}: line {line_no}: {exc}") from None
    return rules


def write_rules(path, rules) -> None:
    """Write LabelRules as a rule CSV that ``parse_rules`` reads back: the
    mandatory columns, then start and end when a rule has a time window; a
    wildcard is ``*``."""
    windowed = any(rule.start_us is not None for rule in rules)
    columns = _MANDATORY + (("start", "end") if windowed else ())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for rule in rules:
            writer.writerow(WILDCARD if cell is None else cell
                            for cell in astuple(rule)[:len(columns)])


def label_flows(flows, rules: list[LabelRule] | RuleIndex,
                default_label: str = "Normal") -> tuple[list[str], LabelReport]:
    """One label per flow, in flow order, and the report of the matches.
    ``rules`` may be a RuleIndex, so that a caller labeling flows in batches
    builds the index once."""
    index = rules if isinstance(rules, RuleIndex) else RuleIndex(rules)
    rules = index.rules
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
    return labels, report


def log_label_warnings(report: LabelReport, rules: list[LabelRule],
                       default_label: str) -> None:
    """Warn once about the flows of ``report`` that matched no rule, and once
    about the rules that matched no flow."""
    if report.unmatched:
        logger.warning(
            "%d of %d flows matched no rule and were labeled %r",
            report.unmatched, report.total, default_label)
    # By rule-file line; rules built in code have none, so by position.
    idle = [f"line {rule.line}" if rule.line is not None else f"rule {i + 1}"
            for i, rule in enumerate(rules) if not report.rule_matches[i]]
    if idle:
        logger.warning("%d of %d rules matched no flow: %s",
                       len(idle), len(rules), ", ".join(idle))
