"""Feature-table I/O, feature-name normalization and train/test splitting.

Flow feature CSVs exist in two naming generations (long CICIDS2017-style
names and the abbreviated style of newer extractors); every reader here
normalizes headers to the long canonical form first so that downstream
frequency counting compares like with like.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import re
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, ValidationError
from .features import FEATURE_NAMES, IDENTITY_COLUMNS, FeatureVector
from .labeling import labels_to_binary
from .pcap import ip_from_str, ip_to_str

logger = logging.getLogger(__name__)

LABEL_COLUMN = "Label"

# Abbreviated-generation spellings -> canonical long names.  Canonical names
# and identity columns are fixed points and are not listed.
NAME_ALIASES = {
    "Tot Fwd Pkts": "Total Fwd Packets",
    "Tot Bwd Pkts": "Total Backward Packets",
    "Total Fwd Packet": "Total Fwd Packets",
    "Total Bwd packets": "Total Backward Packets",
    "TotLen Fwd Pkts": "Total Length of Fwd Packets",
    "TotLen Bwd Pkts": "Total Length of Bwd Packets",
    "Total Length of Fwd Packet": "Total Length of Fwd Packets",
    "Total Length of Bwd Packet": "Total Length of Bwd Packets",
    "Fwd Pkt Len Max": "Fwd Packet Length Max",
    "Fwd Pkt Len Min": "Fwd Packet Length Min",
    "Fwd Pkt Len Mean": "Fwd Packet Length Mean",
    "Fwd Pkt Len Std": "Fwd Packet Length Std",
    "Bwd Pkt Len Max": "Bwd Packet Length Max",
    "Bwd Pkt Len Min": "Bwd Packet Length Min",
    "Bwd Pkt Len Mean": "Bwd Packet Length Mean",
    "Bwd Pkt Len Std": "Bwd Packet Length Std",
    "Flow Byts/s": "Flow Bytes/s",
    "Flow Pkts/s": "Flow Packets/s",
    "Fwd IAT Tot": "Fwd IAT Total",
    "Bwd IAT Tot": "Bwd IAT Total",
    "Fwd Header Len": "Fwd Header Length",
    "Bwd Header Len": "Bwd Header Length",
    "Fwd Pkts/s": "Fwd Packets/s",
    "Bwd Pkts/s": "Bwd Packets/s",
    "Pkt Len Min": "Min Packet Length",
    "Pkt Len Max": "Max Packet Length",
    "Packet Length Min": "Min Packet Length",
    "Packet Length Max": "Max Packet Length",
    "Pkt Len Mean": "Packet Length Mean",
    "Pkt Len Std": "Packet Length Std",
    "Pkt Len Var": "Packet Length Variance",
    "FIN Flag Cnt": "FIN Flag Count",
    "SYN Flag Cnt": "SYN Flag Count",
    "RST Flag Cnt": "RST Flag Count",
    "PSH Flag Cnt": "PSH Flag Count",
    "ACK Flag Cnt": "ACK Flag Count",
    "URG Flag Cnt": "URG Flag Count",
    "CWR Flag Cnt": "CWR Flag Count",
    "CWE Flag Count": "CWR Flag Count",  # CICIDS2017 header quirk
    "ECE Flag Cnt": "ECE Flag Count",
    "Pkt Size Avg": "Average Packet Size",
    "Fwd Seg Size Avg": "Avg Fwd Segment Size",
    "Bwd Seg Size Avg": "Avg Bwd Segment Size",
    "Init Fwd Win Byts": "Init Fwd Win Bytes",
    "Init Bwd Win Byts": "Init Bwd Win Bytes",
    "FWD Init Win Bytes": "Init Fwd Win Bytes",
    "Init_Win_bytes_forward": "Init Fwd Win Bytes",
    "Init_Win_bytes_backward": "Init Bwd Win Bytes",
    "Src IP": "Source IP",
    "Src Port": "Source Port",
    "Dst IP": "Destination IP",
    "Dst Port": "Destination Port",
}

_CANONICAL = frozenset(FEATURE_NAMES) | frozenset(IDENTITY_COLUMNS) | {LABEL_COLUMN}


def normalize_feature_name(name: str) -> tuple[str, bool]:
    """Map a header to its canonical spelling.

    Returns (canonical, known).  Unknown names pass through unchanged
    (whitespace-tidied) with known=False.
    """
    tidy = re.sub(r"\s+", " ", name.strip())
    if tidy in NAME_ALIASES:
        return NAME_ALIASES[tidy], True
    if tidy in _CANONICAL:
        return tidy, True
    logger.debug("unknown feature name %r kept as-is", tidy)
    return tidy, False


@dataclass
class FeatureTable:
    """Numeric feature matrix with canonical column names and, optionally,
    binary labels.  Identity columns never enter the matrix."""

    columns: list[str]
    rows: np.ndarray          # (n, d) float64
    labels: np.ndarray | None = None  # (n,) ints in {0, 1}

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValidationError(
                f"row width {self.rows.shape} does not match "
                f"{len(self.columns)} columns")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != len(self.rows):
                raise ValidationError("labels length must equal row count")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def select(self, columns) -> "FeatureTable":
        """Restrict to the given columns, in the given order."""
        idx = []
        for name in columns:
            try:
                idx.append(self.columns.index(name))
            except ValueError:
                raise ValidationError(f"table has no column {name!r}") from None
        return FeatureTable(list(columns), self.rows[:, idx], self.labels)

    def take(self, indices) -> "FeatureTable":
        labels = self.labels[indices] if self.labels is not None else None
        return FeatureTable(self.columns, self.rows[indices], labels)


def _csv_rows(path):
    """Yield a CSV file's normalized header, then ``(line number, cells)`` for
    each non-empty row.  A missing header or a ragged row is a format error."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        raw_header = next(reader, None)
        if raw_header is None:
            raise CsvFormatError(f"{path}: missing header row")
        header = [normalize_feature_name(h)[0] for h in raw_header]
        yield header
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: ragged row at line {line_no} "
                    f"({len(row)} cells, expected {len(header)})")
            yield line_no, row


def format_number(x: float) -> str:
    """Up to six fractional digits; integral values render as integers."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.6f}"


def _format_float(x: float) -> str:
    """``format_number`` for an exact ``float``: ``is_integer`` is False for
    nan and inf, so no separate finiteness test is needed."""
    if x.is_integer() and -1e15 < x < 1e15:
        return str(int(x))
    return f"{x:.6f}"


def write_flow_csv(path, flows, labels=None) -> None:
    """Write flows (FeatureVectors) to the canonical flow CSV: identity
    columns, the 65 features, then Label when ``labels`` (one per flow) is
    given."""
    header = list(IDENTITY_COLUMNS) + list(FEATURE_NAMES)
    if labels is not None:
        if len(labels) != len(flows):
            raise ValidationError(f"{len(labels)} labels for {len(flows)} flows")
        header.append(LABEL_COLUMN)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, flow in enumerate(flows):
            cells = [flow.flow_id, flow.src_ip, flow.src_port, flow.dst_ip,
                     flow.dst_port, flow.protocol, flow.start_ts_us]
            # Features hold ints and floats; any other type (bool, numpy
            # scalars) takes the general path.
            cells += [_format_float(v) if type(v) is float
                      else str(v) if type(v) is int else format_number(v)
                      for v in flow.values]
            if labels is not None:
                cells.append(labels[i])
            writer.writerow(cells)


def write_feature_csv(table: FeatureTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(table.columns)
        if table.labels is not None:
            header.append(LABEL_COLUMN)
        writer.writerow(header)
        for i in range(table.n_rows):
            cells = [format_number(v) for v in table.rows[i]]
            if table.labels is not None:
                cells.append(str(int(table.labels[i])))
            writer.writerow(cells)


def read_feature_csv(path, negative_label: str = "Normal") -> FeatureTable:
    """Load a feature CSV into a table.

    Headers are normalized; identity columns are dropped from the matrix; a
    Label column (string or binary) becomes binary labels.  Ragged rows,
    non-numeric cells and non-finite cells (``inf``, ``Infinity``, ``NaN``)
    are format errors naming the line and column.
    """
    with closing(_csv_rows(path)) as records:
        header = next(records)
        feature_idx = [i for i, name in enumerate(header)
                       if name not in IDENTITY_COLUMNS and name != LABEL_COLUMN]
        label_idx = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
        columns = [header[i] for i in feature_idx]
        data: list[list[float]] = []
        labels: list[str] = []
        for line_no, row in records:
            data.append(_float_cells(path, row, feature_idx, columns, line_no))
            if label_idx is not None:
                labels.append(row[label_idx])
    table_labels = None
    if label_idx is not None:
        if all(lb in ("0", "1") for lb in labels):
            table_labels = [int(lb) for lb in labels]
        else:
            table_labels = labels_to_binary(labels, negative_label)
    rows = np.asarray(data, dtype=np.float64) if data else np.empty((0, len(columns)))
    if not np.isfinite(rows).all():
        r, c = np.argwhere(~np.isfinite(rows))[0]
        line_no, text = _cell(path, r, feature_idx[c])
        raise CsvFormatError(
            f"{path}: non-finite value {text!r} in column "
            f"{header[feature_idx[c]]!r} at line {line_no}")
    return FeatureTable(columns, rows, table_labels)


def _float_cells(path, row, indices, names, line_no) -> list[float]:
    """The cells of ``row`` at ``indices`` as floats.  A non-numeric cell is
    a format error naming its text, its column (from ``names``) and its line."""
    values = []
    for i, name in zip(indices, names):
        try:
            values.append(float(row[i]))
        except ValueError:
            raise CsvFormatError(
                f"{path}: non-numeric value {row[i]!r} in column {name!r} "
                f"at line {line_no}") from None
    return values


def _cell(path, index, column) -> tuple[int, str]:
    """The line number and text of one cell of data row ``index``, read
    again from the file (only on the error path, so reads stay one pass)."""
    with closing(_csv_rows(path)) as records:
        next(records)
        line_no, row = next(itertools.islice(records, index, None))
    return line_no, row[column]


_INT_IDENTITY_COLUMNS = ("Source Port", "Destination Port", "Protocol", "Timestamp")


def read_flow_csv(path) -> tuple[list, list[str] | None]:
    """Load a flow CSV back into FeatureVectors (plus labels when present).

    The inverse of write_flow_csv; needs the identity columns and all 65
    canonical features (aliases accepted).  Addresses are rewritten in the
    flows' own text form (``pcap.ip_to_str``), so ``2001:db8:0:0:0:0:0:1``
    reads as ``2001:db8::1``.  Non-numeric and non-finite feature cells and
    unparsable addresses are format errors naming the cell's text, its
    column and its line."""
    with closing(_csv_rows(path)) as records:
        positions = {name: i for i, name in enumerate(next(records))}
        missing = [c for c in (*IDENTITY_COLUMNS, *FEATURE_NAMES)
                   if c not in positions]
        if missing:
            raise CsvFormatError(
                f"{path}: flow CSV missing column(s): {', '.join(missing[:4])}"
                + (" ..." if len(missing) > 4 else ""))
        has_label = LABEL_COLUMN in positions
        feature_idx = [positions[name] for name in FEATURE_NAMES]
        flows, labels = [], []
        for line_no, row in records:
            values = _float_cells(path, row, feature_idx, FEATURE_NAMES, line_no)
            if not all(map(math.isfinite, values)):
                name = next(n for n, v in zip(FEATURE_NAMES, values)
                            if not math.isfinite(v))
                raise CsvFormatError(
                    f"{path}: non-finite value {row[positions[name]]!r} in "
                    f"column {name!r} at line {line_no}")
            ints = {}
            for name in _INT_IDENTITY_COLUMNS:
                try:
                    ints[name] = int(row[positions[name]])
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: non-integer {name!r} cell at line {line_no}"
                    ) from None
            flows.append(FeatureVector(
                flow_id=row[positions["Flow ID"]],
                src_ip=_address(path, row, positions, "Source IP", line_no),
                src_port=ints["Source Port"],
                dst_ip=_address(path, row, positions, "Destination IP", line_no),
                dst_port=ints["Destination Port"],
                protocol=ints["Protocol"],
                start_ts_us=ints["Timestamp"],
                values=tuple(values)))
            if has_label:
                labels.append(row[positions[LABEL_COLUMN]])
    return flows, (labels if has_label else None)


def _address(path, row, positions, column, line_no) -> str:
    text = row[positions[column]]
    try:
        return ip_to_str(ip_from_str(text))
    except (OSError, ValueError):
        raise CsvFormatError(
            f"{path}: unparsable address {text!r} in column {column!r} "
            f"at line {line_no}") from None


def train_test_split(table: FeatureTable, ratio: float,
                     seed: int) -> tuple[FeatureTable, FeatureTable]:
    """Seeded uniform random partition; train gets round(ratio * n) rows."""
    if not 0 < ratio < 1:
        raise ValidationError(f"split ratio must be in (0, 1), got {ratio}")
    if table.labels is None:
        raise ValidationError("train_test_split needs a labeled table")
    n = table.n_rows
    if n < 2:
        raise ValidationError("need at least 2 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    cut = _round_half_up(ratio * n)
    return table.take(perm[:cut]), table.take(perm[cut:])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class DatasetManifest:
    """One dataset: its captures, its ground-truth rules and defaults."""

    name: str
    captures: tuple[Path, ...]
    rules: Path
    default_label: str = "Normal"
    notes: str = ""

    def validate(self) -> None:
        missing = [str(p) for p in (*self.captures, self.rules) if not p.exists()]
        if missing:
            raise ValidationError(
                f"manifest {self.name!r}: missing path(s): {', '.join(missing)}")


def parse_manifest(path) -> DatasetManifest:
    """Plain-text ``key = value`` manifest.

    Keys: name, captures (comma-separated), rules, default_label, notes.
    Relative paths resolve against the manifest's directory.  Text that is
    not UTF-8 is a format error.
    """
    path = Path(path)
    base = path.parent
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CsvFormatError(f"{path}: line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    for key in ("name", "captures", "rules"):
        if key not in values:
            raise CsvFormatError(f"{path}: manifest is missing key {key!r}")
    captures = tuple(base / c.strip() for c in values["captures"].split(",") if c.strip())
    if not captures:
        raise CsvFormatError(f"{path}: manifest lists no captures")
    return DatasetManifest(
        name=values["name"],
        captures=captures,
        rules=base / values["rules"],
        default_label=values.get("default_label", "Normal"),
        notes=values.get("notes", ""),
    )
