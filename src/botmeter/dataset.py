"""Feature-table I/O, feature-name normalization and train/test splitting.

Flow feature CSVs exist in two naming generations (long CICIDS2017-style
names and the abbreviated style of newer extractors); every reader here
normalizes headers to the long canonical form first so that downstream
frequency counting compares like with like.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import logging
import math
import os
import re
from array import array
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from ._numpy import np
from .classifiers import SPLIT, counter_hash
from .errors import CsvFormatError, ValidationError
from .features import (FEATURE_COLUMNS, FEATURE_NAMES, IDENTITY_COLUMNS,
                       FeatureVector)
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
            labels = np.asarray(self.labels)
            # The labels as given, before the int cast, by the rule of
            # ``classifiers.fit``: 0.5 is not class 0.  One class is legal here.
            if not ((labels == 0) | (labels == 1)).all():
                # Only here: np.unique imports numpy.ma (about 1.3 MB).
                raise ValidationError(
                    f"labels must be 0 or 1 (got {np.unique(labels).tolist()})")
            self.labels = labels.astype(np.int64, copy=False)
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


def csv_rows(path):
    """Yield a CSV file's header, then ``(line number, cells)`` for each
    non-empty row.  A byte-order mark is dropped.  A missing header, a
    ragged row, text that is not UTF-8 and a cell beyond the csv module's
    field limit are format errors."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: missing header row")
            yield header
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"{path}: ragged row at line {line_no} "
                        f"({len(row)} cells, expected {len(header)})")
                yield line_no, row
    except UnicodeDecodeError as exc:
        raise CsvFormatError(
            f"{path}: not UTF-8 text at line {_undecodable_line(path)} "
            f"({exc.reason})") from None
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: {exc} at line {reader.line_num}") from None


def _undecodable_line(path) -> int:
    """The 1-based line of the first byte sequence of ``path`` that is not
    UTF-8, found by decoding the file again block by block (only on the
    error path)."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line = 1
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            pending = len(decoder.getstate()[0])
            try:
                decoder.decode(block)
            except UnicodeDecodeError as exc:
                # A sequence begun in an earlier block holds no newline.
                return line + block.count(b"\n", 0, max(exc.start - pending, 0))
            line += block.count(b"\n")
    return line


def format_number(x: float) -> str:
    """A float cell's text: ``x`` rounded to six decimal places, written as an
    integer when that is integral (``0``, never ``-0``) and with six
    decimals otherwise; nan and infinities as ``nan``, ``inf``, ``-inf``.
    The text reads back to a float that is written with the same text."""
    text = "%.6f" % x
    if text.endswith(".000000"):
        return "0" if text == "-0.000000" else text[:-7]
    return text


def _csv_cell(value) -> str:
    """``value`` as ``csv.writer`` writes it as one cell of a longer row."""
    out = io.StringIO()
    csv.writer(out).writerow(("", value))
    return out.getvalue()[1:-2]


# Every feature cell, each followed by a comma: ``%s`` (``str``) for an int
# column, so that a value of another type shows in the text, and ``%.6f``
# for a float column.
_FEATURE_FORMAT = "".join("%s," if kind is int else "%.6f,"
                          for _, kind in FEATURE_COLUMNS)


def write_flow_csv(path, flows, labels=None, *, append=False) -> None:
    """Write flows (FeatureVectors) to the canonical flow CSV: identity
    columns, the 65 features, then Label when ``labels`` (one per flow) is
    given.  With ``append`` the rows go to the end of the file and no
    header is written, so a file can be written in batches.

    Identity cells and labels are written as ``csv.writer`` writes them:
    bare, or through ``_csv_cell`` when the identity text needs quoting.
    Every row's features are one %-format, ``_FEATURE_FORMAT``, whose text
    then loses ``.000000`` from each integral float cell and the sign of
    ``-0``: ``format_number``'s rule, applied to the feature text only,
    where ``.000000,`` can only end a float cell and ``-0.000000,`` can
    only be one.
    """
    header = [*IDENTITY_COLUMNS, *FEATURE_NAMES]
    if labels is None:
        end, row_labels = "\r\n", itertools.repeat(None)
    else:
        if len(labels) != len(flows):
            raise ValidationError(f"{len(labels)} labels for {len(flows)} flows")
        header.append(LABEL_COLUMN)
        end, row_labels = ",%s\r\n", labels
    fmt = "%s,%s,%s,%s,%s,%s,%s,%s" + end
    label_cells: dict = {}
    with open(path, "a" if append else "w", newline="", encoding="utf-8") as fh:
        if not append:
            csv.writer(fh).writerow(header)
        for flow, label in zip(flows, row_labels):
            ids = flow[0] + flow[1] + flow[3]
            if "," in ids or '"' in ids or "\n" in ids or "\r" in ids:
                row = (_csv_cell(flow[0]), _csv_cell(flow[1]), flow[2],
                       _csv_cell(flow[3]), *flow[4:7])
            else:
                row = flow[:7]
            features = (_FEATURE_FORMAT % flow.values).replace(
                "-0.000000,", "0,").replace(".000000,", ",")
            row += (features[:-1],)
            if labels is not None:
                cell = label_cells.get(label)
                if cell is None:
                    cell = label_cells[label] = _csv_cell(label)
                row += (cell,)
            fh.write(fmt % row)


def read_feature_csv(path, negative_label: str = "Normal") -> FeatureTable:
    """Load a feature CSV into a table.

    Headers are normalized; identity columns are dropped from the matrix; a
    Label column (string or binary) becomes binary labels.  Ragged rows,
    non-numeric cells and non-finite cells (``inf``, ``Infinity``, ``NaN``)
    are format errors naming the line and column.

    The file is read once, in line order.  A row whose feature cells pass
    ``_unwritten_number_text`` and ``float`` and have a finite sum is taken
    as read; any other goes to ``number_cells``, which names its first bad
    cell or, when only the sum of finite cells overflowed, returns them.
    """
    with closing(csv_rows(path)) as records:
        header = _canonical_header(path, next(records), "kept as-is")
        feature_idx = [i for i, name in enumerate(header)
                       if name not in IDENTITY_COLUMNS and name != LABEL_COLUMN]
        label_idx = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
        columns = [header[i] for i in feature_idx]
        kinds = [(name, float) for name in columns]
        cells = (itemgetter(*feature_idx) if len(feature_idx) > 1
                 else lambda row: [row[i] for i in feature_idx])
        values = array("d")
        labels: list[str] = []
        n_rows = 0
        for line_no, row in records:
            texts = cells(row)
            try:
                if _unwritten_number_text("".join(texts)):
                    raise ValueError
                floats = list(map(float, texts))
                total = sum(floats)
                if total - total:  # nan when a cell, or the sum, is not finite
                    raise ValueError
            except ValueError:
                floats = number_cells(path, row, feature_idx, kinds, line_no)
            values.fromlist(floats)
            if label_idx is not None:
                labels.append(row[label_idx])
            n_rows += 1
    rows = np.frombuffer(values).reshape(n_rows, len(columns))
    table_labels = None
    if label_idx is not None:
        if all(lb in ("0", "1") for lb in labels):
            table_labels = [int(lb) for lb in labels]
        else:
            table_labels = labels_to_binary(labels, negative_label)
    return FeatureTable(columns, rows, table_labels)


def _canonical_header(path, names, fate: str) -> list[str]:
    """Each header name in its canonical spelling; two names of one spelling
    are refused.  The names no alias maps are logged in one warning per
    file, with their ``fate``: an alias missing from NAME_ALIASES splits
    one feature in two across datasets."""
    named = [normalize_feature_name(name) for name in names]
    header = [name for name, _ in named]
    refuse_repeated_names(path, header)
    unknown = [name for name, known in named if not known]
    if unknown:
        logger.warning("%s: unknown column name(s) %s: %s", path, fate,
                       ", ".join(map(repr, unknown)))
    return header


def refuse_repeated_names(path, header) -> None:
    """A header that names one column twice is a format error naming each
    repeated name: which of the two columns to read would be a guess."""
    repeated = [name for name, n in Counter(header).items() if n > 1]
    if repeated:
        raise CsvFormatError(f"{path}: column(s) named more than once: "
                             f"{', '.join(map(repr, repeated))}")


def _unwritten_number_text(text: str) -> bool:
    """Whether ``text`` holds what ``int`` or ``float`` may read but no
    writer emits: a digit group underscore, whitespace (the six ASCII
    characters tested) or a non-ASCII character."""
    return (not text.isascii() or "_" in text or " " in text or "\t" in text
            or "\n" in text or "\r" in text or "\x0b" in text or "\x0c" in text)


def number_cells(path, row, indices, columns, line_no) -> list:
    """The cells of ``row`` at ``indices``, each read by the kind of its
    column in ``columns`` ((name, int | float) pairs): the one rule for the
    number cells of every CSV botmeter reads.  A cell that its kind cannot
    read, and a float cell that is not finite, is a format error naming
    its text, its column and its line.

    So is text that ``int`` and ``float`` read but no writer emits (see
    ``_unwritten_number_text``).  One test of the whole row passes nearly
    every row; single cells are looked at only when it fails."""
    if _unwritten_number_text("".join(row)):
        for i, (name, kind) in zip(indices, columns):
            cell = row[i]
            if not cell.isascii() or "_" in cell or cell != cell.strip():
                raise _unreadable(path, cell, name, kind, line_no)
    values = []
    for i, (name, kind) in zip(indices, columns):
        try:
            value = kind(row[i])
        except ValueError:
            raise _unreadable(path, row[i], name, kind, line_no) from None
        if value - value:  # nan for nan and the infinities, 0 when finite
            raise CsvFormatError(f"{path}: non-finite value {row[i]!r} in "
                                 f"column {name!r} at line {line_no}")
        values.append(value)
    return values


def _unreadable(path, cell, name, kind, line_no) -> CsvFormatError:
    what = "non-integer" if kind is int else "non-numeric"
    return CsvFormatError(
        f"{path}: {what} value {cell!r} in column {name!r} at line {line_no}")


# The columns of a flow CSV that are read as numbers: the int identity
# columns, then the features.
_NUMBER_COLUMNS = (("Source Port", int), ("Destination Port", int),
                   ("Protocol", int), ("Timestamp", int), *FEATURE_COLUMNS)


def read_flow_csv(path):
    """Yield each row of a flow CSV, one at a time, as a FeatureVector and
    its label (None when the file has no Label column).

    The inverse of write_flow_csv; needs the identity columns and all 65
    canonical features (aliases accepted).  Int columns are read with
    ``int`` and float columns with ``float``, as ``FEATURE_COLUMNS`` says.
    Columns of unknown name are ignored, and named in one warning.
    Addresses are rewritten in the flows' own text form
    (``pcap.ip_to_str``), so ``2001:db8:0:0:0:0:0:1`` reads as
    ``2001:db8::1``.  A cell that its column's type cannot read (float text
    in an int column included), a non-finite float cell and an unparsable
    address are format errors naming the cell's text, its column and its
    line."""
    with closing(csv_rows(path)) as records:
        header = _canonical_header(path, next(records), "ignored")
        positions = {name: i for i, name in enumerate(header)}
        missing = [c for c in (*IDENTITY_COLUMNS, *FEATURE_NAMES)
                   if c not in positions]
        if missing:
            raise CsvFormatError(
                f"{path}: flow CSV missing column(s): {', '.join(missing[:4])}"
                + (" ..." if len(missing) > 4 else ""))
        label_at = positions.get(LABEL_COLUMN)
        number_idx = [positions[name] for name, _ in _NUMBER_COLUMNS]
        for line_no, row in records:
            src_port, dst_port, protocol, start_ts_us, *values = number_cells(
                path, row, number_idx, _NUMBER_COLUMNS, line_no)
            yield FeatureVector(
                flow_id=row[positions["Flow ID"]],
                src_ip=address_cell(path, row[positions["Source IP"]],
                                    "Source IP", line_no),
                src_port=src_port,
                dst_ip=address_cell(path, row[positions["Destination IP"]],
                                    "Destination IP", line_no),
                dst_port=dst_port,
                protocol=protocol,
                start_ts_us=start_ts_us,
                values=tuple(values)), None if label_at is None else row[label_at]


def address_cell(path, text, column, line_no) -> str:
    """An address cell in a flow's own text form (``pcap.ip_to_str``); text
    that ``pcap.ip_from_str`` cannot read is a format error naming it, its
    column and its line."""
    try:
        return ip_to_str(ip_from_str(text))
    except (OSError, ValueError):
        raise CsvFormatError(
            f"{path}: unparsable address {text!r} in column {column!r} "
            f"at line {line_no}") from None


def labels_to_binary(labels, negative_label: str = "Normal") -> list[int]:
    """Collapse string labels for training: anything but the negative label
    is the positive (attack) class."""
    return [0 if lb == negative_label else 1 for lb in labels]


def train_test_split(table: FeatureTable, ratio: float,
                     seed: int) -> tuple[FeatureTable, FeatureTable]:
    """Rows by ascending ``counter_hash(seed, SPLIT, row)``; train gets the first
    round(ratio * n).  A split that leaves either half empty is refused."""
    if not 0 < ratio < 1:
        raise ValidationError(f"split ratio must be in (0, 1), got {ratio}")
    if table.labels is None:
        raise ValidationError("train_test_split needs a labeled table")
    n = table.n_rows
    cut = _round_half_up(ratio * n)
    if not 0 < cut < n:
        raise ValidationError(
            f"split ratio {ratio} of {n} rows leaves the "
            f"{'test' if cut else 'train'} half empty")
    perm = np.argsort(counter_hash(seed, SPLIT, np.arange(n)), kind="stable")
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

    def validate(self) -> None:
        missing = [str(p) for p in (*self.captures, self.rules) if not p.exists()]
        if missing:
            raise ValidationError(
                f"manifest {self.name!r}: missing path(s): {', '.join(missing)}")


def dataset_name(source, name: str) -> str:
    """``name``, a dataset name read from ``source``.  The stages put it in
    file names, so an empty name, or one holding ``/``, ``\\`` or NUL, is
    a CsvFormatError naming ``source``."""
    if not name or any(c in name for c in "/\\\0"):
        raise CsvFormatError(
            f"{source}: dataset name {name!r} cannot be part of a file name")
    return name


_MANIFEST_KEYS = {"name", "captures", "rules", "default_label"}


def parse_manifest(path) -> DatasetManifest:
    """Plain-text ``key = value`` manifest.

    Keys: name, captures (comma-separated), rules, default_label; other
    keys are ignored, and named in one warning.  Relative paths resolve
    against the manifest's directory.  Text that is not UTF-8, a name that
    ``dataset_name`` refuses, and a capture listed twice (two paths that
    resolve to one file) are format errors.
    """
    path = Path(path)
    base = path.parent
    try:
        text = path.read_text(encoding="utf-8-sig")
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
    unknown = sorted(values.keys() - _MANIFEST_KEYS)
    if unknown:
        logger.warning("%s: unknown manifest key(s) ignored: %s", path,
                       ", ".join(map(repr, unknown)))
    listed = [c.strip() for c in values["captures"].split(",") if c.strip()]
    if not listed:
        raise CsvFormatError(f"{path}: manifest lists no captures")
    captures = tuple(base / c for c in listed)
    first = {}  # resolved path -> the capture as first listed
    for name, capture in zip(listed, captures):
        try:
            real = os.path.realpath(capture)
        except ValueError:  # a NUL byte
            raise CsvFormatError(f"{path}: capture {name!r} is not a path") from None
        if real in first:
            raise CsvFormatError(f"{path}: capture {name!r} is listed twice "
                                 f"(first as {first[real]!r})")
        first[real] = name
    return DatasetManifest(
        name=dataset_name(path, values["name"]),
        captures=captures,
        rules=base / values["rules"],
        default_label=values.get("default_label", "Normal"),
    )
