"""Parsers for caption datasets, prediction files, and annotation side-files.

Formats handled:

* caption JSON: ``{"split": ..., "images": [{"id", "file_name"}],
  "annotations": [{"image_id", "caption"}]}``, parsed into a `Split`:
  ``{image_id: [caption, ...]}`` in the file's image order, each image's
  references in the file's annotation order
* prediction JSON: array of ``{"image_id", "blur_level", "caption"}``,
  parsed into a plain ``{(image_id, level): caption}`` dict
* feature-count CSV: header ``image_id,level,count``, one row per
  (image, level), counts in ASCII digits; parsed into `FeatureCounts`
* blur-flag CSV: header ``image_id,flag`` with flag in {with_blur, no_blur},
  parsed into a plain ``{image_id: BlurFlag}`` dict

One accessor, `_field`, reads every field of every JSON record: a JSON
object holding each of its fields. Image ids are opaque strings (integer
ids are stringified), so one code path serves datasets that key images by
number and by filename. A record that is not an object, lacks a field or
whose id is of another type (null, a bool, a float, a list or an object)
is a `ValueError` naming it and what is wrong. Captions, blur levels, file
names and the optional split name must be JSON strings; captions are kept
verbatim (tokenization happens in the metric, not here), while file names
and the split name are checked and dropped, since scoring needs only each
image's references. Every input is decoded by `decode_text`: strict
UTF-8, a leading byte order mark dropped, a byte that is not UTF-8 named
by its line. Every CSV, read or written, goes through `read_csv`
and `write_csv`, which hold the one CSV dialect of the package. `read_csv`
returns a table as columns, one list per header field, filled a few
hundred rows at a time. `parse_feature_counts` checks whole columns at
once and goes row by row only to raise the first bad row's error.
"""

from __future__ import annotations

import csv
import io
import json
from enum import Enum
from itertools import compress, islice
from types import SimpleNamespace

from . import _error_text, _id_list
from .imaging import LEVEL_BY_NAME, BlurLevel


class BlurFlag(Enum):
    WITH_BLUR = "with_blur"
    NO_BLUR = "no_blur"


FLAG_BY_VALUE = {flag.value: flag for flag in BlurFlag}
#: The images of a split, each with its reference captions, in file order
Split = dict[str, list[str]]


class FeatureCounts:
    """Region proposals the detector produced, one entry per (image,
    level): `levels[i]` is a `BlurLevel` value. The columns are read-only."""

    __slots__ = ("_columns",)

    def __init__(self, image_ids: tuple[str, ...], levels: bytes,
                 counts: tuple[int, ...]):
        self._columns = (image_ids, levels, counts)

    image_ids = property(lambda self: self._columns[0])
    levels = property(lambda self: self._columns[1])
    counts = property(lambda self: self._columns[2])

    def __len__(self) -> int:
        return len(self.image_ids)

    def __eq__(self, other) -> bool:
        return type(other) is FeatureCounts and self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)


def parse_level(token: str) -> BlurLevel:
    try:
        return LEVEL_BY_NAME[token]
    except KeyError:
        raise ValueError(f"unknown blur level {token!r}") from None


def parse_number(text: str, kind=float):
    """`kind(text)` of a number spelt as in every input file: ASCII, no `_`
    and no outer whitespace (`int` and `float` also read `1_0`, ` 7`, `٨`)."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)


def _field(item, key: str, kind: str, ids: bool = False) -> str:
    """`item[key]` of a JSON record: a JSON string, or with `ids` a JSON
    string or integer, given as its decimal text."""
    if not isinstance(item, dict):
        problem = "not an object"
    elif key not in item:
        problem = f"no {key}"
    elif isinstance(value := item[key], str):
        return value
    elif ids and isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    else:
        problem = f"{key} must be a string{' or an integer' if ids else ''}"
    raise ValueError(f"bad {kind} record {item!r}: {problem}")


def decode_text(document: bytes) -> str:
    """`document` as strict UTF-8, a leading byte order mark dropped; a
    byte that is not UTF-8 is a ValueError naming its 1-based line."""
    try:
        return document.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # `exc.object` is the text past a BOM
        line = exc.object.count(b"\n", 0, exc.start) + 1
        byte = exc.object[exc.start]
        raise ValueError(f"not UTF-8 on line {line}: byte 0x{byte:02x}, "
                         f"{exc.reason}") from None


def _load_json(document: bytes):
    text = decode_text(document)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # Python's digit limit too
        raise ValueError(f"malformed JSON: {_error_text(exc)}") from exc


# ---------------------------------------------------------------------------
# Captions
# ---------------------------------------------------------------------------

def parse_captions(document: bytes) -> Split:
    doc = _load_json(document)
    if not isinstance(doc, dict) or not all(
            isinstance(doc.get(key), list) for key in ("images", "annotations")):
        raise ValueError("caption document needs 'images' and 'annotations' lists")
    split: Split = {}
    for item in doc["images"]:
        image_id = _field(item, "id", "image", ids=True)
        _field(item, "file_name", "image")
        split[image_id] = []
    unknown = set()
    for item in doc["annotations"]:
        image_id = _field(item, "image_id", "annotation", ids=True)
        caption = _field(item, "caption", "annotation")
        references = split.get(image_id)
        if references is None:
            unknown.add(image_id)
        else:
            references.append(caption)
    split_name = doc.get("split", "")
    if not isinstance(split_name, str):
        raise ValueError(f"split must be a string, not {split_name!r}")
    if len(split) != len(doc["images"]):
        raise ValueError("duplicate image ids")
    if unknown:
        raise ValueError("references for unknown images: "
                         f"{_id_list(sorted(unknown))}")
    missing = [image_id for image_id, references in split.items()
               if not references]
    if missing:
        raise ValueError(f"images without captions: {_id_list(missing)}")
    return split


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

def parse_predictions(document: bytes) -> dict[tuple[str, BlurLevel], str]:
    doc = _load_json(document)
    if not isinstance(doc, list):
        raise ValueError("prediction document must be a JSON array")
    candidates: dict[tuple[str, BlurLevel], str] = {}
    for item in doc:
        image_id = _field(item, "image_id", "prediction", ids=True)
        level = parse_level(_field(item, "blur_level", "prediction"))
        caption = _field(item, "caption", "prediction")
        pair = (image_id, level)
        if pair in candidates:
            raise ValueError(
                f"duplicate prediction for image {image_id!r} at {level.name}")
        candidates[pair] = caption
    return candidates


# ---------------------------------------------------------------------------
# CSV side-files
# ---------------------------------------------------------------------------

_FEATURE_COUNTS = ["image_id", "level", "count"]
_BLUR_FLAGS = ["image_id", "flag"]
#: Rows `read_csv` moves into its columns at a time: few enough that the
#: row lists alive at once set off no garbage collection.
_CSV_CHUNK_ROWS = 256


def read_csv(text: str, header: list[str]) -> list[list[str]]:
    """The data columns of a CSV table whose first row must be `header`.

    Lines end at ``\\n`` or ``\\r\\n``; ``#`` lines before the header and
    empty lines are skipped. A `csv.Error` anywhere is a `ValueError` that
    names its line in `text`; failing that, so is a wrong header, then the
    first row of the wrong width. Rows go into the columns
    `_CSV_CHUNK_ROWS` at a time.
    """
    lines = io.StringIO(text).readlines()
    metadata = next((i for i, line in enumerate(lines) if line.rstrip("\r\n")
                     and not line.startswith("#")), len(lines))
    reader = csv.reader(lines[metadata:])
    rows = filter(None, reader)
    columns: list[list[str]] = [[] for _ in header]
    problem = None
    try:
        if next(rows, None) != header:
            problem = f"expected header {','.join(header)!r}"
        while chunk := list(islice(rows, _CSV_CHUNK_ROWS)):
            if problem is None and set(map(len, chunk)) != {len(header)}:
                bad = next(row for row in chunk if len(row) != len(header))
                problem = f"bad row {bad!r}"
            for column, values in zip(columns, zip(*chunk)):
                column.extend(values)
    except csv.Error as exc:
        raise ValueError(
            f"bad CSV on line {metadata + reader.line_num}: {exc}") from None
    if problem is not None:
        raise ValueError(problem)
    return columns


def write_csv(header: list[str], rows: list[list]) -> str:
    """CSV that `read_csv` reads back; quotes a field holding , " \\r or \\n."""
    # csv quotes a bare "\r" only with a "\r\n" terminator; cut it to "\n"
    written: list[str] = []
    writer = csv.writer(SimpleNamespace(write=written.append))
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in written)


def _count(token: str) -> int | None:
    """The integer of ASCII digits after an optional `-`, or None."""
    digits = token.removeprefix("-")
    try:
        return int(token) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int reads
        return None


def parse_feature_counts(document: bytes) -> FeatureCounts:
    columns = read_csv(decode_text(document), _FEATURE_COUNTS)
    image_ids, level_tokens, count_tokens = columns
    value_of = {token: _count(token) for token in set(count_tokens)}
    if (all(value is not None and value >= 0 for value in value_of.values())
            and LEVEL_BY_NAME.keys() >= set(level_tokens)):
        levels = bytes(map(LEVEL_BY_NAME.__getitem__, level_tokens))
        # no (image, level) pair repeats: at each level, the ids picked out
        # by a mask of `levels` (that level translated to 1, others to 0)
        # are distinct
        if all(len(set(compress(image_ids, levels.translate(
                bytes(level) + b"\1" + bytes(255 - level)))))
               == levels.count(level) for level in set(levels)):
            return FeatureCounts(tuple(image_ids), levels, tuple(
                map(value_of.__getitem__, count_tokens)))
    _raise_first_bad_row(*columns)


def _raise_first_bad_row(image_ids: list[str], level_tokens: list[str],
                         count_tokens: list[str]):
    """Raise the first bad row's error in a table the column checks rejected."""
    seen: set[tuple[str, BlurLevel]] = set()
    for image_id, level_token, count_token in zip(
            image_ids, level_tokens, count_tokens):
        count = _count(count_token)
        if count is None:
            raise ValueError(f"non-integer count {count_token!r}")
        level = parse_level(level_token)
        if count < 0:
            raise ValueError(f"negative feature count for {image_id}")
        if (image_id, level) in seen:
            raise ValueError(f"duplicate feature count for image {image_id!r} "
                             f"at {level.name}")
        seen.add((image_id, level))


def parse_blur_flags(document: bytes) -> dict[str, BlurFlag]:
    flags: dict[str, BlurFlag] = {}
    for image_id, flag_token in zip(
            *read_csv(decode_text(document), _BLUR_FLAGS)):
        flag = FLAG_BY_VALUE.get(flag_token)
        if flag is None:
            raise ValueError(f"unknown blur flag {flag_token!r}")
        if image_id in flags:
            raise ValueError(f"duplicate flag for image {image_id!r}")
        flags[image_id] = flag
    return flags


# ---------------------------------------------------------------------------
# Subsetting
# ---------------------------------------------------------------------------

def filter_by_blur_flag(split: Split, flags: dict[str, BlurFlag],
                        flag: BlurFlag) -> Split:
    """The images of `split` carrying `flag`, with their references.

    Every image of the split must be annotated; image order is preserved
    and the reference lists are shared, not copied.
    """
    unflagged = [i for i in split if i not in flags]
    if unflagged:
        raise ValueError(f"images without blur flag: {_id_list(unflagged)}")
    return {i: references for i, references in split.items()
            if flags[i] is flag}
