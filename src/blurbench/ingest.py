"""Parsers for caption datasets, prediction files, and annotation side-files.

Formats handled:

* caption JSON: ``{"split": ..., "images": [{"id", "file_name"}],
  "annotations": [{"image_id", "caption"}]}``
* prediction JSON: array of ``{"image_id", "blur_level", "caption"}``,
  parsed into a plain ``{(image_id, level): caption}`` dict
* feature-count CSV: header ``image_id,level,count``
* blur-flag CSV: header ``image_id,flag`` with flag in {with_blur, no_blur},
  parsed into a plain ``{image_id: BlurFlag}`` dict

Image ids are opaque strings throughout (integer ids are stringified), so
one code path serves datasets that key images by number and by filename.
Any other JSON id (null, a bool, a float, a list or an object) is a
`ParseError` naming its record. Captions, file names and the optional
split name must be JSON strings, kept verbatim; tokenization happens in
the metric, not here. Every CSV, read or written, goes through `read_csv`
and `write_csv`, which hold the one CSV dialect of the package.
Every parser has a serializer, and parse -> serialize -> parse gives the
input back, ids holding commas, quotes or line breaks included.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

from .imaging import BlurLevel


class ParseError(ValueError):
    """Malformed input document."""


class BlurFlag(Enum):
    WITH_BLUR = "with_blur"
    NO_BLUR = "no_blur"


@dataclass
class Dataset:
    """Images of one split with their reference captions."""

    images: list[tuple[str, str]]
    references: dict[str, list[str]]
    split_name: str = ""

    def __post_init__(self):
        ids = [image_id for image_id, _ in self.images]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate image ids")
        known = set(ids)
        unknown = sorted(set(self.references) - known)
        if unknown:
            raise ParseError(f"references for unknown images: {unknown}")
        missing = [i for i in ids if not self.references.get(i)]
        if missing:
            raise ParseError(f"images without captions: {missing}")

    def image_ids(self) -> list[str]:
        return [image_id for image_id, _ in self.images]


@dataclass(frozen=True)
class FeatureCountRecord:
    """Number of region proposals the detector produced for one image."""

    image_id: str
    level: BlurLevel
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ParseError(f"negative feature count for {self.image_id}")


def parse_level(token: str) -> BlurLevel:
    try:
        return BlurLevel[token]
    except KeyError:
        raise ParseError(f"unknown blur level {token!r}") from None


def _image_id(item, key: str, kind: str) -> str:
    """`item[key]` as an image id string; ids are JSON strings or integers."""
    value = item[key]
    if isinstance(value, str) or (
            isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise ParseError(f"bad {kind} record {item!r}: "
                     f"{key} must be a string or an integer")


def _string(item, key: str, kind: str) -> str:
    """`item[key]`, which must be a JSON string."""
    value = item[key]
    if isinstance(value, str):
        return value
    raise ParseError(f"bad {kind} record {item!r}: {key} must be a string")


def _load_json(document: bytes):
    try:
        return json.loads(document.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Captions
# ---------------------------------------------------------------------------

def parse_captions(document: bytes) -> Dataset:
    doc = _load_json(document)
    if not isinstance(doc, dict) or not all(
            isinstance(doc.get(key), list) for key in ("images", "annotations")):
        raise ParseError("caption document needs 'images' and 'annotations' lists")
    images = []
    for item in doc["images"]:
        try:
            images.append((_image_id(item, "id", "image"),
                           _string(item, "file_name", "image")))
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad image record {item!r}") from exc
    references: dict[str, list[str]] = {}
    for item in doc["annotations"]:
        try:
            image_id = _image_id(item, "image_id", "annotation")
            caption = _string(item, "caption", "annotation")
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad annotation record {item!r}") from exc
        references.setdefault(image_id, []).append(caption)
    split = doc.get("split", "")
    if not isinstance(split, str):
        raise ParseError(f"split must be a string, not {split!r}")
    return Dataset(images, references, split)


def serialize_captions(ds: Dataset) -> bytes:
    doc = {
        "split": ds.split_name,
        "images": [{"id": i, "file_name": f} for i, f in ds.images],
        "annotations": [
            {"image_id": image_id, "caption": caption}
            for image_id, _ in ds.images
            for caption in ds.references[image_id]
        ],
    }
    return json.dumps(doc, indent=2).encode("utf-8")


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

def parse_predictions(document: bytes) -> dict[tuple[str, BlurLevel], str]:
    doc = _load_json(document)
    if not isinstance(doc, list):
        raise ParseError("prediction document must be a JSON array")
    candidates: dict[tuple[str, BlurLevel], str] = {}
    for item in doc:
        try:
            image_id = _image_id(item, "image_id", "prediction")
            level = parse_level(str(item["blur_level"]))
            caption = _string(item, "caption", "prediction")
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad prediction record {item!r}") from exc
        pair = (image_id, level)
        if pair in candidates:
            raise ParseError(
                f"duplicate prediction for image {image_id!r} at {level.name}")
        candidates[pair] = caption
    return candidates


def serialize_predictions(preds: dict[tuple[str, BlurLevel], str]) -> bytes:
    items = [
        {"image_id": image_id, "blur_level": level.name, "caption": caption}
        for (image_id, level), caption in sorted(preds.items())
    ]
    return json.dumps(items, indent=2).encode("utf-8")


# ---------------------------------------------------------------------------
# CSV side-files
# ---------------------------------------------------------------------------

_FEATURE_COUNTS = ["image_id", "level", "count"]
_BLUR_FLAGS = ["image_id", "flag"]


def read_csv(text: str, header: list[str]) -> list[list[str]]:
    """The data rows of a CSV table whose first row must be `header`.

    Lines end at ``\\n`` or ``\\r\\n``; ``#`` lines before the header and
    empty lines are skipped. A row of the wrong width is a `ParseError`,
    and so is a `csv.Error`, which names its line in `text`.
    """
    lines = io.StringIO(text).readlines()
    metadata = next((i for i, line in enumerate(lines) if line.rstrip("\r\n")
                     and not line.startswith("#")), len(lines))
    reader = csv.reader(lines[metadata:])
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise ParseError(
            f"bad CSV on line {metadata + reader.line_num}: {exc}") from None
    if not rows or rows[0] != header:
        raise ParseError(f"expected header {','.join(header)!r}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(f"bad row {row!r}")
    return rows[1:]


def write_csv(header: list[str], rows: list[list]) -> str:
    """CSV that `read_csv` reads back; quotes a field holding , " \\r or \\n."""
    # csv quotes a bare "\r" only with a "\r\n" terminator; cut it to "\n"
    written: list[str] = []
    writer = csv.writer(SimpleNamespace(write=written.append))
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in written)


def parse_feature_counts(document: bytes) -> list[FeatureCountRecord]:
    records = []
    for image_id, level_token, count_token in read_csv(
            document.decode("utf-8"), _FEATURE_COUNTS):
        try:
            count = int(count_token)
        except ValueError:
            raise ParseError(f"non-integer count {count_token!r}") from None
        records.append(FeatureCountRecord(image_id, parse_level(level_token), count))
    return records


def serialize_feature_counts(records: list[FeatureCountRecord]) -> bytes:
    return write_csv(_FEATURE_COUNTS, [
        [r.image_id, r.level.name, r.count] for r in records]).encode("utf-8")


def parse_blur_flags(document: bytes) -> dict[str, BlurFlag]:
    flags: dict[str, BlurFlag] = {}
    for image_id, flag_token in read_csv(document.decode("utf-8"), _BLUR_FLAGS):
        try:
            flag = BlurFlag(flag_token)
        except ValueError:
            raise ParseError(f"unknown blur flag {flag_token!r}") from None
        if image_id in flags:
            raise ParseError(f"duplicate flag for image {image_id!r}")
        flags[image_id] = flag
    return flags


def serialize_blur_flags(flags: dict[str, BlurFlag]) -> bytes:
    return write_csv(_BLUR_FLAGS, [
        [image_id, flag.value] for image_id, flag in sorted(flags.items())
    ]).encode("utf-8")


# ---------------------------------------------------------------------------
# Subsetting
# ---------------------------------------------------------------------------

def filter_by_blur_flag(ds: Dataset, flags: dict[str, BlurFlag],
                        flag: BlurFlag) -> Dataset:
    """Sub-dataset of exactly the images carrying `flag`.

    Every dataset image must be annotated; image order and references are
    preserved.
    """
    unflagged = [i for i in ds.image_ids() if i not in flags]
    if unflagged:
        raise ParseError(f"images without blur flag: {unflagged}")
    images = [(i, f) for i, f in ds.images if flags[i] is flag]
    references = {i: list(ds.references[i]) for i, _ in images}
    return Dataset(images, references, ds.split_name)
