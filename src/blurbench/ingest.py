"""Parsers for caption datasets, prediction files, and annotation side-files.

Formats handled:

* caption JSON: ``{"split": ..., "images": [{"id", "file_name"}],
  "annotations": [{"image_id", "caption"}]}``
* prediction JSON: array of ``{"image_id", "blur_level", "caption"}``
* feature-count CSV: header ``image_id,level,count``
* blur-flag CSV: header ``image_id,flag`` with flag in {with_blur, no_blur}

Image ids are opaque strings throughout (integer ids are stringified), so
one code path serves datasets that key images by number and by filename.
Captions are kept verbatim; tokenization happens in the metric, not here.
Every parser has a serializer and parse -> serialize -> parse is the
identity.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass
class PredictionSet:
    """One candidate caption per (image id, blur level)."""

    candidates: dict[tuple[str, BlurLevel], str] = field(default_factory=dict)

    def levels(self) -> list[BlurLevel]:
        return sorted({level for _, level in self.candidates})

    def caption_for(self, image_id: str, level: BlurLevel) -> str:
        return self.candidates[(image_id, level)]


@dataclass
class BlurFlagAnnotation:
    """Crowd-sourced with/without-blur flag per image."""

    flags: dict[str, BlurFlag] = field(default_factory=dict)


@dataclass(frozen=True)
class FeatureCountRecord:
    """Number of region proposals the detector produced for one image."""

    image_id: str
    level: BlurLevel
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ParseError(f"negative feature count for {self.image_id}")


def _parse_level(token: str) -> BlurLevel:
    try:
        return BlurLevel[token]
    except KeyError:
        raise ParseError(f"unknown blur level {token!r}") from None


def _load_json(document: bytes):
    try:
        return json.loads(document.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
            images.append((str(item["id"]), str(item["file_name"])))
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad image record {item!r}") from exc
    known = {image_id for image_id, _ in images}
    references: dict[str, list[str]] = {}
    for item in doc["annotations"]:
        try:
            image_id = str(item["image_id"])
            caption = str(item["caption"])
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad annotation record {item!r}") from exc
        if image_id not in known:
            raise ParseError(f"annotation references unknown image {image_id!r}")
        references.setdefault(image_id, []).append(caption)
    return Dataset(images, references, str(doc.get("split", "")))


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

def parse_predictions(document: bytes) -> PredictionSet:
    doc = _load_json(document)
    if not isinstance(doc, list):
        raise ParseError("prediction document must be a JSON array")
    candidates: dict[tuple[str, BlurLevel], str] = {}
    for item in doc:
        try:
            image_id = str(item["image_id"])
            level = _parse_level(str(item["blur_level"]))
            caption = str(item["caption"])
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad prediction record {item!r}") from exc
        pair = (image_id, level)
        if pair in candidates:
            raise ParseError(
                f"duplicate prediction for image {image_id!r} at {level.name}")
        candidates[pair] = caption
    return PredictionSet(candidates)


def serialize_predictions(preds: PredictionSet) -> bytes:
    items = [
        {"image_id": image_id, "blur_level": level.name, "caption": caption}
        for (image_id, level), caption in sorted(
            preds.candidates.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    ]
    return json.dumps(items, indent=2).encode("utf-8")


# ---------------------------------------------------------------------------
# CSV side-files
# ---------------------------------------------------------------------------

def _csv_rows(document: bytes, expected_header: list[str]):
    try:
        text = document.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from exc
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or rows[0] != expected_header:
        raise ParseError(f"expected header {','.join(expected_header)!r}")
    for row in rows[1:]:
        if len(row) != len(expected_header):
            raise ParseError(f"bad row {row!r}")
        yield row


def parse_feature_counts(document: bytes) -> list[FeatureCountRecord]:
    records = []
    for image_id, level_token, count_token in _csv_rows(
            document, ["image_id", "level", "count"]):
        try:
            count = int(count_token)
        except ValueError:
            raise ParseError(f"non-integer count {count_token!r}") from None
        records.append(FeatureCountRecord(image_id, _parse_level(level_token), count))
    return records


def serialize_feature_counts(records: list[FeatureCountRecord]) -> bytes:
    lines = ["image_id,level,count"]
    lines += [f"{r.image_id},{r.level.name},{r.count}" for r in records]
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_blur_flags(document: bytes) -> BlurFlagAnnotation:
    flags: dict[str, BlurFlag] = {}
    for image_id, flag_token in _csv_rows(document, ["image_id", "flag"]):
        try:
            flag = BlurFlag(flag_token)
        except ValueError:
            raise ParseError(f"unknown blur flag {flag_token!r}") from None
        if image_id in flags:
            raise ParseError(f"duplicate flag for image {image_id!r}")
        flags[image_id] = flag
    return BlurFlagAnnotation(flags)


def serialize_blur_flags(ann: BlurFlagAnnotation) -> bytes:
    lines = ["image_id,flag"]
    lines += [f"{image_id},{flag.value}"
              for image_id, flag in sorted(ann.flags.items())]
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Subsetting
# ---------------------------------------------------------------------------

def filter_by_blur_flag(ds: Dataset, ann: BlurFlagAnnotation,
                        flag: BlurFlag) -> Dataset:
    """Sub-dataset of exactly the images carrying `flag`.

    Every dataset image must be annotated; image order and references are
    preserved.
    """
    unflagged = [i for i in ds.image_ids() if i not in ann.flags]
    if unflagged:
        raise ParseError(f"images without blur flag: {unflagged}")
    images = [(i, f) for i, f in ds.images if ann.flags[i] is flag]
    references = {i: list(ds.references[i]) for i, _ in images}
    return Dataset(images, references, ds.split_name)
