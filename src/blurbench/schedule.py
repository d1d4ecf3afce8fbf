"""Blur-level probability schedules and deterministic augmentation manifests.

A Schedule assigns each blur level a probability. Each of the four
training techniques is a fixed pair of a detector-stage and a
captioner-stage schedule, listed once in `_TECHNIQUE_SCHEDULES`:

    No-Aug          detector [1, 0, 0, 0]        captioner [1, 0, 0, 0]
    ObjDet-Aug      detector [0.8, 0.1, 0.1, 0]  captioner [1, 0, 0, 0]
    Cap-Aug         detector [1, 0, 0, 0]        captioner [0.5, 0.2, 0.2, 0.1]
    ObjDet-Cap-Aug  detector [0.8, 0.1, 0.1, 0]  captioner [0.5, 0.2, 0.2, 0.1]

Level draws are a pure function of (seed, sample key, stage): the key is
hashed with BLAKE2b-64 (a seed in [0, 2**64) as the hash key, stage as
personalization) and the top 53 bits are the draw d, read as the uniform
number u = d * 2**-53 in [0, 1). The level is the first one whose running
float CDF sum c satisfies u <= c, so a tie goes to the lower level. In
integers: u <= c exactly when d <= floor(c * 2**53), so a schedule holds
that bound per level, capped at 2**53 (which keeps the bounds sorted when
a partial sum rounds past 1) and 2**53 from the highest level with mass
onward (so a draw above a float CDF that falls short of 1 lands there).
On the 8-byte digest g, d <= bound exactly when g < (bound + 1) << 11, so
the level is the count of these limits, as 8 big-endian bytes, that are
<= g (`Schedule.level_indices`); a bound of 2**53 - 1 or more, which no
draw exceeds, has no limit. No RNG stream is involved, so assignments do
not depend on iteration order or platform. A plan encodes each key once
and copies one keyed hasher per stage for each key; a schedule with no
limits puts every draw on MB0, so it hashes nothing.

A manifest is JSON lines: a header object, then per key, in ascending
`str` order, one detector entry and then one captioner entry; in memory,
that key grid. `read_manifest` reads only text `write_manifest` could
have written, a `\r` before each `\n` allowed and a key spelt as any
JSON string UTF-8 can encode. Text that is exactly `write_manifest`'s
output is read in bulk (the keys sliced out and decoded by one
`json.loads`, the grid checked and written back to compare); any other
text, CRLF included, takes the line reader (`json.decoder.scanstring` per
key), which gives the same grid or names the line of the error.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from functools import partial
from itertools import accumulate, chain, islice
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from operator import eq, ge, index, itemgetter

from . import _error_text, _id_list
from .imaging import BlurLevel

_SUM_TOLERANCE = 1e-9
_DRAWS = 2 ** 53  # draws are the top 53 bits of a 64-bit digest
_LEVELS = tuple(BlurLevel)


class Stage(Enum):
    """Pipeline stage an augmentation entry applies to."""

    DETECTOR = "detector"
    CAPTIONER = "captioner"


_STAGES = tuple(Stage)


class Schedule:
    """Probability per blur level, in MB0..MB3 order.

    The one home of a schedule's checks: entries lie in [0, 1] and sum to
    1 within 1e-9. They are stored rescaled so the CDF ends at 1; rescaling
    twice can change them, so build a schedule from literals only. `bounds`
    and `limits` hold the module docstring's CDF bounds and digest limits.
    """

    __slots__ = ("_probs", "_bounds", "_limits")

    def __init__(self, probs: tuple[float, float, float, float]):
        values = tuple(float(p) for p in probs)
        if len(values) != len(BlurLevel):
            raise ValueError(
                f"need {len(BlurLevel)} probabilities, got {len(values)}")
        if any(not 0.0 <= p <= 1.0 for p in values):
            raise ValueError(f"probabilities outside [0, 1]: {values}")
        total = sum(values)
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        probs = tuple(p / total for p in values)
        top = max(k for k, p in enumerate(probs) if p > 0.0)
        bounds = tuple(min(int(c * _DRAWS), _DRAWS) if k < top else _DRAWS
                       for k, c in enumerate(accumulate(probs)))
        self._probs, self._bounds = probs, bounds
        self._limits = tuple((bound + 1 << 11).to_bytes(8, "big")
                             for bound in bounds if bound < _DRAWS - 1)

    probs = property(lambda self: self._probs)
    bounds = property(lambda self: self._bounds)
    limits = property(lambda self: self._limits)

    def __eq__(self, other) -> bool:
        return type(other) is Schedule and self._probs == other._probs

    def __hash__(self) -> int:
        return hash(self._probs)

    def __repr__(self) -> str:
        return f"Schedule(probs={self._probs!r})"

    def level_indices(self, digests: Iterable[bytes]) -> bytes:
        """The level index of each 8-byte digest: the first level whose
        bound is >= its draw, the count of limits <= the digest."""
        return bytes(map(partial(bisect_right, self.limits), digests))


NO_AUG_SCHEDULE = Schedule((1.0, 0.0, 0.0, 0.0))
DETECTOR_AUG_SCHEDULE = Schedule((0.8, 0.1, 0.1, 0.0))
CAPTIONER_AUG_SCHEDULE = Schedule((0.5, 0.2, 0.2, 0.1))


class Technique(Enum):
    """Named augmentation technique (which stages get blurred inputs)."""

    NO_AUG = "No-Aug"
    OBJDET_AUG = "ObjDet-Aug"
    CAP_AUG = "Cap-Aug"
    OBJDET_CAP_AUG = "ObjDet-Cap-Aug"


_TECHNIQUE_SCHEDULES: dict[Technique, tuple[Schedule, Schedule]] = {
    Technique.NO_AUG: (NO_AUG_SCHEDULE, NO_AUG_SCHEDULE),
    Technique.OBJDET_AUG: (DETECTOR_AUG_SCHEDULE, NO_AUG_SCHEDULE),
    Technique.CAP_AUG: (NO_AUG_SCHEDULE, CAPTIONER_AUG_SCHEDULE),
    Technique.OBJDET_CAP_AUG: (DETECTOR_AUG_SCHEDULE, CAPTIONER_AUG_SCHEDULE),
}


def parse_technique(name: str) -> Technique:
    """Resolve a technique name, tolerant of case and hyphen style."""
    normalized = name.lower().replace("-", "").replace("_", "").replace(" ", "")
    for technique in Technique:
        if technique.value.lower().replace("-", "") == normalized:
            return technique
    known = ", ".join(t.value for t in Technique)
    raise ValueError(f"unknown technique {name!r}; known: {known}")


class TechniquePlan(namedtuple("TechniquePlan", "name")):
    """A technique; its per-stage schedules are fixed by the technique."""

    __slots__ = ()

    def schedule_for(self, stage: Stage) -> Schedule:
        detector, captioner = _TECHNIQUE_SCHEDULES[self.name]
        return detector if stage is Stage.DETECTOR else captioner


def technique_plan(name: str) -> TechniquePlan:
    return TechniquePlan(parse_technique(name))


def check_seed(seed: int) -> int:
    """`seed` if in [0, 2**64); ValueError if not, TypeError if not an int."""
    if isinstance(seed, bool):  # index(True) is 1
        raise TypeError("seed must be an int, not a bool")
    if not 0 <= index(seed) < 2 ** 64:  # its 8 bytes key the level hash
        raise ValueError(f"seed must be in [0, 2**64), not {seed}")
    return seed


def _draw_levels(encoded_keys: list[bytes], schedule: Schedule, seed: int,
                 stage: str) -> bytes:
    """The level index of each UTF-8 key by the module docstring's rule."""
    hasher = hashlib.blake2b(digest_size=8,
                             key=check_seed(seed).to_bytes(8, "big"),
                             person=stage.encode("utf-8"))
    if not schedule.limits:  # every draw lands on the lowest level
        return bytes(len(encoded_keys))

    def digest(key: bytes) -> bytes:
        keyed = hasher.copy()
        keyed.update(key)
        return keyed.digest()
    return schedule.level_indices(map(digest, encoded_keys))


ManifestEntry = namedtuple("ManifestEntry", "sample_key stage level")


class AugmentationManifest(namedtuple(
        "AugmentationManifest", "seed plan keys levels")):
    """Deterministic per-sample, per-stage blur levels, as a key grid:
    `keys` holds each sample key once, and `levels[len(Stage) * i + s]` is
    the `BlurLevel` value of `keys[i]` at stage `tuple(Stage)[s]`."""

    __slots__ = ()

    @property
    def entries(self) -> tuple[ManifestEntry, ...]:
        """One entry per (key, stage), in (key, stage) order."""
        return tuple(map(ManifestEntry,
                         chain.from_iterable(zip(*[self.keys] * len(_STAGES))),
                         _STAGES * len(self.keys),
                         map(_LEVELS.__getitem__, self.levels)))


def plan_dataset(sample_keys: Iterable[str], plan: TechniquePlan,
                 seed: int) -> AugmentationManifest:
    """Assign one blur level per (key, stage), independently per stage.

    The keys come out sorted; duplicate keys and a seed `check_seed`
    rejects are rejected.
    """
    keys = sorted(sample_keys)
    if any(map(eq, keys, keys[1:])):
        duplicates = sorted({a for a, b in zip(keys, keys[1:]) if a == b})
        raise ValueError(f"duplicate sample keys: {_id_list(duplicates)}")
    encoded = list(map(str.encode, keys))  # UTF-8: fails under every technique
    width = len(_STAGES)
    levels = bytearray(width * len(keys))
    for index, stage in enumerate(_STAGES):
        levels[index::width] = _draw_levels(encoded, plan.schedule_for(stage),
                                            seed, stage.value)
    return AugmentationManifest(seed, plan, tuple(keys), bytes(levels))


#: What an entry line starts with, before the JSON-encoded key.
_ENTRY_HEAD = '{"sample_key": '
#: What follows the key on an entry line, by stage index then level index:
#: the text `json.dumps` gives for the rest of the record, and the line end.
_ENTRY_TAILS = tuple(
    tuple(f', "stage": "{stage.value}", "level": "{level.name}"}}\n'
          for level in BlurLevel) for stage in Stage)
#: Each tail followed by the next line's `_ENTRY_HEAD`, in the same order.
_TAIL_HEADS = tuple(tuple(tail + _ENTRY_HEAD for tail in tails)
                    for tails in _ENTRY_TAILS)
#: Each tail without its `\n`, bare or ending in `\r`, to the stage index
#: and the level value it gives.
_TAIL_ENTRY = {tail[:-1] + end: (stage, level)
               for stage, tails in enumerate(_ENTRY_TAILS)
               for level, tail in enumerate(tails) for end in ("", "\r")}
#: Where a detector line's key JSON sits, between its head and its tail.
_DETECTOR_KEY = slice(len(_ENTRY_HEAD), 1 - len(_ENTRY_TAILS[0][0]))
#: Level digits `0`..`3` to the level values.
_LEVEL_DIGITS = bytes.maketrans(b"0123", b"\0\1\2\3")


def _header_line(seed: int, plan: TechniquePlan) -> str:
    """The header line of a manifest, without its line end."""
    return json.dumps({"seed": seed, "technique": plan.name.value, **{
        f"{stage.value}_schedule": list(plan.schedule_for(stage).probs)
        for stage in Stage}})


def write_manifest(manifest: AugmentationManifest) -> str:
    """The manifest's text, written from its key grid: each key is encoded
    once, for all of its stages' lines."""
    header_line = _header_line(manifest.seed, manifest.plan) + "\n"
    keys, levels = manifest.keys, manifest.levels
    if not keys:
        return header_line
    # the header line and the first head, then per entry its key and its
    # tail with the next entry's head; the last entry's tail stands bare
    parts = [header_line + _ENTRY_HEAD] + [None] * (2 * len(levels))
    width = len(_STAGES)
    encoded = list(map(encode_basestring_ascii, keys))
    for stage, tail_heads in enumerate(_TAIL_HEADS):
        parts[1 + 2 * stage::2 * width] = encoded
        parts[2 + 2 * stage::2 * width] = map(tail_heads.__getitem__,
                                              levels[stage::width])
    parts[-1] = _ENTRY_TAILS[-1][levels[-1]]
    return "".join(parts)


def _in_layout(runs, levels: bytes, massed: list[bytes]) -> bool:
    """Whether keys `runs` ascend strictly, each stage's `levels` with mass."""
    width = len(_STAGES)
    return not (any(map(ge, runs, runs[1:]))
                or any(levels[stage::width].translate(None, massed[stage])
                       for stage in range(width)))


def _sliced_grid(lines: list[str], massed: list[bytes]):
    """The keys and levels of a manifest's lines, sliced from where
    `write_manifest` puts them, if they pass the column checks; None if
    not, or if a slice does not decode or a line is too short."""
    try:
        runs = json.loads("[" + ",".join(map(
            itemgetter(_DETECTOR_KEY), islice(lines, 1, None, 2))) + "]")
        levels = "".join(map(itemgetter(-3), islice(lines, 1, None))).encode(
            "ascii").translate(_LEVEL_DIGITS)  # the digit of `"MBd"}`
        "".join(runs).encode("utf-8")  # as `plan_dataset` encodes each key
        if (len(levels) == len(_STAGES) * len(runs)
                and _in_layout(runs, levels, massed)):
            return tuple(runs), levels
    except (IndexError, TypeError, ValueError, RecursionError):
        pass  # not the writer's text
    return None


def read_manifest(text: str) -> AugmentationManifest:
    """Parse `write_manifest` output; errors name the 1-based line, and a
    line that does not parse comes before any out of the layout."""
    lines = text.split("\n")
    if lines.pop():
        raise ValueError(f"bad manifest line {len(lines) + 1}: no line end")
    if not lines:
        raise ValueError("empty manifest")
    try:
        header = json.loads(lines[0])
        plan = TechniquePlan(Technique(header["technique"]))
        seed = check_seed(header["seed"])
        if lines[0].removesuffix("\r") != _header_line(seed, plan):
            raise ValueError(f"not the header plan writes for technique "
                             f"{plan.name.value} and seed {seed}")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(
            f"bad manifest header on line 1: {_error_text(exc)}") from exc
    massed = [bytes(level for level, mass in enumerate(
        plan.schedule_for(stage).probs) if mass) for stage in _STAGES]
    if "\r" not in text and len(lines) % 2 and (
            grid := _sliced_grid(lines, massed)):
        del lines  # not held while the grid is written back
        manifest = AugmentationManifest(seed, plan, *grid)
        if write_manifest(manifest) == text:
            return manifest
        lines = text.split("\n")[:-1]
    keys, stages, levels = [], bytearray(), bytearray()
    head = _ENTRY_HEAD + '"'
    for number, line in enumerate(islice(lines, 1, None), 2):
        try:
            if not line.startswith(head):
                raise ValueError
            key, end = scanstring(line, len(head))
            stage, level = _TAIL_ENTRY[line[end:]]
        except (KeyError, ValueError):
            raise ValueError(
                f"bad manifest entry on line {number} {line!r}: not an "
                "entry line as plan writes it") from None
        keys.append(key)
        stages.append(stage)
        levels.append(level)
    width = len(_STAGES)
    runs = keys[::width]
    if (stages != bytes(range(width)) * len(runs)
            or any(keys[stage::width] != runs for stage in range(1, width))
            or not _in_layout(runs, levels, massed)):
        for index, (key, stage, level) in enumerate(zip(keys, stages, levels)):
            if (stage != index % width or key != keys[index - stage]
                    or not stage and index and key <= keys[index - width]
                    or level not in massed[stage]):
                break  # else the last entry: its key lacks a stage
        raise ValueError(
            f"bad manifest entry on line {index + 2}: {_STAGES[stage].value} "
            f"{_LEVELS[level].name} of key {key!r} is out of the layout: "
            "ascending keys, each with a detector and then a captioner "
            f"entry, at levels the {plan.name.value} schedules give mass")
    try:
        "".join(runs).encode("utf-8")  # as `plan_dataset` encodes each key
    except UnicodeEncodeError as exc:
        index = bisect_right(list(accumulate(map(len, runs))), exc.start)
        raise ValueError(f"bad manifest entry on line {width * index + 2}: key "
                         f"{runs[index]!r} cannot be encoded as UTF-8: "
                         f"{exc.reason}") from None
    return AugmentationManifest(seed, plan, tuple(runs), bytes(levels))
