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

A manifest is JSON lines: a header object, then one object per entry; in
memory, three columns: the keys, and one byte each for the stage (its
index in `tuple(Stage)`) and the level (its `BlurLevel` value).
`read_manifest` reads a body as written: it checks each entry, not that
the body has the layout `plan_dataset` writes. It parses the body in
chunks, one `json.loads` per chunk, kept when the chunk holds one `{` per
line (so each line parses alone to its record); otherwise it parses the
chunk again line by line, so every error text, line number included, is
the one a line-by-line read gives.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from functools import partial
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, getitem, index

from .imaging import LEVEL_BY_NAME, BlurLevel

_SUM_TOLERANCE = 1e-9
_DRAWS = 2 ** 53  # draws are the top 53 bits of a 64-bit digest
_LEVELS = tuple(BlurLevel)


class Stage(Enum):
    """Pipeline stage an augmentation entry applies to."""

    DETECTOR = "detector"
    CAPTIONER = "captioner"


_STAGES = tuple(Stage)
_STAGE_BY_VALUE = {stage.value: index for index, stage in enumerate(Stage)}


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
        "AugmentationManifest", "seed plan keys stages levels")):
    """Deterministic per-sample, per-stage blur assignments.

    Entry i is stored across three columns: `keys[i]`, the index
    `stages[i]` into `tuple(Stage)` and the `BlurLevel` value `levels[i]`.
    """

    __slots__ = ()

    @property
    def entries(self) -> tuple[ManifestEntry, ...]:
        return tuple(map(ManifestEntry, self.keys,
                         map(_STAGES.__getitem__, self.stages),
                         map(_LEVELS.__getitem__, self.levels)))


def plan_dataset(sample_keys: Iterable[str], plan: TechniquePlan,
                 seed: int) -> AugmentationManifest:
    """Assign one blur level per (key, stage), independently per stage.

    Entries come out sorted by (key, stage) with the detector stage first;
    duplicate keys and a seed `check_seed` rejects are rejected.
    """
    keys = sorted(sample_keys)
    if any(map(eq, keys, keys[1:])):
        duplicates = sorted({a for a, b in zip(keys, keys[1:]) if a == b})
        raise ValueError(f"duplicate sample keys: {duplicates}")
    encoded = list(map(str.encode, keys))  # UTF-8: fails under every technique
    width = len(_STAGES)
    levels = bytearray(width * len(keys))
    for index, stage in enumerate(_STAGES):
        levels[index::width] = _draw_levels(encoded, plan.schedule_for(stage),
                                            seed, stage.value)
    return AugmentationManifest(
        seed, plan, tuple(chain.from_iterable(zip(*[keys] * width))),
        bytes(range(width)) * len(keys), bytes(levels))


# ---------------------------------------------------------------------------
# Manifest file format: JSON lines, one header object then one object per
# entry.
# ---------------------------------------------------------------------------

#: What follows the key on an entry line, by stage index then level index:
#: the text `json.dumps` gives for the rest of the record, and the line end.
_ENTRY_TAILS = tuple(
    tuple(f', "stage": "{stage.value}", "level": "{level.name}"}}\n'
          for level in BlurLevel) for stage in Stage)
#: Lines per bulk parse in `read_manifest`: few enough that a chunk's
#: joined text and records stay small beside the manifest text.
_READ_CHUNK_LINES = 4096


def write_manifest(manifest: AugmentationManifest) -> str:
    header = {"seed": manifest.seed, "technique": manifest.plan.name.value}
    for stage in Stage:
        header[f"{stage.value}_schedule"] = list(
            manifest.plan.schedule_for(stage).probs)
    tails = map(getitem, map(_ENTRY_TAILS.__getitem__, manifest.stages),
                manifest.levels)
    lines = zip(repeat('{"sample_key": '),
                map(encode_basestring_ascii, manifest.keys), tails)
    return "".join(chain((json.dumps(header), "\n"),
                         chain.from_iterable(lines)))


def read_manifest(text: str) -> AugmentationManifest:
    """Parse `write_manifest` output; errors name the 1-based line."""
    lines = text.split("\n")
    first = next((index for index, line in enumerate(lines) if line.strip()),
                 None)
    if first is None:
        raise ValueError("empty manifest")
    try:
        header = json.loads(lines[first])
        plan = TechniquePlan(Technique(header["technique"]))
        seed = header["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be a JSON integer, not {seed!r}")
        check_seed(seed)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(
            f"bad manifest header on line {first + 1}: {exc}") from exc
    if any(header.get(f"{stage.value}_schedule")
           != list(plan.schedule_for(stage).probs) for stage in Stage):
        raise ValueError("bad manifest header: schedules do not match "
                         f"technique {plan.name.value}")
    keys: list[str] = []
    stages, levels = bytearray(), bytearray()
    for start in range(first + 1, len(lines), _READ_CHUNK_LINES):
        chunk = lines[start:start + _READ_CHUNK_LINES]
        if not _bulk_entries(chunk, keys, stages, levels):
            _line_entries(chunk, start + 1, keys, stages, levels)
    return AugmentationManifest(seed, plan, tuple(keys), bytes(stages),
                                bytes(levels))


def _line_entries(lines: list[str], first: int, keys: list[str],
                  stages: bytearray, levels: bytearray) -> None:
    """Append the entries of `lines`, the first of which is line `first`,
    to the columns, parsing one line at a time; the first bad line raises,
    naming its number."""
    for number, line in enumerate(lines, first):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key = record["sample_key"]
            if not isinstance(key, str):
                raise ValueError(f"sample_key must be a JSON string, not {key!r}")
            stage = Stage(record["stage"])
            level = BlurLevel[record["level"]]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(
                f"bad manifest entry on line {number} {line!r}: {exc}") from exc
        keys.append(key)
        stages.append(_STAGES.index(stage))
        levels.append(level.value)


def _bulk_entries(lines: list[str], keys: list[str], stages: bytearray,
                  levels: bytearray) -> bool:
    """Append what `_line_entries` gives for `lines` to the columns, from
    one `json.loads`; False, appending nothing, when that parse does not
    show that each non-blank line holds exactly one object, which
    `_line_entries` accepts.

    Every non-blank line must start with `{` and end with `}`, the chunk
    must hold no other `{`, and the parse must give one valid record per
    line. Then the lines' opening braces are the only ones, each opens one
    of the records, the records are flat, and no string runs past a line
    end (it would hold the next line's `{`). So each line's last `}`
    closes the record its `{` opens.
    """
    body = []
    for line in lines:
        stripped = line.strip()
        if stripped:
            if stripped[0] != "{" or stripped[-1] != "}":
                return False
            body.append(line)
    array = "[" + ",".join(body) + "]"
    if array.count("{") != len(body):
        return False
    try:
        records = json.loads(array)
        if len(records) != len(body):
            return False
        chunk_keys = [record["sample_key"] for record in records]
        chunk_stages = bytes([_STAGE_BY_VALUE[record["stage"]]
                              for record in records])
        chunk_levels = bytes([LEVEL_BY_NAME[record["level"]]
                              for record in records])
    except (KeyError, TypeError, ValueError, RecursionError):
        return False
    if any(type(key) is not str for key in chunk_keys):
        return False
    keys += chunk_keys
    stages += chunk_stages
    levels += chunk_levels
    return True
