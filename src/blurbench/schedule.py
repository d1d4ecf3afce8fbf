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
`write_manifest` writes a manifest in the layout `plan_dataset` gives
(stage indices 0, 1 repeated, each such run of entries sharing one key)
from its key grid, encoding each key once; any other manifest it writes
entry by entry, to the same text. `read_manifest` reads a body as
written: it checks each entry, not that the body has the layout
`plan_dataset` writes. A line that is the writer's own text,
`{"sample_key": `, a JSON string, then one of the writer's entry tails
(a `\r` before the line end allowed), is taken directly: the key is
decoded by `json.decoder.scanstring`, the strict routine `json.loads`
uses, and the tail gives the stage and level. Any other line, one from a
writer with other separators or field order say, goes through
`json.loads` and the per-entry checks, so every error text, line number
included, is the one a line-by-line read gives; such lines read about 3x
slower.
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
from operator import eq, getitem, index

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


def write_manifest(manifest: AugmentationManifest) -> str:
    """The manifest's text; a manifest in `plan_dataset`'s layout is
    written from its key grid, encoding each key once."""
    header = {"seed": manifest.seed, "technique": manifest.plan.name.value}
    for stage in Stage:
        header[f"{stage.value}_schedule"] = list(
            manifest.plan.schedule_for(stage).probs)
    header_line = json.dumps(header) + "\n"
    keys, stages, levels = manifest.keys, manifest.stages, manifest.levels
    if not keys:
        return header_line
    # the header line and the first head, then per entry its key and its
    # tail with the next entry's head; the last entry's tail stands bare
    parts = [header_line + _ENTRY_HEAD] + [None] * (2 * len(keys))
    width = len(_STAGES)
    runs = keys[::width]
    if (stages == bytes(range(width)) * len(runs)
            and all(keys[stage::width] == runs for stage in range(1, width))):
        encoded = list(map(encode_basestring_ascii, runs))
        for stage, tail_heads in enumerate(_TAIL_HEADS):
            parts[1 + 2 * stage::2 * width] = encoded
            parts[2 + 2 * stage::2 * width] = map(tail_heads.__getitem__,
                                                  levels[stage::width])
    else:
        parts[1::2] = map(encode_basestring_ascii, keys)
        parts[2::2] = map(getitem, map(_TAIL_HEADS.__getitem__, stages),
                          levels)
    parts[-1] = _ENTRY_TAILS[stages[-1]][levels[-1]]
    return "".join(parts)


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
    head = _ENTRY_HEAD + '"'
    for number, line in enumerate(islice(lines, first + 1, None), first + 2):
        if line.startswith(head):  # the writer's own text, if it parses
            try:
                key, end = scanstring(line, len(head))
                stage, level = _TAIL_ENTRY[line[end:]]
            except (KeyError, ValueError):
                pass
            else:
                keys.append(key)
                stages.append(stage)
                levels.append(level)
                continue
        if line.strip():
            _line_entry(line, number, keys, stages, levels)
    return AugmentationManifest(seed, plan, tuple(keys), bytes(stages),
                                bytes(levels))


def _line_entry(line: str, number: int, keys: list[str], stages: bytearray,
                levels: bytearray) -> None:
    """Append the entry of line `number`, parsed on its own, to the
    columns; a bad line raises, naming its number."""
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
