"""Blur-level probability schedules and deterministic augmentation manifests.

A Schedule assigns each blur level a probability. Each of the four
training techniques is a fixed pair of a detector-stage and a
captioner-stage schedule, listed once in `_TECHNIQUE_SCHEDULES`:

    No-Aug          detector [1, 0, 0, 0]        captioner [1, 0, 0, 0]
    ObjDet-Aug      detector [0.8, 0.1, 0.1, 0]  captioner [1, 0, 0, 0]
    Cap-Aug         detector [1, 0, 0, 0]        captioner [0.5, 0.2, 0.2, 0.1]
    ObjDet-Cap-Aug  detector [0.8, 0.1, 0.1, 0]  captioner [0.5, 0.2, 0.2, 0.1]

Level draws are a pure function of (seed, sample key, stage): the key is
hashed with BLAKE2b-64 (seed as the hash key, stage as personalization),
the top 53 bits become a uniform number in [0, 1), and the schedule CDF is
inverted with ties resolved toward the lower level. No RNG stream is
involved, so assignments are independent of iteration order and stable
across platforms.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .imaging import BlurLevel

_SUM_TOLERANCE = 1e-9
_U64 = 0xFFFFFFFFFFFFFFFF


class Stage(Enum):
    """Pipeline stage an augmentation entry applies to."""

    DETECTOR = "detector"
    CAPTIONER = "captioner"


@dataclass(frozen=True)
class Schedule:
    """Probability per blur level, in MB0..MB3 order.

    The one home of a schedule's checks: entries lie in [0, 1] and sum to
    1 within 1e-9. They are stored rescaled so the CDF ends at 1; rescaling
    twice can change them, so build a schedule from literals only.
    """

    probs: tuple[float, float, float, float]

    def __post_init__(self):
        values = tuple(float(p) for p in self.probs)
        if len(values) != len(BlurLevel):
            raise ValueError(
                f"need {len(BlurLevel)} probabilities, got {len(values)}")
        if any(not 0.0 <= p <= 1.0 for p in values):
            raise ValueError(f"probabilities outside [0, 1]: {values}")
        total = sum(values)
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "probs", tuple(p / total for p in values))


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


@dataclass(frozen=True)
class TechniquePlan:
    """A technique; its per-stage schedules are fixed by the technique."""

    name: Technique

    def schedule_for(self, stage: Stage) -> Schedule:
        detector, captioner = _TECHNIQUE_SCHEDULES[self.name]
        return detector if stage is Stage.DETECTOR else captioner


def technique_plan(name: Technique | str) -> TechniquePlan:
    return TechniquePlan(name if isinstance(name, Technique)
                         else parse_technique(name))


def _unit_uniform(seed: int, sample_key: str, stage: str = "") -> float:
    """Uniform [0, 1) from BLAKE2b-64(key=seed, person=stage, data=key)."""
    digest = hashlib.blake2b(
        sample_key.encode("utf-8"),
        digest_size=8,
        key=(seed & _U64).to_bytes(8, "big"),
        person=stage.encode("utf-8"),
    ).digest()
    return (int.from_bytes(digest, "big") >> 11) * 2.0 ** -53


def sample_level(sample_key: str, schedule: Schedule, seed: int,
                 stage: str = "") -> BlurLevel:
    """Draw a blur level for a sample key.

    Pure function of (seed, sample_key, stage): the hashed uniform value is
    pushed through the schedule's inverse CDF, with a value landing exactly
    on a boundary resolved toward the lower level.
    """
    u = _unit_uniform(seed, sample_key, stage)
    cumulative = 0.0
    for level, p in zip(BlurLevel, schedule.probs):
        cumulative += p
        if u <= cumulative:
            return level
    # float shortfall at the top of the CDF; take the highest level that
    # actually has probability mass
    for level, p in zip(reversed(list(BlurLevel)), reversed(schedule.probs)):
        if p > 0.0:
            return level
    raise ValueError("schedule has no positive probability")


@dataclass(frozen=True)
class ManifestEntry:
    sample_key: str
    stage: Stage
    level: BlurLevel


@dataclass(frozen=True)
class AugmentationManifest:
    """Deterministic per-sample, per-stage blur assignments."""

    seed: int
    plan: TechniquePlan
    entries: tuple[ManifestEntry, ...] = field(default_factory=tuple)


def plan_dataset(sample_keys: Iterable[str], plan: TechniquePlan,
                 seed: int) -> AugmentationManifest:
    """Assign one blur level per (key, stage), independently per stage.

    Entries come out sorted by (key, stage) with the detector stage first;
    duplicate keys are rejected.
    """
    keys = sorted(sample_keys)
    duplicates = sorted({a for a, b in zip(keys, keys[1:]) if a == b})
    if duplicates:
        raise ValueError(f"duplicate sample keys: {duplicates}")
    schedules = [(stage, plan.schedule_for(stage)) for stage in Stage]
    entries = tuple(
        ManifestEntry(key, stage,
                      sample_level(key, schedule, seed, stage=stage.value))
        for key in keys for stage, schedule in schedules)
    return AugmentationManifest(seed=seed, plan=plan, entries=entries)


def empirical_frequencies(manifest: AugmentationManifest,
                          stage: Stage) -> tuple[Fraction, ...]:
    """Per-level fraction of the manifest's entries at a stage.

    Returned as exact rationals, so the four values sum to exactly 1.
    """
    counts = Counter(e.level for e in manifest.entries if e.stage is stage)
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"manifest has no entries for stage {stage.value}")
    return tuple(Fraction(counts.get(level, 0), total) for level in BlurLevel)


# ---------------------------------------------------------------------------
# Manifest file format: JSON lines, one header object then one object per
# entry.
# ---------------------------------------------------------------------------

def write_manifest(manifest: AugmentationManifest) -> str:
    header = {"seed": manifest.seed, "technique": manifest.plan.name.value}
    for stage in Stage:
        header[f"{stage.value}_schedule"] = list(
            manifest.plan.schedule_for(stage).probs)
    lines = [json.dumps(header)]
    for entry in manifest.entries:
        lines.append(json.dumps({
            "sample_key": entry.sample_key,
            "stage": entry.stage.value,
            "level": entry.level.name,
        }))
    return "\n".join(lines) + "\n"


def read_manifest(text: str) -> AugmentationManifest:
    """Parse `write_manifest` output; errors name the 1-based line."""
    numbered = ((number, line) for number, line
                in enumerate(text.splitlines(), 1) if line.strip())
    number, line = next(numbered, (0, None))
    if line is None:
        raise ValueError("empty manifest")
    try:
        header = json.loads(line)
        plan = TechniquePlan(Technique(header["technique"]))
        seed = int(header["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad manifest header on line {number}: {exc}") from exc
    if any(header.get(f"{stage.value}_schedule")
           != list(plan.schedule_for(stage).probs) for stage in Stage):
        raise ValueError("bad manifest header: schedules do not match "
                         f"technique {plan.name.value}")
    entries = []
    for number, line in numbered:
        try:
            record = json.loads(line)
            entries.append(ManifestEntry(
                record["sample_key"],
                Stage(record["stage"]),
                BlurLevel[record["level"]],
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"bad manifest entry on line {number} {line!r}: {exc}") from exc
    return AugmentationManifest(seed=seed, plan=plan, entries=tuple(entries))
