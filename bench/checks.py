"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct. The recomputations here share no code with blurbench, except the
plan check, whose reference is by definition `plan_dataset`'s own result.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Box kernel (width, height) per level, anchored at floor(tap / 2).
TAPS = {"MB0": (1, 1), "MB1": (6, 1), "MB2": (18, 6), "MB3": (45, 12)}
BLUR_SAMPLES = 1024
SCORE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# blur: sampled pixels recomputed by direct mirrored-window sums
# ---------------------------------------------------------------------------

def decode_pnm(data: bytes) -> np.ndarray:
    """Samples (h, w, c) of a binary P5/P6 file with the canonical
    ``<magic>\\n<w> <h>\\n255\\n`` header and no trailing bytes."""
    tokens = data[:64].split(maxsplit=4)
    channels = {b"P5": 1, b"P6": 3}.get(tokens[0] if tokens else b"")
    if channels is None or len(tokens) < 4 or tokens[3] != b"255":
        raise ValueError(f"unexpected header {data[:20]!r}")
    width, height = int(tokens[1]), int(tokens[2])
    header = b"%s\n%d %d\n255\n" % (tokens[0], width, height)
    if (not data.startswith(header)
            or len(data) != len(header) + width * height * channels):
        raise ValueError(f"malformed raster {data[:20]!r}, {len(data)} bytes")
    return np.frombuffer(data, np.uint8, offset=len(header)).reshape(
        height, width, channels)


def mirror(index: np.ndarray, n: int) -> np.ndarray:
    """Reflect out-of-range coordinates without repeating the edge sample."""
    index = np.abs(index)
    return np.where(index >= n, 2 * n - 2 - index, index)


def check_blur(source: bytes, outputs: dict[str, bytes],
               rng: np.random.Generator) -> list[str]:
    """Every level's output has the source's shape, and at BLUR_SAMPLES
    distinct seeded positions (all of them, in a smaller raster) equals the
    rounded-half-up mean of its mirrored window."""
    src = decode_pnm(source)
    h, w, c = src.shape
    problems = []
    for level, (kw, kh) in TAPS.items():
        if level not in outputs:
            problems.append(f"{level}: output missing")
            continue
        try:
            out = decode_pnm(outputs[level])
        except ValueError as exc:
            problems.append(f"{level}: {exc}")
            continue
        if out.shape != src.shape:
            problems.append(f"{level}: shape {out.shape} != {src.shape}")
            continue
        n = min(BLUR_SAMPLES, src.size)
        ys, xs, cs = np.unravel_index(
            rng.choice(src.size, size=n, replace=False), src.shape)
        rows = mirror(ys[:, None] - kh // 2 + np.arange(kh), h)
        cols = mirror(xs[:, None] - kw // 2 + np.arange(kw), w)
        windows = src[rows[:, :, None], cols[:, None, :], cs[:, None, None]]
        sums = windows.sum(axis=(1, 2), dtype=np.int64)
        taps = kw * kh
        expected = (2 * sums + taps) // (2 * taps)
        bad = np.flatnonzero(out[ys, xs, cs] != expected)
        if bad.size:
            k = bad[0]
            problems.append(
                f"{level}: {bad.size}/{n} sampled samples wrong, e.g. "
                f"({ys[k]},{xs[k]},{cs[k]}) = {out[ys[k], xs[k], cs[k]]}, "
                f"expected {expected[k]}")
    return problems


# ---------------------------------------------------------------------------
# score: CSV against the direct-formula oracle of tests/oracles.py
# ---------------------------------------------------------------------------

def _oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    return oracles


def words(text: str) -> list[str]:
    return [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]


def read_scores(text: str) -> dict[tuple[str, str], float]:
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    if not rows or rows[0] != ["technique", "level", "score"]:
        raise ValueError("scores CSV lacks its header")
    return {(t, level): float(s) for t, level, s in rows[1:]}


def oracle_scores(dataset: dict, predictions: list, flags: dict[str, str],
                  max_n: int = 4, sigma: float = 6.0,
                  scale: float = 10.0) -> dict[str, float]:
    """Corpus CIDEr-D per level and per MB0 flag subset, as `score` defines
    them: level rows use the split's df, subset rows the subset's own."""
    oracles = _oracles()
    refs: dict[str, list[list[str]]] = {}
    for ann in dataset["annotations"]:
        refs.setdefault(str(ann["image_id"]), []).append(words(ann["caption"]))
    cands = {(str(p["image_id"]), p["blur_level"]): words(p["caption"])
             for p in predictions}
    ids = [str(image["id"]) for image in dataset["images"]]

    def corpus(image_ids, level):
        df = oracles.document_frequency([refs[i] for i in image_ids], max_n)
        total = []
        for i in image_ids:
            per_ref = [oracles.per_reference_similarities(
                cands[(i, level)], ref, df, len(image_ids), max_n, sigma)
                for ref in refs[i]]
            per_n = [math.fsum(s[n] for s in per_ref) / len(per_ref)
                     for n in range(max_n)]
            total.append(scale * math.fsum(per_n) / max_n)
        return math.fsum(total) / len(total)

    result = {level: corpus(ids, level) for level in TAPS}
    for flag in ("with_blur", "no_blur"):
        subset = [i for i in ids if flags[i] == flag]
        if subset:
            result[flag] = corpus(subset, "MB0")
    return result


def check_scores(scores_csv: str, technique: str, dataset: dict,
                 predictions: list, flags: dict[str, str]) -> list[str]:
    try:
        got = read_scores(scores_csv)
    except ValueError as exc:
        return [f"scores: {exc}"]
    want = {(technique, k): v for k, v in
            oracle_scores(dataset, predictions, flags).items()}
    if set(got) != set(want):
        return [f"scores: rows {sorted(got)} != {sorted(want)}"]
    return [f"scores: {key} = {got[key]!r}, oracle {want[key]!r}"
            for key in sorted(want)
            if not abs(got[key] - want[key]) <= SCORE_TOLERANCE]


# ---------------------------------------------------------------------------
# report: deltas recomputed from the rendered tenths
# ---------------------------------------------------------------------------

def _tenths(rendered: str) -> int:
    return int(Decimal(rendered) * 10)


def check_report(scores_csv: str, out_dir: Path) -> list[str]:
    """The score table renders every input score at one decimal, and every
    degradation delta equals MB0 minus the level in rendered tenths."""
    try:
        table = read_scores((out_dir / "score_table.csv").read_text())
        deltas = read_scores((out_dir / "degradation.csv").read_text()
                             .replace("technique,level,delta",
                                      "technique,level,score"))
    except (OSError, ValueError) as exc:
        return [f"report: {exc}"]
    rendered = {key: f"{value:.1f}" for key, value in table.items()}
    problems = [f"report: score {key} rendered {rendered.get(key)}, input {value!r}"
                for key, value in read_scores(scores_csv).items()
                if rendered.get(key) != f"{value:.1f}"]
    for (technique, level), delta in deltas.items():
        if {(technique, "MB0"), (technique, level)} - set(rendered):
            problems.append(f"report: delta {technique} {level} has no scores")
            continue
        want = (_tenths(rendered[(technique, "MB0")])
                - _tenths(rendered[(technique, level)]))
        if _tenths(f"{delta:.1f}") != want:
            problems.append(f"report: delta {technique} {level} = {delta}, "
                            f"recomputed {want / 10}")
    if len(deltas) != 4 * len({t for t, _ in table}):
        problems.append(f"report: {len(deltas)} delta rows")
    return problems


# ---------------------------------------------------------------------------
# plan: read_manifest round-trips to plan_dataset's result
# ---------------------------------------------------------------------------

def check_plan(keys_path: Path, technique: str, seed: int,
               manifest_path: Path) -> list[str]:
    from blurbench.schedule import plan_dataset, read_manifest, technique_plan

    keys = keys_path.read_text().split()
    expected = plan_dataset(keys, technique_plan(technique), seed)
    try:
        got = read_manifest(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"plan {technique}: {exc}"]
    if got != expected:
        return [f"plan {technique}: manifest does not round-trip to plan_dataset"]
    return []
