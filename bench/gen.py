"""Seeded inputs for the benchmark workloads.

Every file is a pure function of (workload, seed): the same pair writes
byte-identical files, so two runs of one seed measure the same inputs.
The generator runs in its own process before the measured one, so its
arrays never count towards the measured peak RSS.

Each workload gets a *primary* input set, sized like the study it
stands for, and small *probe* inputs for the subcommands it does not
stress (the workload classes in measure.py say why each one exists).

Usage: python3 bench/gen.py <workload> <seed> <out-dir>
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

import numpy as np

LEVELS = ("MB0", "MB1", "MB2", "MB3")
TECHNIQUES = ("No-Aug", "ObjDet-Aug", "Cap-Aug", "ObjDet-Cap-Aug")

#: Karpathy split sizes.
KARPATHY_TEST_IMAGES = 5000
KARPATHY_TRAIN_KEYS = 113287
REFS_PER_IMAGE = 5
WITH_BLUR_SHARE = 0.3
#: Chance that a prediction token is replaced by a random vocabulary word,
#: per level; rising noise makes predictions share fewer n-grams with
#: their references as blur grows.
PREDICTION_NOISE = (0.25, 0.4, 0.55, 0.7)
VOCABULARY = 4000
ZIPF_EXPONENT = 1.1

#: Primary raster set of blur_rasters, one CLI call per raster per pass:
#: (count, width, height, channels).
RASTER_SET = ((40, 640, 480, 3), (15, 640, 480, 1), (1, 4000, 3000, 3))
#: Probe inputs are small, yet large enough that computation rather than
#: file-system calls dominates each call: tiny calls time mostly the
#: host's syscall latency, which swings by 2x between seconds.
PROBE_RASTERS = ((3, 320, 240, 3), (1, 320, 240, 1))
PROBE_IMAGES = 40
PROBE_REPORT_IMAGES = 1000
#: Images of the seeded sample on which score_split's output meets the oracle.
ORACLE_SAMPLE_IMAGES = 200
PROBE_KEYS = 5000


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream), stable across Python runs."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(stream.encode())])


# ---------------------------------------------------------------------------
# Rasters
# ---------------------------------------------------------------------------

def raster_bytes(rng: np.random.Generator, width: int, height: int,
                 channels: int) -> bytes:
    samples = rng.integers(0, 256, size=(height, width, channels), dtype=np.uint8)
    magic = b"P6" if channels == 3 else b"P5"
    return b"%s\n%d %d\n255\n" % (magic, width, height) + samples.tobytes()


def write_rasters(rng, spec, directory: Path) -> list[str]:
    """Write the rasters of `spec` in a seeded order; return their names."""
    shapes = [(w, h, c) for count, w, h, c in spec for _ in range(count)]
    order = rng.permutation(len(shapes))
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for index, k in enumerate(order):
        width, height, channels = shapes[k]
        name = f"r{index:03d}.{'ppm' if channels == 3 else 'pgm'}"
        (directory / name).write_bytes(raster_bytes(rng, width, height, channels))
        names.append(name)
    return names


# ---------------------------------------------------------------------------
# Caption split
# ---------------------------------------------------------------------------

def make_vocabulary(rng) -> tuple[list[str], np.ndarray]:
    """Distinct pseudo-words and the cumulative Zipf distribution of ranks."""
    syllables = [c + v for c in "bcdfghklmnprstvwz" for v in "aeiou"]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCABULARY:
        word = "".join(rng.choice(syllables, size=int(rng.integers(1, 4))))
        if word not in seen:
            seen.add(word)
            words.append(word)
    weights = 1.0 / np.arange(1, VOCABULARY + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return words, cdf


def caption_text(tokens: list[str]) -> str:
    return " ".join([tokens[0].capitalize()] + tokens[1:]) + "."


def make_split(rng, n_images: int) -> tuple[dict, list, dict[str, str]]:
    """Caption document, prediction list and flag per image id.

    Every caption in the split is distinct, so the distinct-caption count
    is exactly 5 references + 4 predictions per image.
    """
    words, cdf = make_vocabulary(rng)

    def zipf_words(size: int) -> list[str]:
        return [words[i] for i in cdf.searchsorted(rng.random(size), side="right")]

    ids = rng.choice(np.arange(1, 600000), size=n_images, replace=False)
    seen: set[str] = set()

    def unique(draw):
        while True:
            tokens = draw()
            text = caption_text(tokens)
            if text not in seen:
                seen.add(text)
                return tokens, text

    def fresh():
        return zipf_words(int(rng.integers(8, 15)))

    images, annotations, predictions, flags = [], [], [], {}
    for image_id in (int(i) for i in ids):
        images.append({"id": image_id,
                       "file_name": f"COCO_val2014_{image_id:012d}.jpg"})
        refs = []
        for _ in range(REFS_PER_IMAGE):
            tokens, text = unique(fresh)
            refs.append(tokens)
            annotations.append({"image_id": image_id, "caption": text})
        for level, noise in zip(LEVELS, PREDICTION_NOISE):
            def noisy(base=refs[int(rng.integers(REFS_PER_IMAGE))], noise=noise):
                replace = rng.random(len(base)) < noise
                return [new if r else old for old, new, r
                        in zip(base, zipf_words(len(base)), replace)]
            _, text = unique(noisy)
            predictions.append({"image_id": image_id, "blur_level": level,
                                "caption": text})
        flags[str(image_id)] = ("with_blur" if rng.random() < WITH_BLUR_SHARE
                                else "no_blur")
    return {"split": "test", "images": images, "annotations": annotations}, \
        predictions, flags


def sample_split(rng, split, n_images: int):
    """The same split restricted to a seeded sample of its images."""
    dataset, predictions, flags = split
    images = dataset["images"]
    chosen = {str(images[k]["id"])
              for k in rng.choice(len(images), size=n_images, replace=False)}
    return ({"split": dataset["split"],
             "images": [i for i in images if str(i["id"]) in chosen],
             "annotations": [a for a in dataset["annotations"]
                             if str(a["image_id"]) in chosen]},
            [p for p in predictions if str(p["image_id"]) in chosen],
            {i: f for i, f in flags.items() if i in chosen})


def write_split(split, directory: Path) -> None:
    dataset, predictions, flags = split
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "dataset.json").write_text(json.dumps(dataset))
    (directory / "predictions.json").write_text(json.dumps(predictions))
    (directory / "flags.csv").write_text(
        "image_id,flag\n" + "".join(f"{i},{f}\n" for i, f in flags.items()))


# ---------------------------------------------------------------------------
# Keys and report inputs
# ---------------------------------------------------------------------------

def write_keys(rng, n_keys: int, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    ids = rng.choice(np.arange(1, 600000), size=n_keys, replace=False)
    path.write_text("".join(f"COCO_train2014_{int(i):012d}\n" for i in ids))


def write_report_inputs(rng, n_images: int, directory: Path) -> None:
    """Four-technique scores CSV, feature-count CSV and flags."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["# seed=0", "technique,level,score"]
    for technique in TECHNIQUES:
        score = float(rng.uniform(0.9, 1.2))
        for level in LEVELS:
            lines.append(f"{technique},{level},{score!r}")
            score -= float(rng.uniform(0.05, 0.2))
        for label in ("with_blur", "no_blur"):
            lines.append(f"{technique},{label},{float(rng.uniform(0.8, 1.2))!r}")
    (directory / "scores.csv").write_text("\n".join(lines) + "\n")

    ids = rng.choice(np.arange(1, 600000), size=n_images, replace=False)
    rows = ["image_id,level,count"]
    flags = ["image_id,flag"]
    for image_id in (int(i) for i in ids):
        for k, level in enumerate(LEVELS):
            rows.append(f"{image_id},{level},{int(rng.poisson(36 - 6 * k))}")
        flag = "with_blur" if rng.random() < WITH_BLUR_SHARE else "no_blur"
        flags.append(f"{image_id},{flag}")
    (directory / "features.csv").write_text("\n".join(rows) + "\n")
    (directory / "flags.csv").write_text("\n".join(flags) + "\n")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, out: Path) -> None:
    """Write `workload`'s primary and probe inputs under `out`."""
    def rng(stream):
        return rng_for(seed, f"{workload}/{stream}")

    big = {"blur_rasters": "rasters", "score_split": "split",
           "plan_report": "plan_report"}[workload]
    rasters = write_rasters(
        rng("rasters"), RASTER_SET if big == "rasters" else PROBE_RASTERS,
        out / "rasters")
    split = make_split(
        rng("split"), KARPATHY_TEST_IMAGES if big == "split" else PROBE_IMAGES)
    write_split(split, out / "split")
    if big == "split":
        write_split(sample_split(rng("sample"), split, ORACLE_SAMPLE_IMAGES),
                    out / "split_sample")
    write_keys(rng("keys"),
               KARPATHY_TRAIN_KEYS if big == "plan_report" else PROBE_KEYS,
               out / "keys.txt")
    write_report_inputs(
        rng("report"),
        KARPATHY_TEST_IMAGES if big == "plan_report" else PROBE_REPORT_IMAGES,
        out / "report")
    (out / "rasters.json").write_text(json.dumps(rasters))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip().splitlines()[-1])
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
