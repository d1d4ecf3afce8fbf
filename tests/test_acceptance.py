"""Acceptance suite: one test per release criterion.

Each test enforces the criterion at its stated tolerance; the conftest
hook prints a PASS/FAIL line per criterion. Run with:

    pytest tests/test_acceptance.py -v
"""

import filecmp
import json
import time
from collections import Counter

import numpy as np

from blurbench.cider import build_idf, cider_d, tokenize
from blurbench.cli import main
from blurbench.imaging import (
    BlurLevel,
    apply_blur,
    load_image,
    make_kernel,
    save_image,
)
from blurbench.ingest import (
    BlurFlag,
    filter_by_blur_flag,
    parse_blur_flags,
    parse_captions,
    parse_feature_counts,
    parse_predictions,
    write_csv,
)
from blurbench.report import build_histograms
from blurbench.schedule import (
    Stage,
    plan_dataset,
    technique_plan,
    write_manifest,
)
from conftest import feature_counts, feature_rows, random_image, stage_levels
from oracles import blur_windows, cider_d_formula, idf_of

COCO_ROWS = {
    "No-Aug": (117.1, 111.4, 95.0, 48.4),
    "ObjDet-Aug": (116.6, 114.6, 111.7, 100.2),
    "Cap-Aug": (116.8, 115.0, 108.8, 85.1),
    "ObjDet-Cap-Aug": (117.4, 116.0, 113.4, 105.7),
}
VIZWIZ_ROWS = {
    "No-Aug": (48.8, 47.0, 40.9, 26.4),
    "ObjDet-Aug": (48.9, 48.1, 45.6, 39.5),
    "Cap-Aug": (50.0, 49.2, 46.9, 38.2),
    "ObjDet-Cap-Aug": (50.3, 49.9, 48.1, 43.5),
}


def test_convolution_oracle_equivalence():
    """100 random images, all four kernels, bit-identical to the naive
    window-sum reference, in under 10 seconds."""
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    for index in range(100):
        width = int(rng.integers(45, 129))
        height = int(rng.integers(12, 129))
        channels = 1 if index % 2 == 0 else 3
        img = random_image(rng, width, height, channels)
        for level in BlurLevel:
            kernel = make_kernel(level)
            fast = apply_blur(img, kernel)
            reference = blur_windows(img, kernel.tap_width, kernel.tap_height)
            assert np.array_equal(fast, reference), \
                (width, height, channels, level.name)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_constant_preservation():
    """Blurring a constant image returns it exactly, for every kernel."""
    for value in (0, 1, 128, 254, 255):
        img = np.full((20, 60, 3), value, dtype=np.uint8)
        for level in BlurLevel:
            assert np.array_equal(apply_blur(img, make_kernel(level)), img)
    flat = np.full((12, 45, 1), 17, dtype=np.uint8)
    assert all(np.array_equal(apply_blur(flat, make_kernel(level)), flat)
               for level in BlurLevel)


def test_cider_oracle_equivalence(toy_dataset, toy_predictions):
    """20 hand-written candidates on the 10-image toy corpus agree with
    the direct-formula oracle within 1e-9 per image."""
    idf = build_idf(toy_dataset)
    corpus = [[tokenize(r) for r in refs] for refs in toy_dataset.values()]
    candidates = [(i, level) for i in toy_dataset
                  for level in (BlurLevel.MB0, BlurLevel.MB3)]
    assert len(candidates) == 20
    for image_id, level in candidates:
        candidate = tokenize(toy_predictions[(image_id, level)])
        refs = [tokenize(r) for r in toy_dataset[image_id]]
        mine = cider_d(candidate, refs, idf)
        oracle = cider_d_formula(candidate, refs, corpus)
        assert abs(mine - oracle) < 1e-9, (image_id, level.name)


def test_cider_boundary_values(toy_dataset):
    """Identical candidate scores 10 +- 1e-9; disjoint scores exactly 0."""
    idf = build_idf(toy_dataset)
    # "snow capped peaks rise above the blue lake": 8 tokens, and none of
    # its n-grams appear in any other toy image, so idf > 0 throughout
    candidate = tokenize(toy_dataset["img09"][3])
    assert len(candidate) >= 4
    assert all(idf_of(idf, g) > 0
               for n in range(1, 5)
               for g in [tuple(candidate[k:k + n])
                         for k in range(len(candidate) - n + 1)])
    assert abs(cider_d(candidate, [candidate], idf) - 10.0) < 1e-9

    refs = [tokenize(r) for r in toy_dataset["img00"]]
    assert cider_d(tokenize("qq ww ee rr tt"), refs, idf) == 0.0


def test_schedule_convergence():
    """100k keys: captioner schedule within +-0.01 per level, detector
    schedule yields zero MB3; same-seed runs are byte-identical."""
    keys = [f"sample-{i:06d}" for i in range(100_000)]

    captioner_draws = stage_levels(keys, "Cap-Aug", 0, Stage.CAPTIONER)
    frequency = Counter(captioner_draws)
    for level, p in zip(BlurLevel, (0.5, 0.2, 0.2, 0.1)):
        empirical = frequency.get(level, 0) / len(keys)
        assert abs(empirical - p) <= 0.01, (level.name, empirical)

    detector_draws = stage_levels(keys, "ObjDet-Aug", 0, Stage.DETECTOR)
    assert Counter(detector_draws)[BlurLevel.MB3] == 0

    rerun = stage_levels(keys, "Cap-Aug", 0, Stage.CAPTIONER)
    assert "".join(l.name for l in rerun).encode() == \
        "".join(l.name for l in captioner_draws).encode()
    plan = technique_plan("ObjDet-Cap-Aug")
    subset = keys[:10_000]
    assert write_manifest(plan_dataset(subset, plan, 7)).encode() == \
        write_manifest(plan_dataset(subset, plan, 7)).encode()


def _scores_csv(rows, subsets=None):
    lines = ["technique,level,score"]
    for technique, values in rows.items():
        for level, value in zip(("MB0", "MB1", "MB2", "MB3"), values):
            lines.append(f"{technique},{level},{value}")
        if subsets:
            with_blur, no_blur = subsets[technique]
            lines.append(f"{technique},with_blur,{with_blur}")
            lines.append(f"{technique},no_blur,{no_blur}")
    return "\n".join(lines) + "\n"


def test_table_fixture_reproduction(tmp_path, data_dir):
    """Feeding published scores through the report command reproduces
    every cell at 1 decimal and the headline deltas exactly."""
    features = data_dir / "toy_feature_counts.csv"
    cases = [
        ("coco", COCO_ROWS, ("No-Aug", "68.7"), ("ObjDet-Cap-Aug", "11.7")),
        ("vizwiz", VIZWIZ_ROWS, ("No-Aug", "22.4"), ("ObjDet-Cap-Aug", "6.8")),
    ]
    for name, rows, worst, best in cases:
        scores = tmp_path / f"{name}.csv"
        scores.write_text(_scores_csv(rows))
        out = tmp_path / name
        assert main(["--out", str(out), "report", str(scores),
                     str(features)]) == 0

        table_md = (out / "score_table.md").read_text()
        for technique, values in rows.items():
            cells = " | ".join(f"{v:.1f}" for v in values)
            assert f"| {technique} | {cells} |" in table_md, (name, technique)

        degradation = (out / "degradation.csv").read_text()
        for technique, expected in (worst, best):
            assert f"{technique},MB3,{expected}" in degradation, (name, technique)
        # and numerically exact, in integer tenths, not just textually
        from blurbench.report import degradation_deltas, parse_scores_csv
        deltas = degradation_deltas(parse_scores_csv(_scores_csv(rows)))
        assert deltas[worst[0]][BlurLevel.MB3] == int(worst[1].replace(".", ""))
        assert deltas[best[0]][BlurLevel.MB3] == int(best[1].replace(".", ""))


def test_histogram_conservation(toy_feature_records):
    """Bin totals equal record counts per level; the synthetic fixture's
    mean count strictly decreases MB0 -> MB3."""
    rows = feature_rows(toy_feature_records)
    for bin_width in (1, 7, 10, 25):
        for at, bins in build_histograms(toy_feature_records,
                                         bin_width).items():
            records_at_level = sum(1 for _, level, _ in rows if level is at)
            assert sum(bins.values()) == records_at_level
    counts = [[count for _, at, count in rows if at is level]
              for level in BlurLevel]
    means = [sum(c) / len(c) for c in counts]
    assert all(a > b for a, b in zip(means, means[1:])), means


def test_ingest_round_trip(toy_dataset, toy_flags):
    """Documents written from in-memory values, with `json.dumps` and
    `write_csv`, parse back to those values, ids holding commas, quotes
    and line breaks included; and the blur-flag subsets partition the
    split."""
    ids = ["img00", "a,b", 'say "hi"', "x\ny", "x\r\ny", "7"]
    split = {i: [f"caption {k} of {i}" for k in range(1 + n % 3)]
             for n, i in enumerate(ids)}
    captions = {"split": "val",
                "images": [{"id": i, "file_name": f"{i}.ppm"} for i in split],
                "annotations": [{"image_id": i, "caption": c}
                                for i, refs in split.items() for c in refs]}
    parsed = parse_captions(json.dumps(captions).encode())
    assert parsed == split and list(parsed) == ids

    preds = {(i, level): f"{i} at {level.name}"
             for i in ids for level in BlurLevel}
    assert parse_predictions(json.dumps([
        {"image_id": i, "blur_level": level.name, "caption": caption}
        for (i, level), caption in preds.items()]).encode()) == preds

    rows = [(i, level, n % 50) for n, (i, level) in enumerate(preds)]
    assert parse_feature_counts(write_csv(
        ["image_id", "level", "count"],
        [[i, level.name, count] for i, level, count in rows]).encode()) == \
        feature_counts(rows)

    flags = {i: list(BlurFlag)[n % 2] for n, i in enumerate(ids)}
    assert parse_blur_flags(write_csv(
        ["image_id", "flag"],
        [[i, flag.value] for i, flag in flags.items()]).encode()) == flags

    for ds, by_image in ((split, flags), (toy_dataset, toy_flags)):
        with_blur = filter_by_blur_flag(ds, by_image, BlurFlag.WITH_BLUR)
        no_blur = filter_by_blur_flag(ds, by_image, BlurFlag.NO_BLUR)
        assert with_blur and no_blur
        assert set(with_blur).isdisjoint(no_blur)
        assert {**with_blur, **no_blur} == ds


def _end_to_end(base, data_dir):
    """blur -> plan -> score -> report on the bundled toy dataset."""
    images = base / "images"
    rng = np.random.default_rng(99)
    for i in range(10):
        img = random_image(rng, 64, 48, 3)
        images.mkdir(parents=True, exist_ok=True)
        (images / f"img{i:02d}.ppm").write_bytes(save_image(img))

    variants = base / "variants"
    assert main(["--out", str(variants), "blur", str(images)]) == 0
    assert len(list(variants.iterdir())) == 40

    planned = base / "plan"
    assert main(["--seed", "7", "--out", str(planned), "plan",
                 str(data_dir / "toy_keys.txt"),
                 "--technique", "ObjDet-Cap-Aug"]) == 0

    scored = base / "score"
    assert main(["--out", str(scored), "score",
                 str(data_dir / "toy_captions.json"),
                 str(data_dir / "toy_predictions.json"),
                 "--technique", "ObjDet-Cap-Aug",
                 "--flags", str(data_dir / "toy_flags.csv")]) == 0

    reported = base / "report"
    assert main(["--out", str(reported), "report",
                 str(scored / "scores.csv"),
                 str(data_dir / "toy_feature_counts.csv"),
                 "--flags", str(data_dir / "toy_flags.csv")]) == 0
    return [variants, planned, scored, reported]


def test_end_to_end_smoke(tmp_path, data_dir):
    """Full pipeline completes in under 30 s with byte-identical outputs
    across two runs."""
    start = time.monotonic()
    first = _end_to_end(tmp_path / "run1", data_dir)
    second = _end_to_end(tmp_path / "run2", data_dir)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"end-to-end took {elapsed:.1f}s"

    for dir1, dir2 in zip(first, second):
        names1 = sorted(p.name for p in dir1.iterdir())
        names2 = sorted(p.name for p in dir2.iterdir())
        assert names1 == names2
        match, mismatch, errors = filecmp.cmpfiles(dir1, dir2, names1,
                                                   shallow=False)
        assert mismatch == [] and errors == [], (dir1, mismatch, errors)
        assert match == names1

    # the report actually carries the toy corpus degradation story
    report_csv = (tmp_path / "run1" / "report" / "degradation.csv").read_text()
    assert "ObjDet-Cap-Aug,MB0,0.0" in report_csv
