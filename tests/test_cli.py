"""Command-line interface behavior."""

import json
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from blurbench import cider, cli, imaging, ingest, schedule
from blurbench.cli import main
from blurbench.cider import tokenize
from blurbench.imaging import BlurLevel, apply_blur, load_image, make_kernel, save_image
from blurbench.ingest import BlurFlag
from blurbench.schedule import (
    Technique,
    plan_dataset,
    read_manifest,
    technique_plan,
)
from conftest import random_image, run_cli
from oracles import blur_windows, cider_d_formula


def run(*argv):
    return main([str(a) for a in argv])


def write_corpus(tmp_path, captions_by_image, predictions):
    """captions_by_image: id -> [refs]; predictions: (id, level) -> caption."""
    dataset = tmp_path / "dataset.json"
    dataset.write_bytes(json.dumps({
        "split": "tiny",
        "images": [{"id": i, "file_name": f"{i}.ppm"}
                   for i in captions_by_image],
        "annotations": [{"image_id": i, "caption": c}
                        for i, caps in captions_by_image.items()
                        for c in caps],
    }).encode())
    preds = tmp_path / "predictions.json"
    preds.write_bytes(json.dumps([
        {"image_id": i, "blur_level": level, "caption": c}
        for (i, level), c in predictions.items()]).encode())
    return dataset, preds


#: setting -> (command that reads it, good text, {bad text: part of the
#: error line that a flag or a config line with the bad text gives})
#: A number is spelt as in the input files: `int` and `float` alone also
#: read each of these
NUMBER_SPELLINGS = {"\u0668": "not a plain ASCII number: '\u0668'",
                    "1_0": "not a plain ASCII number: '1_0'"}
SETTING_CASES = {
    "seed": ("plan", "7", {"seven": "'seven'",
                           "-1": "seed must be in [0, 2**64), not -1",
                           "18446744073709551616": "seed must be in [0, 2**64)",
                           **NUMBER_SPELLINGS}),
    "technique": ("score", "objdet-cap-aug", {"MegaAug": "'MegaAug'"}),
    "out": ("plan", "elsewhere", {"": "out must not be empty"}),
    "bin_width": ("report", "7", {"wide": "'wide'",
                                  "0": "bin_width must be >= 1",
                                  **NUMBER_SPELLINGS}),
    "format": ("report", "csv", {"html": "format must be one of"}),
    "sigma": ("score", "2.5", {"wide": "'wide'",
                               "-1": "sigma must be positive and finite",
                               **NUMBER_SPELLINGS}),
    "max_n": ("score", "2", {"two": "'two'", "0": "max_n must be >= 1",
                             **NUMBER_SPELLINGS}),
    "scale": ("score", "3", {"big": "'big'",
                             "nan": "scale must be positive and finite",
                             **NUMBER_SPELLINGS}),
}
#: settings whose flag goes before the command
GLOBAL_SETTINGS = {"seed", "out", "format"}


TINY_REFS = {
    "a": ["a black dog runs across the sand"],
    "b": ["purple trains hum at night near town"],
    "c": ["seven owls watch the green river"],
}


class TestBlurCommand:
    def test_writes_requested_variants(self, tmp_path):
        rng = np.random.default_rng(1)
        img = random_image(rng, 64, 64, 3)
        src = tmp_path / "in"
        src.mkdir()
        (src / "pic.ppm").write_bytes(save_image(img))
        out = tmp_path / "out"
        assert run("--out", out, "blur", src) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["pic.MB0.ppm", "pic.MB1.ppm", "pic.MB2.ppm",
                         "pic.MB3.ppm"]
        for level in BlurLevel:
            written = load_image((out / f"pic.{level.name}.ppm").read_bytes())
            assert np.array_equal(written, apply_blur(img, make_kernel(level)))

    def test_empty_directory_warns_and_succeeds(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.mkdir()
        assert run("--out", tmp_path / "out", "blur", src) == 0
        assert "no PGM/PPM files" in capsys.readouterr().err

    def test_undersized_image_fails_that_level_only(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        img = random_image(rng, 16, 8, 1)
        src = tmp_path / "small.pgm"
        src.write_bytes(save_image(img))
        out = tmp_path / "out"
        assert run("--out", out, "blur", src, "--levels", "MB0,MB3") == 1
        assert (out / "small.MB0.pgm").exists()
        assert not (out / "small.MB3.pgm").exists()
        assert "MB3" in capsys.readouterr().err

    def test_rerun_into_input_directory_skips_own_outputs(self, tmp_path):
        rng = np.random.default_rng(4)
        src = tmp_path / "in"
        src.mkdir()
        (src / "pic.ppm").write_bytes(save_image(random_image(rng, 48, 16, 3)))
        (src / "gray.pgm").write_bytes(save_image(random_image(rng, 48, 16, 1)))
        assert run("--out", src, "blur", src) == 0
        first = {p.name: p.read_bytes() for p in src.iterdir()}
        assert len(first) == 2 + 2 * 4
        assert run("--out", src, "blur", src) == 0
        assert {p.name: p.read_bytes() for p in src.iterdir()} == first
        # a file named like an output is still blurred when given by name
        out = tmp_path / "out"
        assert run("--out", out, "blur", src / "pic.MB1.ppm", "--levels",
                   "MB0") == 0
        assert [p.name for p in out.iterdir()] == ["pic.MB1.MB0.ppm"]

    def test_subdirectory_named_like_raster_skipped(self, tmp_path, capsys):
        """A subdirectory named like a raster holds none and is left out;
        a dangling symlink named like one is read and fails."""
        src = tmp_path / "in"
        (src / "sub.ppm").mkdir(parents=True)
        (src / "pic.ppm").write_bytes(save_image(random_image(
            np.random.default_rng(6), 48, 16, 3)))
        out = tmp_path / "out"
        assert run("--out", out, "blur", src) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            f"pic.{level.name}.ppm" for level in BlurLevel]
        assert capsys.readouterr().err == ""
        (src / "gone.pgm").symlink_to(tmp_path / "absent.pgm")
        assert run("--out", out, "blur", src) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {src}/gone.pgm: [Errno 2] No such file or directory")

    def test_unknown_level_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("blur", tmp_path, "--levels", "MB8")
        assert excinfo.value.code == 2

    def test_empty_level_list_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("blur", tmp_path, "--levels", ",")
        assert excinfo.value.code == 2
        assert "no blur levels given" in capsys.readouterr().err

    def test_multi_band_variants_match_oracle(self, tmp_path):
        """With the real band constants, a 2736x144 raster spans 3 bands at
        each of MB1-MB3; every variant equals the window-sum oracle, seams
        included."""
        width, height = 2736, 144
        img = random_image(np.random.default_rng(5), width, height, 1)
        src = tmp_path / "wide.pgm"
        src.write_bytes(save_image(img))
        out = tmp_path / "out"
        assert run("--out", out, "blur", src, "--levels", "MB1,MB2,MB3") == 0
        for level in (BlurLevel.MB1, BlurLevel.MB2, BlurLevel.MB3):
            kernel = make_kernel(level)
            kw, kh = kernel.tap_width, kernel.tap_height
            assert height // max(imaging._BAND_FLOOR * kh,
                                 imaging._BAND_BYTES // width) == 3
            written = load_image((out / f"wide.{level.name}.pgm").read_bytes())
            assert np.array_equal(written, blur_windows(img, kw, kh))

    def test_missing_input_fails_and_writes_nothing(self, tmp_path, capsys):
        missing, out = tmp_path / "absent.ppm", tmp_path / "out"
        assert run("--out", out, "blur", missing) == 1
        assert capsys.readouterr() == ("", f"error: no such input {missing}\n")
        assert not out.exists()

    def test_peak_grows_with_one_variant(self, tmp_path, monkeypatch):
        """A level's variant is dropped before the next level blurs:
        quadrupling the height adds at most 2.5x the extra image bytes.
        Encoding is stubbed out: its copy of the variant makes a third
        image beside the input and the variant whether or not the
        previous variant is held."""
        monkeypatch.setattr(cli, "save_image", lambda img: b"")
        width, channels = 1000, 3
        peaks = []
        for height in (1400, 5600):
            src = tmp_path / f"r{height}.ppm"
            src.write_bytes(save_image(random_image(
                np.random.default_rng(height), width, height, channels)))
            tracemalloc.start()
            try:
                assert run("--out", tmp_path / "out", "blur", src) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra_image = (5600 - 1400) * width * channels
        assert peaks[1] - peaks[0] <= 2.5 * extra_image

    def test_previous_raster_dropped_before_next_decodes(self, tmp_path):
        """A raster's decoded image is dropped before the next file is
        read: a second raster adds under a quarter of its bytes."""
        width, height, channels = 1000, 5600, 3
        raster = save_image(random_image(
            np.random.default_rng(5), width, height, channels))
        peaks = []
        for count in (1, 2):
            directory = tmp_path / f"in{count}"
            directory.mkdir()
            for index in range(count):
                (directory / f"r{index}.ppm").write_bytes(raster)
            tracemalloc.start()
            try:
                assert run("--out", tmp_path / f"out{count}", "blur",
                           "--levels", "MB0", directory) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < width * height * channels / 4

    def test_no_tmp_leftovers(self, tmp_path):
        rng = np.random.default_rng(3)
        src = tmp_path / "x.pgm"
        src.write_bytes(save_image(random_image(rng, 45, 12, 1)))
        out = tmp_path / "out"
        assert run("--out", out, "blur", src) == 0
        assert all(p.suffix == ".pgm" for p in out.iterdir())


class TestPlanCommand:
    def test_no_aug_manifest(self, tmp_path):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\nb\nc\n")
        out = tmp_path / "out"
        assert run("--out", out, "plan", keys, "--technique", "No-Aug") == 0
        manifest = read_manifest((out / "manifest.jsonl").read_text())
        assert len(manifest.entries) == 6
        assert all(e.level is BlurLevel.MB0 for e in manifest.entries)
        assert manifest.seed == 0

    def test_plan_and_read_build_no_entry_objects(self, tmp_path,
                                                  monkeypatch):
        """A manifest is planned, written and read as columns."""
        names = [f"img{i}" for i in range(300)] + ["b{1}", '{"x"}']
        keys = tmp_path / "keys.txt"
        keys.write_text("".join(f"{name}\n" for name in names))
        out = tmp_path / "out"

        def per_entry(*args):
            raise AssertionError("ManifestEntry built on the plan or read path")

        monkeypatch.setattr(schedule, "ManifestEntry", per_entry)
        assert run("--seed", 4, "--out", out, "plan", keys,
                   "--technique", "ObjDet-Cap-Aug") == 0
        manifest = read_manifest((out / "manifest.jsonl").read_text())
        assert len(manifest.levels) == 2 * len(names)
        assert manifest == plan_dataset(
            names, technique_plan("ObjDet-Cap-Aug"), 4)

    def test_duplicate_keys_fail(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\na\n")
        assert run("--out", tmp_path, "plan", keys, "--technique", "No-Aug") == 1
        assert "duplicate" in capsys.readouterr().err

    def test_unknown_technique_is_usage_error(self, tmp_path):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        with pytest.raises(SystemExit) as excinfo:
            run("plan", keys, "--technique", "MegaAug")
        assert excinfo.value.code == 2

    def test_repeat_invocations_identical(self, tmp_path):
        keys = tmp_path / "keys.txt"
        keys.write_text("".join(f"img{i}\n" for i in range(40)))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run("--seed", 11, "--out", out, "plan", keys,
                       "--technique", "ObjDet-Cap-Aug") == 0
        assert (out1 / "manifest.jsonl").read_bytes() == \
            (out2 / "manifest.jsonl").read_bytes()

    def test_keys_end_only_at_newline(self, tmp_path):
        keys = tmp_path / "keys.txt"
        keys.write_bytes("cat\x85one\r\ndog\u2028two\n\n  bird \n".encode())
        out = tmp_path / "out"
        assert run("--out", out, "plan", keys, "--technique", "Cap-Aug") == 0
        manifest = read_manifest((out / "manifest.jsonl").read_text())
        assert sorted({e.sample_key for e in manifest.entries}) == \
            ["bird", "cat\x85one", "dog\u2028two"]

    def test_bare_carriage_return_line_ends_fail(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_bytes(b"z\r\na\rb\rc\r")
        out = tmp_path / "out"
        assert run("--out", out, "plan", keys, "--technique", "No-Aug") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "line 2" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"", b"\n  \n\t\r\n", b"\xef\xbb\xbf",
                                      b"\xef\xbb\xbf\n \n"],
                             ids=["empty", "blank", "bom", "bom_blank"])
    def test_no_keys_fail_before_writing(self, tmp_path, capsys, text):
        keys = tmp_path / "keys.txt"
        keys.write_bytes(text)
        out = tmp_path / "out"
        assert run("--out", out, "plan", keys) == 1
        assert capsys.readouterr() == ("", f"error: no keys in {keys}\n")
        assert not out.exists()

    def test_byte_order_mark_is_not_key_text(self, tmp_path, data_dir):
        """A UTF-8 BOM before the first key is dropped: the manifest is the
        one of the same keys without it."""
        keys = tmp_path / "keys.txt"
        keys.write_bytes(b"\xef\xbb\xbf"
                         + (data_dir / "toy_keys.txt").read_bytes())
        out = tmp_path / "out"
        assert run("--out", out, "plan", keys) == 0
        golden = data_dir / "manifest_golden" / "No-Aug_seed0.jsonl"
        assert (out / "manifest.jsonl").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("keys,seed,technique,golden", [
        *(pytest.param("toy_keys.txt", seed, technique.value,
                       f"{technique.value}_seed{seed}.jsonl",
                       id=f"{seed}-{technique.value}")
          for seed in (0, 7) for technique in Technique),
        # keys holding a quote, a backslash, a tab, DEL, a brace and
        # non-ASCII text, U+2028 included
        pytest.param("odd_keys.txt", 7, "ObjDet-Cap-Aug",
                     "odd_keys_ObjDet-Cap-Aug_seed7.jsonl",
                     id="7-ObjDet-Cap-Aug-odd_keys"),
    ])
    def test_manifest_matches_golden(self, tmp_path, data_dir, keys, seed,
                                     technique, golden):
        out = tmp_path / "out"
        assert run("--seed", seed, "--out", out, "plan", data_dir / keys,
                   "--technique", technique) == 0
        golden = data_dir / "manifest_golden" / golden
        assert (out / "manifest.jsonl").read_bytes() == golden.read_bytes()

    def test_seed_precedence(self, tmp_path, monkeypatch):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        config = tmp_path / "bench.cfg"
        config.write_text("seed = 9\n")
        monkeypatch.setenv("BLURBENCH_SEED", "5")

        def seed_of(*argv):
            out = tmp_path / "out"
            assert run("--out", out, *argv) == 0
            return read_manifest((out / "manifest.jsonl").read_text()).seed

        plan_args = ("plan", keys, "--technique", "No-Aug")
        assert seed_of("--seed", "3", "--config", config, *plan_args) == 3
        assert seed_of("--config", config, *plan_args) == 9
        assert seed_of(*plan_args) == 5
        monkeypatch.delenv("BLURBENCH_SEED")
        assert seed_of(*plan_args) == 0


class TestScoreCommand:
    def test_identical_candidates_score_ten(self, tmp_path):
        predictions = {(i, "MB0"): refs[0] for i, refs in TINY_REFS.items()}
        dataset, preds = write_corpus(tmp_path, TINY_REFS, predictions)
        out = tmp_path / "out"
        assert run("--out", out, "score", dataset, preds) == 0
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "technique,level,score"
        technique, level, score = lines[2].split(",")
        assert (technique, level) == ("No-Aug", "MB0")
        assert abs(float(score) - 10.0) < 1e-9

    def test_disjoint_candidates_score_zero(self, tmp_path):
        predictions = {(i, "MB0"): "qq ww ee rr" for i in TINY_REFS}
        dataset, preds = write_corpus(tmp_path, TINY_REFS, predictions)
        out = tmp_path / "out"
        assert run("--out", out, "score", dataset, preds) == 0
        assert (out / "scores.csv").read_text().splitlines()[2] == \
            "No-Aug,MB0,0.0"

    def test_missing_prediction_names_image(self, tmp_path, capsys):
        predictions = {(i, "MB0"): refs[0] for i, refs in TINY_REFS.items()}
        del predictions[("b", "MB0")]
        dataset, preds = write_corpus(tmp_path, TINY_REFS, predictions)
        assert run("--out", tmp_path / "out", "score", dataset, preds) == 1
        assert "b" in capsys.readouterr().err

    def test_technique_column(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert run("--out", out, "score",
                   data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json",
                   "--technique", "ObjDet-Cap-Aug") == 0
        lines = (out / "scores.csv").read_text().splitlines()
        assert len(lines) == 2 + 4  # comment, header, four levels
        assert all(l.startswith("ObjDet-Cap-Aug,") for l in lines[2:])

    @pytest.mark.parametrize("flag,value", [
        ("--sigma", "nan"), ("--scale", "inf"), ("--scale", "nan"),
        ("--sigma", "-1"), ("--max-n", "0"), ("--sigma", "1e-320"),
        ("--scale", "1e308")])
    def test_non_finite_metric_settings_fail(self, tmp_path, capsys,
                                             flag, value):
        """An out-of-range metric setting, or one that would write a NaN or
        inf score, fails before any input is read: a usage error as a
        flag, one `error:` line naming the key and file from a config file,
        also for `plan`, which does not read it."""
        name = flag[2:].replace("-", "_")
        rule = {"0": "max_n must be >= 1",
                "1e-320": "sigma is too small: 2 * sigma**2 underflows to 0",
                "1e308": "scale must be at most 1e291",
                }.get(value, f"{name} must be positive and finite")
        out = tmp_path / "out"
        missing = [tmp_path / "no_captions.json", tmp_path / "no_preds.json"]
        with pytest.raises(SystemExit) as excinfo:
            run("--out", out, "score", *missing, flag, value)
        assert excinfo.value.code == 2
        assert f"argument {flag}: {rule}" in capsys.readouterr().err
        config = tmp_path / "bench.cfg"
        config.write_text(f"{name} = {value}\n")
        for argv in (["score", *missing], ["plan", tmp_path / "no_keys.txt"]):
            assert run("--config", config, "--out", out, *argv) == 1
            assert capsys.readouterr() == (
                "", f"error: {name} in {config}: {rule}\n")
        assert not out.exists()

    def test_tiny_sigma_scores_finite_silently(self, tmp_path, data_dir,
                                               capsys):
        """The length penalty of a sigma near the smallest accepted one is
        0 at unequal lengths: finite rows, no numpy warning."""
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--out", out, "score", data_dir / "toy_captions.json",
                       data_dir / "toy_predictions.json",
                       "--sigma", "1e-160") == 0
        assert capsys.readouterr().err == ""
        rows = (out / "scores.csv").read_text().splitlines()[2:]
        assert len(rows) == 4
        assert all(math.isfinite(float(row.rsplit(",", 1)[1])) for row in rows)

    @pytest.mark.parametrize("key", ["images", "annotations"])
    def test_non_list_caption_field_fails(self, tmp_path, capsys, key):
        predictions = {(i, "MB0"): refs[0] for i, refs in TINY_REFS.items()}
        dataset, preds = write_corpus(tmp_path, TINY_REFS, predictions)
        doc = json.loads(dataset.read_text())
        doc[key] = 5
        dataset.write_text(json.dumps(doc))
        assert run("--out", tmp_path / "out", "score", dataset, preds) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "lists" in err

    @pytest.mark.parametrize("bad_id", [None, True, [1]])
    @pytest.mark.parametrize("document,record", [
        ("dataset", "images"), ("dataset", "annotations"),
        ("predictions", None)])
    def test_bad_id_type_fails(self, tmp_path, capsys, document, record, bad_id):
        predictions = {(i, "MB0"): refs[0] for i, refs in TINY_REFS.items()}
        paths = dict(zip(("dataset", "predictions"),
                         write_corpus(tmp_path, TINY_REFS, predictions)))
        doc = json.loads(paths[document].read_text())
        item = doc[record][0] if record else doc[0]
        item["id" if record == "images" else "image_id"] = bad_id
        paths[document].write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("--out", out, "score", paths["dataset"],
                   paths["predictions"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad ")
        assert not (out / "scores.csv").exists()

    def test_predictions_outside_split_counted(self, tmp_path, capsys):
        predictions = {(i, "MB0"): refs[0] for i, refs in TINY_REFS.items()}
        dataset, preds = write_corpus(tmp_path, TINY_REFS, predictions)
        assert run("--out", tmp_path / "in", "score", dataset, preds) == 0
        assert capsys.readouterr().err == ""
        extra = {**predictions, ("zz", "MB0"): "x", ("yy", "MB0"): "y"}
        dataset, preds = write_corpus(tmp_path, TINY_REFS, extra)
        assert run("--out", tmp_path / "out", "score", dataset, preds) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 2 prediction(s) for images not in the split ignored"]
        assert (tmp_path / "out" / "scores.csv").read_bytes() == \
            (tmp_path / "in" / "scores.csv").read_bytes()

    def test_subset_rows_use_subset_idf(self, tmp_path, data_dir, toy_dataset,
                                        toy_predictions, toy_flags):
        out = tmp_path / "out"
        assert run("--out", out, "score", data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json",
                   "--flags", data_dir / "toy_flags.csv") == 0
        rows = {level: float(score) for _, level, score in (
            line.split(",") for line in
            (out / "scores.csv").read_text().splitlines()[2:])}
        ids = list(toy_dataset)
        refs = {i: [tokenize(r) for r in toy_dataset[i]] for i in ids}

        def corpus_score(image_ids, idf_ids):
            corpus = [refs[i] for i in idf_ids]
            return sum(cider_d_formula(
                tokenize(toy_predictions[(i, BlurLevel.MB0)]),
                refs[i], corpus) for i in image_ids) / len(image_ids)

        for flag in BlurFlag:
            subset = [i for i in ids if toy_flags[i] is flag]
            own, full = corpus_score(subset, subset), corpus_score(subset, ids)
            assert abs(own - full) > 0.01  # the two idf choices differ here
            assert abs(rows[flag.value] - own) < 1e-9
        assert abs(rows["MB0"] - corpus_score(ids, ids)) < 1e-9

    def test_flags_add_subset_rows(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert run("--out", out, "score",
                   data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json",
                   "--flags", data_dir / "toy_flags.csv") == 0
        text = (out / "scores.csv").read_text()
        assert "No-Aug,with_blur," in text
        assert "No-Aug,no_blur," in text

    @pytest.mark.parametrize("corpus,flags,golden", [
        ("toy", True, "toy_flags_scores.csv"),
        ("odd", False, "odd_text_scores.csv"),
    ])
    def test_scores_match_golden(self, tmp_path, data_dir, corpus, flags,
                                 golden, monkeypatch):
        """`scores.csv` byte for byte, with int32 arrays and with every
        array int64. The odd captions mix case, digits, punctuation,
        non-ASCII letters, CJK, emoji, control characters and
        lone-surrogate escapes."""
        for limit in (cider._INT32_LIMIT, 0):
            monkeypatch.setattr(cider, "_INT32_LIMIT", limit)
            out = tmp_path / str(limit)
            assert run("--out", out, "score",
                       data_dir / f"{corpus}_captions.json",
                       data_dir / f"{corpus}_predictions.json",
                       *(["--flags", data_dir / "toy_flags.csv"] if flags
                         else [])) == 0
            assert (out / "scores.csv").read_bytes() == (
                data_dir / "score_golden" / golden).read_bytes()

    def test_empty_flag_subset_skipped(self, tmp_path, data_dir, toy_dataset,
                                       capsys):
        flags = tmp_path / "flags.csv"
        flags.write_text("image_id,flag\n" + "".join(
            f"{i},with_blur\n" for i in toy_dataset))
        out = tmp_path / "out"
        assert run("--out", out, "score", data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json", "--flags", flags) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: no images flagged no_blur; subset row skipped"]
        rows = dict(line.split(",")[1:] for line in
                    (out / "scores.csv").read_text().splitlines()[2:])
        assert list(rows) == ["MB0", "MB1", "MB2", "MB3", "with_blur"]
        assert rows["with_blur"] == rows["MB0"]

    @pytest.mark.parametrize("rows,error", [
        ("img00,maybe\n", "unknown blur flag 'maybe'"),
        ("img00,with_blur\nimg01,no_blur\n", "images without blur flag: "
         "['img02', 'img03', 'img04', 'img05', 'img06'] and 3 more"),
    ], ids=["unknown-flag", "unflagged-images"])
    def test_bad_flags_fail_before_scoring(self, tmp_path, data_dir, capsys,
                                           rows, error):
        """A flags file is read, and the split cut by it, before any level
        is scored: no score line, and no output directory."""
        flags = tmp_path / "flags.csv"
        flags.write_text("image_id,flag\n" + rows)
        out = tmp_path / "out"
        assert run("--out", out, "score", data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json", "--flags", flags) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not out.exists()

    def test_flags_outside_split_counted(self, tmp_path, data_dir, capsys):
        """Flags for images outside the split are ignored and counted in one
        warning line, printed before the split is cut or any level scored."""
        toy = (data_dir / "toy_flags.csv").read_text()
        flags = tmp_path / "flags.csv"
        flags.write_text(toy + "ghost1,with_blur\nghost2,no_blur\n")
        argv = ["score", data_dir / "toy_captions.json",
                data_dir / "toy_predictions.json", "--flags", flags]
        assert run("--out", tmp_path / "out", *argv) == 0
        warning = "warning: 2 flag(s) for images not in the split ignored"
        assert capsys.readouterr().err.splitlines() == [warning]
        assert run("--out", tmp_path / "in", *argv[:-1],
                   data_dir / "toy_flags.csv") == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "scores.csv").read_bytes() == \
            (tmp_path / "in" / "scores.csv").read_bytes()
        flags.write_text("image_id,flag\nimg00,no_blur\nghost1,with_blur\n"
                         "ghost2,no_blur\n")
        assert run("--out", tmp_path / "cut", *argv) == 1
        assert capsys.readouterr() == ("", f"{warning}\nerror: images without "
                                       "blur flag: ['img01', 'img02', 'img03', "
                                       "'img04', 'img05'] and 4 more\n")
        assert not (tmp_path / "cut").exists()

    @pytest.mark.parametrize("dropped,flags,error", [
        (lambda i, level: level == "MB2" and i != "img03", False,
         "missing predictions at MB2 for images: ['img00', 'img01', 'img02', "
         "'img04', 'img05'] and 4 more"),
        (lambda i, level: level == "MB0", True,
         "missing predictions at MB0 for images: ['img00', 'img01', 'img02', "
         "'img03', 'img04'] and 5 more"),
    ], ids=["level-gap", "no-MB0-with-flags"])
    def test_missing_predictions_fail_before_scoring(
            self, tmp_path, data_dir, capsys, dropped, flags, error):
        """Every row to be scored, the MB0 subset rows of `--flags` too, is
        checked for a prediction per image before any row is scored: one
        short error line, no score line, and no output directory."""
        doc = [item for item in json.loads(
            (data_dir / "toy_predictions.json").read_text())
            if not dropped(item["image_id"], item["blur_level"])]
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("--out", out, "score", data_dir / "toy_captions.json", preds,
                   *(["--flags", data_dir / "toy_flags.csv"] if flags else [])
                   ) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not out.exists()

    def test_no_predictions_fail_before_writing(self, tmp_path, capsys):
        dataset, preds = write_corpus(tmp_path, TINY_REFS, {})
        out = tmp_path / "out"
        assert run("--out", out, "score", dataset, preds) == 1
        assert capsys.readouterr() == ("", f"error: no predictions in {preds}\n")
        assert not out.exists()

    def test_levels_come_from_predictions_of_split_images(self, tmp_path,
                                                          data_dir, capsys):
        """A prediction for an image outside the split adds no level."""
        doc = [item for item in json.loads(
            (data_dir / "toy_predictions.json").read_text())
            if item["blur_level"] != "MB3"]
        doc.append({"image_id": "zzz", "blur_level": "MB3", "caption": "x"})
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("--out", out, "score", data_dir / "toy_captions.json",
                   preds) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 1 prediction(s) for images not in the split ignored"]
        rows = (out / "scores.csv").read_text().splitlines()[2:]
        assert [row.split(",")[1] for row in rows] == ["MB0", "MB1", "MB2"]

    def test_no_prediction_for_a_split_image_fails_before_writing(
            self, tmp_path, capsys):
        dataset, preds = write_corpus(tmp_path, TINY_REFS,
                                      {("zz", "MB0"): "x", ("yy", "MB2"): "y"})
        out = tmp_path / "out"
        assert run("--out", out, "score", dataset, preds) == 1
        assert capsys.readouterr() == ("", (
            "warning: 2 prediction(s) for images not in the split ignored\n"
            f"error: no predictions for images in {preds}\n"))
        assert not out.exists()

    def test_empty_split_fails_first(self, tmp_path, capsys):
        dataset, preds = write_corpus(tmp_path, {}, {("a", "MB0"): "x"})
        out = tmp_path / "out"
        assert run("--out", out, "score", dataset, preds) == 1
        assert capsys.readouterr() == ("", f"error: no images in {dataset}\n")
        assert not out.exists()

    def test_unwritable_scores_file_leaves_no_temp_file(self, tmp_path,
                                                        data_dir, capsys):
        """`scores.csv` is a directory, so the final rename fails; the
        temporary file it would have replaced is removed."""
        out = tmp_path / "out"
        (out / "scores.csv").mkdir(parents=True)
        assert run("--out", out, "score", data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert [p.name for p in out.iterdir()] == ["scores.csv"]
        assert not any((out / "scores.csv").iterdir())


class TestReportCommand:
    def write_inputs(self, tmp_path, data_dir, subset=True):
        rows = ["technique,level,score"]
        table = {
            "No-Aug": (48.8, 47.0, 40.9, 26.4, 47.2, 53.0),
            "ObjDet-Aug": (48.9, 48.1, 45.6, 39.5, 47.0, 53.3),
            "Cap-Aug": (50.0, 49.2, 46.9, 38.2, 49.0, 53.2),
            "ObjDet-Cap-Aug": (50.3, 49.9, 48.1, 43.5, 48.9, 54.1),
        }
        for technique, values in table.items():
            for level, value in zip(("MB0", "MB1", "MB2", "MB3"), values):
                rows.append(f"{technique},{level},{value}")
            if subset:
                rows.append(f"{technique},with_blur,{values[4]}")
                rows.append(f"{technique},no_blur,{values[5]}")
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(rows) + "\n")
        return scores, data_dir / "toy_feature_counts.csv"

    def test_tables_and_histograms(self, tmp_path, data_dir):
        scores, features = self.write_inputs(tmp_path, data_dir)
        out = tmp_path / "out"
        assert run("--out", out, "report", scores, features) == 0
        table_md = (out / "score_table.md").read_text()
        assert "| No-Aug | 48.8 | 47.0 | 40.9 | 26.4 | 47.2 | 53.0 |" in table_md
        degradation = (out / "degradation.csv").read_text()
        assert "No-Aug,MB3,22.4" in degradation
        assert "ObjDet-Cap-Aug,MB3,6.8" in degradation
        for level in BlurLevel:
            hist = (out / f"histogram_{level.name}.csv").read_text()
            data_rows = [l for l in hist.splitlines()[2:]]
            total = sum(int(r.rsplit(",", 1)[1]) for r in data_rows)
            assert total == 10
        assert not (out / "subset_table.md").exists()

    def test_flags_enable_subset_table(self, tmp_path, data_dir):
        scores, features = self.write_inputs(tmp_path, data_dir)
        out = tmp_path / "out"
        assert run("--out", out, "report", scores, features,
                   "--flags", data_dir / "toy_flags.csv") == 0
        subset = (out / "subset_table.md").read_text()
        assert "| Cap-Aug | 49.0 | 53.2 |" in subset

    def test_flags_without_subset_scores_fail(self, tmp_path, data_dir, capsys):
        scores, features = self.write_inputs(tmp_path, data_dir, subset=False)
        assert run("--out", tmp_path / "out", "report", scores, features,
                   "--flags", data_dir / "toy_flags.csv") == 1
        assert "subset" in capsys.readouterr().err

    def test_reads_the_scores_of_score_with_an_empty_flag_subset(
            self, tmp_path, data_dir, toy_dataset, capsys):
        """`score --flags` skips an empty subset's row; `report --flags`
        reads its file and leaves that subset's cell empty."""
        flags = tmp_path / "flags.csv"
        flags.write_text("image_id,flag\n" + "".join(
            f"{i},with_blur\n" for i in toy_dataset))
        out = tmp_path / "out"
        assert run("--out", out, "score", data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json", "--flags", flags) == 0
        assert run("--out", out, "report", out / "scores.csv",
                   data_dir / "toy_feature_counts.csv", "--flags", flags) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: no images flagged no_blur; subset row skipped"]
        rows = dict(line.split(",")[1:] for line in
                    (out / "scores.csv").read_text().splitlines()[2:])
        with_blur = f"{float(rows['with_blur']):.1f}"
        assert (out / "subset_table.md").read_text().splitlines()[2] == (
            f"| No-Aug | {with_blur} |  |")
        assert (out / "subset_table.csv").read_text().splitlines()[2] == (
            f"No-Aug,{with_blur},")

    def test_duplicate_subset_score_fails(self, tmp_path, data_dir, capsys):
        scores, features = self.write_inputs(tmp_path, data_dir)
        scores.write_text(scores.read_text() + "Cap-Aug,with_blur,49.5\n")
        out = tmp_path / "out"
        assert run("--out", out, "report", scores, features) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: duplicate with_blur score for 'Cap-Aug'"]
        assert not out.exists()

    def test_score_rising_with_blur_warns(self, tmp_path, data_dir, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("technique,level,score\nNo-Aug,MB0,7.0\n"
                          "No-Aug,MB1,5.0\nNo-Aug,MB2,6.0\nNo-Aug,MB3,4.0\n")
        out = tmp_path / "out"
        assert run("--out", out, "report", scores,
                   data_dir / "toy_feature_counts.csv") == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: No-Aug: score rises MB1->MB2 (5.0 -> 6.0)"]
        assert "| No-Aug | 0.0 | 2.0 | 1.0 | 3.0 |" in (
            out / "degradation.md").read_text()

    def test_warning_prints_scores_as_read(self, tmp_path, data_dir, capsys):
        """A warning prints the two scores it compared as read, so a rise
        that one decimal rounds away (0.5 -> 0.5) still shows."""
        scores = tmp_path / "scores.csv"
        scores.write_text("technique,level,score\nNo-Aug,MB0,0.6\n"
                          "No-Aug,MB1,0.51\nNo-Aug,MB2,0.54\nNo-Aug,MB3,0.1\n")
        out = tmp_path / "out"
        assert run("--out", out, "report", scores,
                   data_dir / "toy_feature_counts.csv") == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: No-Aug: score rises MB1->MB2 (0.51 -> 0.54)"]
        assert "| No-Aug | 0.0 | 0.1 | 0.1 | 0.5 |" in (
            out / "degradation.md").read_text()

    def test_cells_are_the_tenths_their_deltas_use(self, tmp_path, data_dir,
                                                   capsys):
        """A score that one decimal rounds to zero reads `0.0` in its cell,
        as in its delta: no output reads `-0.0`."""
        scores = tmp_path / "scores.csv"
        scores.write_text("technique,level,score\nNo-Aug,MB0,0.01\n"
                          "No-Aug,MB1,-0.04\nNo-Aug,MB2,-0.06\nNo-Aug,MB3,-0.0\n")
        out = tmp_path / "out"
        for format in ("markdown", "csv"):
            assert run("--format", format, "--out", out, "report", scores,
                       data_dir / "toy_feature_counts.csv") == 0
            stdout, stderr = capsys.readouterr()
            assert "-0.0" not in stdout
            assert stderr.splitlines() == [
                "warning: No-Aug: score rises MB2->MB3 (-0.06 -> -0.0)"]
            for path in out.iterdir():
                assert "-0.0" not in path.read_text(), path.name
        assert "| No-Aug | 0.0 | 0.0 | -0.1 | 0.0 |" in (
            out / "score_table.md").read_text()
        assert "| No-Aug | 0.0 | 0.0 | 0.1 | 0.0 |" in (
            out / "degradation.md").read_text()
        assert "No-Aug,MB1,0.0\n" in (out / "score_table.csv").read_text()
        assert "No-Aug,MB1,0.0\n" in (out / "degradation.csv").read_text()

    def test_byte_order_mark_before_scores_dropped(self, tmp_path, data_dir):
        """A UTF-8 BOM before the `# seed` line of a scores CSV is not
        text: the outputs are those of the file without it."""
        scores = data_dir / "score_golden" / "toy_flags_scores.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + scores.read_bytes())
        features = data_dir / "toy_feature_counts.csv"
        assert run("--out", tmp_path / "plain", "report", scores, features) == 0
        assert run("--out", tmp_path / "bom", "report", bom, features) == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert sorted(p.name for p in (tmp_path / "bom").iterdir()) == names
        for name in names:
            assert (tmp_path / "bom" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()

    def test_scores_without_rows_fail_before_writing(self, tmp_path, data_dir,
                                                     capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("# seed=0\ntechnique,level,score\n")
        out = tmp_path / "out"
        assert run("--out", out, "report", scores,
                   data_dir / "toy_feature_counts.csv") == 1
        assert capsys.readouterr() == ("", "error: no score rows\n")
        assert not out.exists()

    def test_malformed_scores_fail(self, tmp_path, data_dir):
        scores = tmp_path / "scores.csv"
        scores.write_text("technique,level,score\nNo-Aug,MB0,48.8\n")
        assert run("--out", tmp_path / "out", "report", scores,
                   data_dir / "toy_feature_counts.csv") == 1

    @pytest.mark.parametrize("target,text,line", [
        ("features", "image_id,level,count\na,MB0\r,3\n", 2),
        ("flags", "image_id,flag\nimg00,with\rblur\n", 2),
        ("features", "image_id,level,count\n" + "a" * 131_073 + ",MB0,3\n", 2),
        ("scores", "# seed=0\ntechnique,level,score\n"
                   + "x" * 131_073 + ",MB0,1.0\n", 3),
        ("scores", "technique,level,score\rNo-Aug,MB0,1.0\r", 1),
    ])
    def test_unreadable_csv_fails_before_writing(self, tmp_path, data_dir,
                                                 capsys, target, text, line):
        scores, features = self.write_inputs(tmp_path, data_dir)
        paths = {"scores": scores, "features": features,
                 "flags": data_dir / "toy_flags.csv"}
        paths[target] = tmp_path / f"bad_{target}.csv"
        paths[target].write_bytes(text.encode())
        out = tmp_path / "out"
        assert run("--out", out, "report", paths["scores"], paths["features"],
                   "--flags", paths["flags"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad CSV on line {line}:")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1_0.5", " 9", "9\t", "\u0668"])
    def test_score_not_plain_ascii_fails_before_writing(
            self, tmp_path, data_dir, capsys, value):
        """`float` alone reads each of these; a score is ASCII text with no
        `_` and no whitespace around it."""
        scores, features = self.write_inputs(tmp_path, data_dir)
        scores.write_text(scores.read_text().replace("Cap-Aug,MB2,46.9",
                                                     f"Cap-Aug,MB2,{value}"))
        out = tmp_path / "out"
        assert run("--out", out, "report", scores, features) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad score {value!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_score_fails_before_writing(self, tmp_path, data_dir,
                                                   capsys, value):
        scores, features = self.write_inputs(tmp_path, data_dir)
        scores.write_text(scores.read_text().replace("Cap-Aug,MB2,46.9",
                                                     f"Cap-Aug,MB2,{value}"))
        out = tmp_path / "out"
        assert run("--out", out, "report", scores, features) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: non-finite score in row "
                       f"['Cap-Aug', 'MB2', '{value}']"]
        assert not out.exists()

    def test_score_table_csv_reads_back(self, tmp_path, data_dir):
        scores, features = self.write_inputs(tmp_path, data_dir)
        scores.write_text(scores.read_text().replace("\nCap-Aug,", '\n"My,Model",'))
        first, second = tmp_path / "o1", tmp_path / "o2"
        assert run("--out", first, "report", scores, features) == 0
        table = first / "score_table.csv"
        assert '\n"My,Model",MB0,50.0\n' in table.read_text()
        assert run("--out", second, "report", table, features) == 0
        assert (second / "score_table.csv").read_bytes() == table.read_bytes()

    @pytest.mark.parametrize("technique", [
        'say "hi"', "A\rB", "A\r\nB", "A\nB", "#1", "A\x0cB", "A\u2028B"])
    def test_any_technique_name_reads_back(self, tmp_path, data_dir, technique):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "technique,level,score\n" + "".join(
                f'"{technique.replace(chr(34), 2 * chr(34))}",{l.name},1.0\n'
                for l in BlurLevel), newline="")
        first, second = tmp_path / "o1", tmp_path / "o2"
        features = data_dir / "toy_feature_counts.csv"
        assert run("--out", first, "report", scores, features) == 0
        table = first / "score_table.csv"
        assert run("--out", second, "report", table, features) == 0
        assert (second / "score_table.csv").read_bytes() == table.read_bytes()
        markdown = (second / "score_table.md").read_bytes().decode()
        assert len(markdown.split("\n")) == 4 and "\r" not in markdown

    @pytest.mark.parametrize("case,format,bin_width,flags", [
        ("markdown_flags", "markdown", 10, True),
        ("csv_bin_width_7", "csv", 7, False),
    ])
    def test_outputs_match_golden(self, tmp_path, data_dir, monkeypatch, capsys,
                                  case, format, bin_width, flags):
        """Every file and stdout of `score --flags` -> `report`, byte for byte."""
        monkeypatch.chdir(tmp_path)  # stdout names the --out directory
        assert run("--out", ".", "score", data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json",
                   "--flags", data_dir / "toy_flags.csv") == 0
        capsys.readouterr()
        assert run("--format", format, "--out", case, "report", "scores.csv",
                   data_dir / "toy_feature_counts.csv", "--bin-width", bin_width,
                   *(["--flags", data_dir / "toy_flags.csv"] if flags else [])) == 0
        out = tmp_path / case
        golden = data_dir / "report_golden"
        stdout = capsys.readouterr().out
        assert stdout == (golden / f"{case}.stdout").read_text()
        names = sorted(p.name for p in (golden / case).iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (golden / case / name).read_bytes()

    def test_bin_width_from_config(self, tmp_path, data_dir):
        scores, features = self.write_inputs(tmp_path, data_dir)
        config = tmp_path / "bench.cfg"
        config.write_text("bin_width = 50\n")
        out = tmp_path / "out"
        assert run("--config", config, "--out", out, "report",
                   scores, features) == 0
        hist = (out / "histogram_MB0.csv").read_text().splitlines()
        assert hist[1].startswith("# ") is False
        assert all(",50," in row for row in hist[2:])

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_bin_width_below_one_is_usage_error(self, tmp_path, data_dir,
                                                capsys, width):
        scores, features = self.write_inputs(tmp_path, data_dir)
        with pytest.raises(SystemExit) as excinfo:
            run("--out", tmp_path / "out", "report", scores, features,
                "--bin-width", width)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --bin-width: bin_width must be >= 1" in err
        assert not (tmp_path / "out").exists()

    def test_bin_width_zero_in_config_fails_before_any_input(self, tmp_path,
                                                             capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("bin_width = 0\n")
        out = tmp_path / "out"
        missing = [tmp_path / "no_scores.csv", tmp_path / "no_features.csv"]
        assert run("--config", config, "--out", out, "report", *missing) == 1
        assert capsys.readouterr().err == (
            f"error: bin_width in {config}: bin_width must be >= 1\n")
        assert not out.exists()

    def test_repeated_feature_row_rejected(self, tmp_path, data_dir, capsys):
        scores, features = self.write_inputs(tmp_path, data_dir)
        text = features.read_text()
        repeated = tmp_path / "features.csv"
        repeated.write_text(text + text.rstrip("\n").rsplit("\n", 1)[1] + "\n")
        out = tmp_path / "out"
        assert run("--out", out, "report", scores, repeated) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(
            r"error: duplicate feature count for image '\w+' at MB\d", err[0])
        assert not out.exists()

    def test_valid_features_read_without_the_row_by_row_parser(
            self, tmp_path, data_dir, monkeypatch):
        """A valid feature-count table passes the column checks; only a bad
        one is parsed again row by row, to name its first bad row."""
        def refuse(*columns):
            raise AssertionError("valid table parsed row by row")

        monkeypatch.setattr(ingest, "_raise_first_bad_row", refuse)
        scores, features = self.write_inputs(tmp_path, data_dir)
        large = tmp_path / "large.csv"  # several read_csv chunks
        large.write_text("image_id,level,count\n" + "".join(
            f"COCO_{i:06d},{level.name},{(7 * i) % 50 + 3 - level}\n"
            for i in range(600) for level in BlurLevel))
        for table in (features, large):
            assert run("--out", tmp_path / "out", "report", scores, table) == 0
        for level in BlurLevel:  # every row of every chunk is counted
            rows = (tmp_path / "out" / f"histogram_{level.name}.csv"
                    ).read_text().splitlines()[2:]
            assert sum(int(row.rsplit(",", 1)[1]) for row in rows) == 600

    def test_repeat_runs_identical(self, tmp_path, data_dir):
        scores, features = self.write_inputs(tmp_path, data_dir)
        outs = (tmp_path / "o1", tmp_path / "o2")
        for out in outs:
            assert run("--out", out, "report", scores, features,
                       "--flags", data_dir / "toy_flags.csv") == 0
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        assert files1 == files2
        for name in files1:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestConfigFile:
    @pytest.mark.parametrize("name", list(cli._SETTINGS))
    def test_flag_and_config_agree(self, tmp_path, data_dir, monkeypatch,
                                   capsys, name):
        """A text gives the same outputs as a flag and as a config line,
        and a bad text fails both ways before writing anything."""
        command, good, bad_texts = SETTING_CASES[name]
        scores = tmp_path / "scores.csv"
        scores.write_text("technique,level,score\n" + "".join(
            f"No-Aug,{level.name},{50 - 5 * level.value}\n" for level in BlurLevel))
        inputs = {
            "plan": [data_dir / "toy_keys.txt"],
            "score": [data_dir / "toy_captions.json",
                      data_dir / "toy_predictions.json"],
            "report": [scores, data_dir / "toy_feature_counts.csv"],
        }[command]
        flag = "--" + name.replace("_", "-")
        config = tmp_path / "bench.cfg"

        def outcome(case, text=None, as_flag=False):
            """Exit code, stdout, stderr and files of one run in its own cwd."""
            cwd = tmp_path / case
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            setting = [flag, text] if as_flag and text is not None else []
            argv = ([*setting, command, *inputs] if name in GLOBAL_SETTINGS
                    else [command, *inputs, *setting])
            if name != "out":
                argv = ["--out", "run", *argv]
            if not as_flag and text is not None:
                config.write_text(f"{name} = {text}\n")
                argv = ["--config", config, *argv]
            try:
                code = run(*argv)
            except SystemExit as exc:
                code = exc.code
            files = {p.relative_to(cwd).as_posix(): p.read_bytes()
                     for p in sorted(cwd.rglob("*")) if p.is_file()}
            return code, *capsys.readouterr(), files

        flagged = outcome("flag", good, as_flag=True)
        assert flagged[0] == 0
        assert outcome("config", good) == flagged
        assert outcome("default") != flagged

        for case, (bad, named) in enumerate(bad_texts.items()):
            code, out, err, files = outcome(f"bad_flag{case}", bad,
                                            as_flag=True)
            assert (code, out, files) == (2, "", {})
            assert f"argument {flag}: " in err and named in err
            code, out, err, files = outcome(f"bad_config{case}", bad)
            assert (code, out, files) == (1, "", {})
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ") and named in err

    def test_readme_table_matches_settings(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `(--[a-z-]+)` \| `(\w+)` \| `([^`]*)` \|",
                          readme.read_text(), re.MULTILINE)
        assert rows == [
            ("--" + name.replace("_", "-"), name, str(default))
            for name, (_, default) in cli._SETTINGS.items()]

    def test_technique_canonicalized(self, tmp_path, data_dir):
        config = tmp_path / "bench.cfg"
        config.write_text("technique = objdet-cap-aug\n")
        out = tmp_path / "out"
        assert run("--config", config, "--out", out, "score",
                   data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json") == 0
        rows = (out / "scores.csv").read_text().splitlines()[2:]
        assert rows and all(r.startswith("ObjDet-Cap-Aug,") for r in rows)

    @pytest.mark.parametrize("line,named", [
        ("sead = 7", "sead"),
        ("format = html", "format"),
        ("bin_width = wide", "wide"),
        ("technique = MegaAug", "MegaAug"),
        ("seed = 1\nbin_width = 5\nseed = 2", "'seed'"),
    ])
    def test_bad_entry_fails_before_writing(self, tmp_path, data_dir, capsys,
                                            line, named):
        config = tmp_path / "bench.cfg"
        config.write_text(line + "\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("technique,level,score\n"
                          + "".join(f"No-Aug,{l.name},1.0\n" for l in BlurLevel))
        out = tmp_path / "out"
        assert run("--config", config, "--out", out, "report", scores,
                   data_dir / "toy_feature_counts.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0]
        assert not out.exists()

    def test_lines_end_only_at_newline(self, tmp_path):
        """U+2028 inside a value is part of it, not a line end."""
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        config = tmp_path / "bench.cfg"
        config.write_bytes(f"seed = 4\r\nout = {tmp_path}/run\u2028two\n".encode())
        assert run("--config", config, "plan", keys) == 0
        manifest = tmp_path / "run\u2028two" / "manifest.jsonl"
        assert read_manifest(manifest.read_text()).seed == 4

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"],
                             ids=["plain", "bom"])
    def test_comment_starts_only_after_whitespace(self, tmp_path, bom):
        """A `#` starts a comment at the start of a line or after
        whitespace; inside a value it is kept. A leading UTF-8 BOM is not
        key text."""
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        config = tmp_path / "bench.cfg"
        config.write_bytes(bom + (f"# run two\nseed = 7  # note\n"
                                  f"out = {tmp_path}/runs#2\n").encode())
        assert run("--config", config, "plan", keys) == 0
        manifest = tmp_path / "runs#2" / "manifest.jsonl"
        assert read_manifest(manifest.read_text()).seed == 7
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("config,env,flag", [
        ("seed = x", None, ["--seed", "3"]),
        (None, "x", ["--seed", "3"]),
        ("seed = 3", "x", []),
    ], ids=["config-under-flag", "env-under-flag", "env-under-config"])
    def test_overridden_bad_text_fails(self, tmp_path, monkeypatch, capsys,
                                       config, env, flag):
        """Every config and environment text is converted, also where a
        source of higher precedence sets the same setting."""
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        argv = [*flag]
        if config is not None:
            (tmp_path / "c.cfg").write_text(config + "\n")
            argv += ["--config", tmp_path / "c.cfg"]
        if env is not None:
            monkeypatch.setenv("BLURBENCH_SEED", env)
        out = tmp_path / "out"
        assert run(*argv, "--out", out, "plan", keys) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'x'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("source,error", [
        ("config", "bin_width in c.cfg: invalid literal for int() with base "
                   "10: 'x'"),
        ("env", "BLURBENCH_SEED: invalid literal for int() with base 10: "
                "'abc'"),
    ])
    def test_bad_text_names_setting_and_source(self, tmp_path, monkeypatch,
                                               capsys, source, error):
        """A bad config value names its key and file, a bad environment
        value its variable, as a bad flag names the flag."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BLURBENCH_SEED", raising=False)
        (tmp_path / "keys.txt").write_text("a\n")
        argv = ["--out", "out", "plan", "keys.txt"]
        if source == "config":
            (tmp_path / "c.cfg").write_text("bin_width = x\n")
            argv = ["--config", "c.cfg", *argv]
        else:
            monkeypatch.setenv("BLURBENCH_SEED", "abc")
        assert run(*argv) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not (tmp_path / "out").exists()

    def test_env_seed_checked_like_flag(self, tmp_path, monkeypatch, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        for text, named in SETTING_CASES["seed"][2].items():
            monkeypatch.setenv("BLURBENCH_SEED", text)
            assert run("--out", tmp_path / "out", "plan", keys) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert named in err[0]
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("env,error", [
        (None, None), ("", None), ("   ", "'   '"), (" 7", "' 7'")],
        ids=["unset", "empty", "blanks", "spaced"])
    def test_env_seed_empty_sets_nothing_and_blanks_are_bad_text(
            self, tmp_path, monkeypatch, capsys, env, error):
        """An unset or empty BLURBENCH_SEED sets nothing; any other text,
        blanks included, is converted as it stands."""
        monkeypatch.delenv("BLURBENCH_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("BLURBENCH_SEED", env)
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        out = tmp_path / "out"
        if error is None:
            assert run("--out", out, "plan", keys) == 0
            assert read_manifest((out / "manifest.jsonl").read_text()).seed == 0
            return
        assert run("--out", out, "plan", keys) == 1
        assert capsys.readouterr() == ("", "error: BLURBENCH_SEED: not a "
                                           f"plain ASCII number: {error}\n")
        assert not out.exists()

    def test_spaced_seed_flag_is_bad_text_but_a_config_value_is_stripped(
            self, tmp_path, capsys):
        """` 7` is bad text as a flag, as a score with blanks around it is;
        a config value is stripped before it is converted."""
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run("--seed", " 7", "--out", out, "plan", keys)
        assert info.value.code == 2
        assert "argument --seed: not a plain ASCII number: ' 7'" in (
            capsys.readouterr().err)
        assert not out.exists()
        config = tmp_path / "c.cfg"
        config.write_text("seed =  7 \n")
        assert run("--config", config, "--out", out, "plan", keys) == 0
        assert read_manifest((out / "manifest.jsonl").read_text()).seed == 7

    def test_main_calls_in_one_process_resolve_their_own_settings(
            self, tmp_path, monkeypatch):
        """Every `main` call in a process shares one parser; a flag given
        to one call, its `--levels` list included, is not a default of
        the next, which resolves its own flags and environment."""
        monkeypatch.delenv("BLURBENCH_SEED", raising=False)
        keys = tmp_path / "keys.txt"
        keys.write_text("a\nb\n")
        raster = tmp_path / "r.pgm"
        raster.write_bytes(save_image(random_image(np.random.default_rng(2),
                                                   48, 16, 1)))
        assert run("--seed", "3", "--out", tmp_path / "p1", "plan", keys,
                   "--technique", "Cap-Aug") == 0
        assert run("--out", tmp_path / "b1", "blur", "--levels", "MB2",
                   raster) == 0
        monkeypatch.setenv("BLURBENCH_SEED", "5")
        assert run("--out", tmp_path / "p2", "plan", keys) == 0
        assert run("--out", tmp_path / "b2", "blur", raster) == 0
        first, second = (
            read_manifest((tmp_path / name / "manifest.jsonl").read_text())
            for name in ("p1", "p2"))
        assert (first.plan.name, first.seed) == (Technique.CAP_AUG, 3)
        assert (second.plan.name, second.seed) == (Technique.NO_AUG, 5)
        assert [p.name for p in (tmp_path / "b1").iterdir()] == ["r.MB2.pgm"]
        assert sorted(p.name for p in (tmp_path / "b2").iterdir()) == [
            f"r.{level.name}.pgm" for level in BlurLevel]
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser().parse_args(["blur", "x"]).levels == tuple(
            BlurLevel)


@pytest.mark.parametrize("source,value", [
    ("blur", "MB9"), ("predictions", "MB9"), ("features", "MB9"),
    ("scores", "MB9"), ("predictions", 2), ("predictions", None),
    ("predictions", ["MB0"])], ids=[
        "blur", "predictions", "features", "scores", "predictions-int",
        "predictions-null", "predictions-list"])
def test_a_level_name_reads_alike_from_every_input(tmp_path, capsys, source,
                                                   value):
    """A bad level name gives one text from `blur --levels` (a usage
    error), the prediction JSON, the feature-count CSV and the scores CSV;
    a `blur_level` that is not a JSON string gives the text of any other
    string field."""
    out = tmp_path / "out"
    if source == "blur":
        with pytest.raises(SystemExit) as excinfo:
            run("--out", out, "blur", tmp_path, "--levels", f"MB0, {value}")
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "blurbench blur: error: argument --levels: "
            "unknown blur level 'MB9'")
        return
    record = {"image_id": "a", "blur_level": value, "caption": "a dog"}
    dataset, preds = write_corpus(
        tmp_path, TINY_REFS, {(i, "MB0"): refs[0] for i, refs in TINY_REFS.items()})
    scores, features = tmp_path / "scores.csv", tmp_path / "features.csv"
    scores.write_text("technique,level,score\n" + "".join(
        f"X,MB{k},1.0\n" for k in range(4)))
    features.write_text("image_id,level,count\na,MB0,3\n")
    if source == "predictions":
        preds.write_text(json.dumps([*json.loads(preds.read_text()), record]))
        code = run("--out", out, "score", dataset, preds)
    else:
        path = scores if source == "scores" else features
        path.write_text(path.read_text().replace("MB0", value))
        code = run("--out", out, "report", scores, features)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown blur level 'MB9'" if isinstance(value, str) else
        f"error: bad prediction record {record!r}: blur_level must be a string"]


#: file kind -> (its valid input, the argv that reads it with the others)
UTF8_INPUTS = {
    "keys": ("toy_keys.txt", ["plan", "keys"]),
    "config": (None, ["--config", "config", "plan", "keys"]),
    "scores": ("score_golden/toy_flags_scores.csv",
               ["report", "scores", "features", "--flags", "flags"]),
    "features": ("toy_feature_counts.csv",
                 ["report", "scores", "features", "--flags", "flags"]),
    "flags": ("toy_flags.csv",
              ["report", "scores", "features", "--flags", "flags"]),
    "captions": ("toy_captions.json", ["score", "captions", "predictions"]),
    "predictions": ("toy_predictions.json",
                    ["score", "captions", "predictions"]),
}


@pytest.mark.parametrize("kind", sorted(UTF8_INPUTS))
def test_input_not_utf8_names_its_line(tmp_path, data_dir, capsys, kind):
    """A byte that is not UTF-8, here the first of line 2, is one error
    line naming that line, in every file kind; nothing is written."""
    argv = []
    for arg in UTF8_INPUTS[kind][1]:
        if arg in UTF8_INPUTS:
            name = UTF8_INPUTS[arg][0]
            document = (data_dir / name).read_bytes() if name else (
                b"# settings\nseed = 7\n")
            if arg == kind:
                document = document.replace(b"\n", b"\n\xff", 1)
            arg = tmp_path / arg
            arg.write_bytes(document)
        argv.append(arg)
    assert run("--out", tmp_path / "out", *argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: not UTF-8 on line 2: byte 0xff, invalid start byte"]
    assert not (tmp_path / "out").exists()


#: One digit past the longest integer text Python reads by default.
LONG_DIGITS = "9" * 5001


@pytest.mark.parametrize("source", ["predictions", "config", "flag",
                                    "raster"])
def test_integer_past_the_digit_limit_named_without_a_python_call(
        tmp_path, capsys, source):
    """An integer longer than Python reads from text, as a prediction's
    image id, a config seed, a `--seed` flag or a raster's width, is one
    error line that names the limit but not the Python call that lifts
    it."""
    dataset, preds = write_corpus(tmp_path, TINY_REFS, {})
    keys, config = tmp_path / "keys.txt", tmp_path / "c.cfg"
    raster = tmp_path / "big.ppm"
    keys.write_text("a\n")
    config.write_text(f"seed = {LONG_DIGITS}\n")
    preds.write_text(f'[{{"image_id": {LONG_DIGITS}, "blur_level": "MB0", '
                     '"caption": "a dog"}]')
    raster.write_bytes(f"P6\n{LONG_DIGITS} 1\n255\n".encode() + bytes(3))
    argv = {"predictions": ["score", dataset, preds],
            "config": ["--config", config, "plan", keys],
            "flag": ["--seed", LONG_DIGITS, "plan", keys],
            "raster": ["blur", raster]}[source]
    if source == "flag":
        with pytest.raises(SystemExit) as excinfo:
            run("--out", tmp_path / "out", *argv)
        assert excinfo.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
    else:
        assert run("--out", tmp_path / "out", *argv) == 1
        [line] = capsys.readouterr().err.splitlines()
    prefix = {"predictions": "error: malformed JSON: ",
              "config": f"error: seed in {config}: ",
              "flag": "blurbench: error: argument --seed: ",
              "raster": f"error: {raster}: "}[source]
    assert line.startswith(prefix + "Exceeds the limit (4300")
    assert line.endswith("value has 5001 digits") and "sys." not in line
    assert not (tmp_path / "out").exists()


def test_raster_size_past_the_digit_limit_is_a_truncated_payload(
        tmp_path, capsys):
    """Two 3 000-digit dimensions multiply to a payload size longer than
    Python writes as text: the error line is the truncated payload's and
    gives that size by its digit count."""
    raster = tmp_path / "big.ppm"
    raster.write_bytes(b"P6\n%s %s\n255\n" % (b"1" * 3000, b"2" * 3000)
                       + bytes(6))
    assert run("--out", tmp_path / "out", "blur", raster) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"error: {raster}: truncated payload: 6 bytes, "
                    "expected a number of 5999 digits")
    assert len(line) < 200 and not (tmp_path / "out").exists()


def test_paths_not_utf8_printed_under_strict_stdout(tmp_path, data_dir):
    """With a strict UTF-8 stdout, every path a command prints shows a
    byte that is not UTF-8 as a `\\xNN` escape, and `blur` goes on to the
    next file."""
    odd = os.fsdecode(b"\xff")
    src = tmp_path / "in"
    src.mkdir()
    raster = save_image(random_image(np.random.default_rng(4), 48, 16, 3))
    for name in ("b", f"c{odd}", "d"):
        (src / f"{name}.ppm").write_bytes(raster)
    out = tmp_path / f"out{odd}"
    shown = re.escape(f"{tmp_path}/out\\xff")
    strict = {"PYTHONIOENCODING": "utf-8"}
    done = run_cli("--out", out, "blur", src, env=strict)
    assert (done.code, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        f"{src}/{name}.ppm: wrote 4 variant(s) to {tmp_path}/out\\xff"
        for name in ("b", "c\\xff", "d")]
    assert len(list(out.iterdir())) == 12
    for argv, printed in [
        (["plan", data_dir / "toy_keys.txt"],
         f"wrote {shown}/manifest\\.jsonl: technique=No-Aug .*"),
        (["score", data_dir / "toy_captions.json",
          data_dir / "toy_predictions.json"], f"wrote {shown}/scores\\.csv"),
        (["report", data_dir / "score_golden" / "toy_flags_scores.csv",
          data_dir / "toy_feature_counts.csv"],
         f"wrote \\d+ file\\(s\\) to {shown}"),
    ]:
        done = run_cli("--out", out, *argv, env=strict)
        assert (done.code, done.stderr) == (0, "")
        assert any(re.fullmatch(printed, line)
                   for line in done.stdout.splitlines()), done.stdout


def test_blur_spells_a_path_alike_on_stdout_and_stderr(tmp_path):
    """`blur`'s error and warning lines on stderr spell a path that is not
    UTF-8 as its stdout lines do: a 4x3 `c\\xff.pgm` that no blur kernel
    fits reads `c\\xff.pgm` on both streams."""
    odd = os.fsdecode(b"\xff")
    src = tmp_path / "in"
    src.mkdir()
    raster = save_image(random_image(np.random.default_rng(5), 4, 3, 1))
    for name in ("b", f"c{odd}", "d"):
        (src / f"{name}.pgm").write_bytes(raster)
    (src / f"e{odd}.pgm").write_bytes(b"P2 4 3 255\n")
    out = tmp_path / "out"
    strict = {"PYTHONIOENCODING": "utf-8"}
    done = run_cli("--out", out, "blur", "--levels", "MB0,MB1", src,
                   env=strict)
    assert done.code == 1
    assert done.stdout.splitlines() == [
        f"{src}/{name}.pgm: wrote 1 variant(s) to {out}"
        for name in ("b", "c\\xff", "d")]
    assert done.stderr.splitlines() == [
        f"error: {src}/{name}.pgm at MB1: kernel 6x1 larger than image 4x3"
        for name in ("b", "c\\xff", "d")] + [
        f"error: {src}/e\\xff.pgm: bad magic b'P2'; expected P5 or P6"]
    (tmp_path / f"empty{odd}").mkdir()
    for name, line in [
        (f"in/gone{odd}.pgm", f"error: no such input {src}/gone\\xff.pgm"),
        (f"empty{odd}", f"warning: no PGM/PPM files in {tmp_path}/empty\\xff"),
    ]:
        done = run_cli("--out", out, "blur", tmp_path / name, env=strict)
        assert (done.stdout, done.stderr.splitlines()) == ("", [line])


def test_error_lines_spell_a_path_as_stdout_does(tmp_path, data_dir):
    """The `error:` lines that blurbench words itself show a path that is
    not UTF-8 with a `\\xNN` escape, as stdout does. An `OSError` text is
    Python's own, and shows such a byte as `\\udcff`."""
    odd = os.fsdecode(b"\xff")
    where = tmp_path / f"d{odd}"
    shown = f"{tmp_path}/d\\xff"
    for name, refs, preds in [("none", {}, {("a", "MB0"): "x"}),
                              ("empty", {"a": ["x y"]}, {}),
                              ("other", {"a": ["x y"]}, {("z", "MB0"): "x"})]:
        (where / name).mkdir(parents=True)
        write_corpus(where / name, refs, preds)
    (where / "empty.txt").write_bytes(b"")
    (where / "cr.txt").write_bytes(b"a\rb\n")
    (where / "twice.cfg").write_text("seed = 1\nseed = 2\n")
    (where / "unknown.cfg").write_text("colour = red\n")
    keys = data_dir / "toy_keys.txt"
    for argv, lines in [
        (["plan", where / "empty.txt"], [f"error: no keys in {shown}/empty.txt"]),
        (["plan", where / "cr.txt"],
         [f"error: {shown}/cr.txt line 1: key holds a carriage return; "
          "lines must end in \\n or \\r\\n"]),
        (["score", where / "none" / "dataset.json",
          where / "none" / "predictions.json"],
         [f"error: no images in {shown}/none/dataset.json"]),
        (["score", where / "empty" / "dataset.json",
          where / "empty" / "predictions.json"],
         [f"error: no predictions in {shown}/empty/predictions.json"]),
        (["score", where / "other" / "dataset.json",
          where / "other" / "predictions.json"],
         ["warning: 1 prediction(s) for images not in the split ignored",
          f"error: no predictions for images in {shown}/other/predictions.json"]),
        (["--config", where / "twice.cfg", "plan", keys],
         [f"error: config key 'seed' set twice in {shown}/twice.cfg"]),
        (["--config", where / "unknown.cfg", "plan", keys],
         [f"error: unknown config key(s) in {shown}/unknown.cfg: colour"]),
        (["plan", where / "gone.txt"],
         ["error: [Errno 2] No such file or directory: "
          f"'{tmp_path}/d\\udcff/gone.txt'"]),
    ]:
        done = run_cli("--out", tmp_path / "out", *argv,
                       env={"PYTHONIOENCODING": "utf-8"})
        assert (done.code, done.stdout, done.stderr.splitlines()) == (
            1, "", lines), argv
    assert not (tmp_path / "out").exists()


def umask_read(mask):
    raise AssertionError("the process umask is read or set")


@pytest.mark.parametrize("command,umask,replaces,umask_raises", [
    *(pytest.param(command, umask, replaces, False, id=f"{command}-{name}")
      for command in ("plan", "score", "report", "blur")
      for umask, replaces, name in [(0o022, False, "022"), (0o077, False, "077"),
                                    (0o022, True, "022-replaces-0644")]),
    pytest.param("report", 0o027, False, True, id="report-027-umask-untouched"),
])
def test_outputs_get_the_mode_of_a_new_file(tmp_path, data_dir, monkeypatch,
                                            command, umask, replaces,
                                            umask_raises):
    """Each output file gets 0666 less the umask, as `open(path, "w")`
    gives a new file, also where it replaces an existing one. The kernel
    applies the umask: with `umask_raises`, no write reads or sets it,
    since setting it changes it for every thread of the process."""
    raster = tmp_path / "raster.pgm"
    raster.write_bytes(save_image(random_image(np.random.default_rng(6),
                                               48, 16, 1)))
    argv = {
        "plan": ["plan", data_dir / "toy_keys.txt"],
        "score": ["score", data_dir / "toy_captions.json",
                  data_dir / "toy_predictions.json"],
        "report": ["report", data_dir / "score_golden" / "toy_flags_scores.csv",
                   data_dir / "toy_feature_counts.csv"],
        "blur": ["blur", raster],
    }[command]
    out = tmp_path / "out"
    if replaces:
        assert run("--out", out, *argv) == 0
        for path in out.iterdir():
            path.chmod(0o644)
    old = os.umask(umask)
    try:
        with monkeypatch.context() as patch:
            if umask_raises:
                patch.setattr(os, "umask", umask_read)
            assert run("--out", out, *argv) == 0
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
    assert modes and set(modes.values()) == {0o666 & ~umask}, modes


def test_atomic_write_draws_another_name_when_one_is_taken(tmp_path,
                                                           monkeypatch):
    """A temporary name that exists, another writer's file, is neither
    opened nor replaced: the write draws names until one is free."""
    target = tmp_path / "scores.csv"
    taken = tmp_path / f"scores.csv.{'00' * 6}"
    taken.write_bytes(b"another writer's")
    draws = iter([bytes(6), bytes(6), b"\1" * 6])
    monkeypatch.setattr(os, "urandom", lambda size: next(draws))
    cli._atomic_write(target, b"ours")
    assert target.read_bytes() == b"ours"
    assert taken.read_bytes() == b"another writer's"
    assert sorted(p.name for p in tmp_path.iterdir()) == [target.name, taken.name]
