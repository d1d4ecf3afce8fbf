"""Command-line interface behavior."""

import json
from dataclasses import fields

import numpy as np
import pytest

from blurbench import cli
from blurbench.cli import main
from blurbench.imaging import BlurLevel, apply_blur, load_image, make_kernel, save_image
from blurbench.schedule import read_manifest
from conftest import random_image


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
            assert written == apply_blur(img, make_kernel(level))

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

    def test_unknown_level_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("blur", tmp_path, "--levels", "MB8")
        assert excinfo.value.code == 2

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

    @pytest.mark.parametrize("flag,value", [("--sigma", "nan"),
                                            ("--scale", "inf")])
    def test_non_finite_metric_settings_fail(self, tmp_path, data_dir, capsys,
                                             flag, value):
        out = tmp_path / "out"
        assert run("--out", out, "score", data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json", flag, value) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (out / "scores.csv").exists()

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

    def test_flags_add_subset_rows(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert run("--out", out, "score",
                   data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json",
                   "--flags", data_dir / "toy_flags.csv") == 0
        text = (out / "scores.csv").read_text()
        assert "No-Aug,with_blur," in text
        assert "No-Aug,no_blur," in text


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

    def test_malformed_scores_fail(self, tmp_path, data_dir):
        scores = tmp_path / "scores.csv"
        scores.write_text("technique,level,score\nNo-Aug,MB0,48.8\n")
        assert run("--out", tmp_path / "out", "report", scores,
                   data_dir / "toy_feature_counts.csv") == 1

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
    def test_every_setting_has_one_converter(self):
        assert set(cli._CONVERTERS) == {f.name for f in fields(cli.RunConfig)}

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

    def test_env_seed_checked_like_flag(self, tmp_path, monkeypatch, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n")
        monkeypatch.setenv("BLURBENCH_SEED", "seven")
        assert run("--out", tmp_path / "out", "plan", keys) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
