"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import contextlib
import filecmp
import io
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import measure  # noqa: E402  (puts src/ on sys.path)
import run  # noqa: E402
import speed  # noqa: E402
from checks import check_blur  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

import blurbench.cli  # noqa: E402
from blurbench.imaging import BlurLevel, apply_blur, load_image, make_kernel, save_image  # noqa: E402


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(gen, "KARPATHY_TEST_IMAGES", 30)
    monkeypatch.setattr(gen, "ORACLE_SAMPLE_IMAGES", 10)
    monkeypatch.setattr(gen, "KARPATHY_TRAIN_KEYS", 300)
    monkeypatch.setattr(gen, "RASTER_SET", ((2, 64, 48, 3), (1, 64, 48, 1)))


def same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


@pytest.mark.parametrize("workload", measure.WORKLOADS)
def test_generator_is_deterministic_per_seed(small_sizes, tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert same_tree(tmp_path / "a", tmp_path / "b")
    for name in ("split/dataset.json", "keys.txt", "report/features.csv"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
    rasters = {run: {p.read_bytes() for p in (tmp_path / run / "rasters").iterdir()}
               for run in "ac"}
    assert rasters["a"].isdisjoint(rasters["c"])


def test_split_captions_are_distinct(small_sizes):
    dataset, predictions, flags = gen.make_split(gen.rng_for(3, "t"), 30)
    captions = [a["caption"] for a in dataset["annotations"]]
    captions += [p["caption"] for p in predictions]
    assert len(captions) == len(set(captions)) == 30 * (5 + 4)
    assert set(flags.values()) <= {"with_blur", "no_blur"}


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0, None)


def test_self_time_subtracts_child_coverage_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),   # overlaps a: [1, 5] covered once
        span("c", 9.0, 12.0, parent=0),  # overhangs the root: clipped to [9, 10]
        span("a.1", 1.5, 2.5, parent=1),  # grandchild: only a loses it
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_layer_metrics_totals_and_ratios():
    spans = [
        Span("cli.main", 0.0, 4.0, -1, 1, None),
        Span("cider.tokenize", 0.5, 1.0, 0, 1, "a b"),
        Span("cider.tokenize", 1.0, 1.5, 0, 1, "a b"),
        Span("cider.tokenize", 1.5, 2.0, 0, 1, "c"),
        Span("cider.tokenize", 2.0, 2.5, 0, 1, "d"),
        Span("imaging.apply_blur", 2.5, 3.5, 0, 1, "MB2"),
    ]
    m = layer_metrics(spans)
    assert m["cli.main.self_s"] == pytest.approx(1.0)
    assert m["cider.tokenize.calls"] == 4
    assert m["cider.tokenize.useful_ratio"] == 0.75
    assert m["imaging.apply_blur.self_s.MB2"] == pytest.approx(1.0)
    assert m["imaging.apply_blur.self_s.MB0"] == 0.0
    assert m["cider.ngram_counts.useful_ratio"] == 0.0


def test_tracer_counts_score_calls_and_restores_functions(small_sizes, tmp_path):
    split = gen.make_split(gen.rng_for(5, "t"), 30)
    gen.write_split(split, tmp_path)
    original = blurbench.cli.build_idf
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = blurbench.cli.main(
                ["--out", str(tmp_path / "out"), "score", str(tmp_path / "dataset.json"),
                 str(tmp_path / "predictions.json"), "--flags",
                 str(tmp_path / "flags.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert blurbench.cli.build_idf is original
    m = layer_metrics([s for s in tracer.spans if s is not None])
    # idf over the split, 4 levels, then idf + MB0 scores per flag subset:
    # 7 tokenize calls per reference and 5 per image
    assert m["cider.tokenize.calls"] == 7 * 5 * 30 + 5 * 30
    assert m["cider.build_idf.calls"] == 1 + len(set(split[2].values()))
    assert m["cider.tokenize.useful_ratio"] == pytest.approx(9 * 30 / (40 * 30))


def blurred_outputs(raster: bytes) -> dict[str, bytes]:
    img = load_image(raster)
    return {level.name: save_image(apply_blur(img, make_kernel(level)))
            for level in BlurLevel}


def test_blur_check_catches_any_flipped_byte():
    rng = np.random.default_rng(0)
    raster = gen.raster_bytes(rng, 46, 13, 1)  # every sample gets checked
    outputs = blurred_outputs(raster)
    assert check_blur(raster, outputs, rng) == []
    for level in ("MB1", "MB3"):
        for position in rng.choice(46 * 13, size=20, replace=False):
            corrupt = bytearray(outputs[level])
            corrupt[-(position + 1)] ^= 0x01
            problems = check_blur(raster, dict(outputs, **{level: bytes(corrupt)}), rng)
            assert problems and problems[0].startswith(level)


def test_flipped_byte_in_a_later_pass_counts_as_failed(tmp_path, monkeypatch):
    raster = tmp_path / "big.ppm"
    raster.write_bytes(gen.raster_bytes(np.random.default_rng(1), 200, 150, 3))
    client = measure.Client(tmp_path, tmp_path / "work", seed=1)
    client.blur(raster, tmp_path / "out")
    client.end_pass()
    assert (client.attempted, client.failed) == (1, 0)

    def flip_last_byte(img, *args):
        data = bytearray(save_image(img, *args))
        data[-1] ^= 0x80
        return bytes(data)

    monkeypatch.setattr(blurbench.cli, "save_image", flip_last_byte)
    client.blur(raster, tmp_path / "out")
    client.end_pass()
    assert (client.attempted, client.failed) == (2, 1)
    assert len(client.pass_rates) == 1


def test_scaling_divides_by_the_speed_around_the_operation():
    ref = {loop: reference for loop, (_, reference) in speed.LOOPS.items()}
    # loops twice as slow as on the reference host: half the seconds
    slow = {loop: [1.5 * t, 2 * t] for loop, t in ref.items()}
    slower = {loop: [2 * t, 2.5 * t] for loop, t in ref.items()}
    assert speed.scaled(3.0, "array", slow, slower) == pytest.approx(1.5)
    assert speed.scaled(3.0, "interpreter", slow, slower) == pytest.approx(1.5)
    # one preempted run among four does not count
    preempted = {loop: [2 * t, 40 * t] for loop, t in ref.items()}
    assert speed.scaled(3.0, "array", slow, preempted) == pytest.approx(1.5)
    # only the array loop twice as slow: a fifth of its weight
    once = {loop: [t, t] for loop, t in ref.items()}
    slow_array = dict(once, array=[2 * ref["array"]] * 2)
    assert speed.speed("interpreter", slow_array, slow_array) == pytest.approx(0.5 ** 0.2)
    assert speed.speed("import", once, once) == pytest.approx(1.0)
    assert {loop: len(t) for loop, t in speed.loop_times("import", runs=2).items()} \
        == {"interpreter": 2}


def test_ticks_sample_speed_during_a_block_and_report_their_time():
    with speed.Ticks("interpreter") as ticks:
        start = time.perf_counter()
        while time.perf_counter() - start < 3.5 * speed.TICK_S:
            pass
        end = time.perf_counter()
    assert {loop: len(t) >= 3 for loop, t in ticks.times.items()} == \
        {"interpreter": True, "array": True}
    stolen = ticks.stolen(start, end)
    assert 0 < stolen == ticks.stolen(0, end) < end - start
    assert ticks.stolen(end, end + 1) == 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = set(layer_metrics([])) | {"trace.overhead_ratio"}
    assert {name: run.layer_unit(name) for name in layers} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    client = measure.Client(tmp_path, tmp_path, seed=0)
    for kind in ("blur", "score", "plan", "manifest_read", "report"):
        client.samples[kind] = [0.5, 1.0]
    client.pass_rates = [2.0]
    units = {name: unit for name, (_, unit, _) in measure.end_to_end(client).items()}
    units["setup_s"] = "s"
    assert units == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(spec["end_to_end"][0]) == {"name", "unit", "better", "bound"}
