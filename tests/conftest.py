import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import blurbench
from blurbench.imaging import BlurLevel
from blurbench.ingest import (
    FeatureCounts,
    parse_blur_flags,
    parse_captions,
    parse_feature_counts,
    parse_predictions,
)
from blurbench.schedule import (AugmentationManifest, Stage, plan_dataset,
                                technique_plan)

DATA_DIR = Path(__file__).parent / "data"
#: The directory that holds the `blurbench` package under test.
PACKAGE_ROOT = Path(blurbench.__file__).resolve().parent.parent
#: Python 3.10's csv reader raises "line contains NUL"; 3.11 reads NUL.
CSV_READS_NUL = sys.version_info >= (3, 11)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def toy_dataset():
    return parse_captions((DATA_DIR / "toy_captions.json").read_bytes())


@pytest.fixture(scope="session")
def toy_predictions():
    return parse_predictions((DATA_DIR / "toy_predictions.json").read_bytes())


@pytest.fixture(scope="session")
def toy_feature_records():
    return parse_feature_counts((DATA_DIR / "toy_feature_counts.csv").read_bytes())


@pytest.fixture(scope="session")
def toy_flags():
    return parse_blur_flags((DATA_DIR / "toy_flags.csv").read_bytes())


def random_image(rng: np.random.Generator, width: int, height: int,
                 channels: int) -> np.ndarray:
    return rng.integers(0, 256, size=(height, width, channels),
                        dtype=np.uint8)


def feature_counts(rows) -> FeatureCounts:
    """The `FeatureCounts` of (image id, level, count) triples, in order."""
    rows = list(rows)
    return FeatureCounts(tuple(image_id for image_id, _, _ in rows),
                         bytes(level for _, level, _ in rows),
                         tuple(count for _, _, count in rows))


def feature_rows(features: FeatureCounts) -> list[tuple[str, BlurLevel, int]]:
    """The (image id, level, count) triple of each row of `features`."""
    return [(image_id, BlurLevel(level), count) for image_id, level, count
            in zip(features.image_ids, features.levels, features.counts)]


def pack_manifest(seed, plan, entries) -> AugmentationManifest:
    """The key grid of `entries` (`ManifestEntry` values, one per (key,
    stage) in (key, stage) order): each key once, then every level."""
    entries = list(entries)
    keys = tuple(entry.sample_key for entry in entries[::len(Stage)])
    assert [(entry.sample_key, entry.stage) for entry in entries] == [
        (key, stage) for key in keys for stage in Stage]
    return AugmentationManifest(
        seed, plan, keys,
        bytes(list(BlurLevel).index(entry.level) for entry in entries))


def stage_levels(keys, technique: str, seed: int,
                 stage: Stage) -> list[BlurLevel]:
    """The level `plan_dataset` draws for each of `keys` at `stage`, in
    the order of `keys`."""
    manifest = plan_dataset(keys, technique_plan(technique), seed)
    column = manifest.levels[list(Stage).index(stage)::len(Stage)]
    levels = dict(zip(manifest.keys, map(BlurLevel, column)))
    return [levels[key] for key in keys]


@dataclass
class Process:
    """A finished interpreter: exit code, output streams, and the modules
    it executed, in order."""
    code: int
    stdout: str
    stderr: str  # without the `-X importtime` lines
    modules: list[str]

    @property
    def numpy_modules(self) -> list[str]:
        return [name for name in self.modules if name.split(".")[0] == "numpy"]


def run_python(*args, cwd=None, env=None) -> Process:
    """`python -X importtime *args` in a fresh interpreter that imports
    the `blurbench` under test, with `BLURBENCH_SEED` unset unless `env`
    sets it. Import-time lines name each module as it is executed, so a
    module that is only bound lazily is not among `modules`."""
    environ = {key: value for key, value in os.environ.items()
               if key != "BLURBENCH_SEED"}
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)] + [p for p in [environ.get("PYTHONPATH")] if p])
    environ.update(env or {})
    done = subprocess.run([sys.executable, "-X", "importtime", *map(str, args)],
                          cwd=cwd, env=environ, capture_output=True,
                          text=True, timeout=120)
    stderr, modules = [], []
    for line in done.stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name != "imported package":  # the column header
                modules.append(name)
        else:
            stderr.append(line)
    return Process(done.returncode, done.stdout, "".join(stderr), modules)


def run_cli(*argv, cwd=None, env=None) -> Process:
    """`python -m blurbench.cli *argv` in a fresh interpreter (`run_python`)."""
    return run_python("-m", "blurbench.cli", *argv, cwd=cwd, env=env)


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    sys.stderr.write(f"\n[acceptance] {status} {name}\n")
