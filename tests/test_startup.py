"""What a cold `blurbench` process loads, and the lazy numpy binding.

Only `blur` and `score` use numpy, so importing the CLI, `--help`, usage
errors, `plan` and `report` must execute no numpy module. blurbench
itself imports none of the standard modules in `UNNEEDED`, so importing
the CLI, `--help`, `plan` and `report` execute none of them beyond what
the bare interpreter does. Each case runs in a fresh
interpreter (`conftest.run_python`), whose import-time lines name every
module executed.
"""

from functools import cache

import numpy as np
import pytest

from conftest import run_cli, run_python


def test_import_loads_no_numpy():
    done = run_python("-c", "import blurbench.cli")
    assert (done.code, done.stderr, done.numpy_modules) == (0, "", [])


def test_help_loads_no_numpy():
    done = run_cli("--help")
    assert done.code == 0 and done.stdout.startswith("usage: blurbench")
    assert done.numpy_modules == []


@pytest.mark.parametrize("argv,env,code", [
    (["--seed", "-1"], {}, 2),
    ([], {"BLURBENCH_SEED": "-1"}, 1),
], ids=["flag", "environment"])
def test_usage_error_loads_no_numpy(tmp_path, data_dir, argv, env, code):
    """A seed outside [0, 2**64): one error line, nothing written."""
    done = run_cli(*argv, "--out", tmp_path / "plan", "plan",
                   data_dir / "toy_keys.txt", env=env)
    lines = done.stderr.splitlines()
    assert done.code == code
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].endswith("seed must be in [0, 2**64), not -1")
    assert not (tmp_path / "plan").exists()
    assert done.numpy_modules == []


def test_plan_loads_no_numpy(tmp_path, data_dir):
    done = run_cli("--out", tmp_path, "plan", data_dir / "toy_keys.txt",
                   "--technique", "ObjDet-Cap-Aug")
    assert (done.code, done.stderr) == (0, "")
    assert (tmp_path / "manifest.jsonl").read_bytes() == (
        data_dir / "manifest_golden" / "ObjDet-Cap-Aug_seed0.jsonl").read_bytes()
    assert done.numpy_modules == []


def test_report_loads_no_numpy(tmp_path, data_dir):
    case = "markdown_flags"
    done = run_cli("--out", case, "report",
                   data_dir / "score_golden" / "toy_flags_scores.csv",
                   data_dir / "toy_feature_counts.csv", "--bin-width", 10,
                   "--flags", data_dir / "toy_flags.csv", cwd=tmp_path)
    golden = data_dir / "report_golden"
    assert (done.code, done.stderr) == (0, "")
    assert done.stdout == (golden / f"{case}.stdout").read_text()
    names = sorted(p.name for p in (golden / case).iterdir())
    assert sorted(p.name for p in (tmp_path / case).iterdir()) == names
    for name in names:
        assert (tmp_path / case / name).read_bytes() == (
            golden / case / name).read_bytes()
    assert done.numpy_modules == []


#: Standard modules blurbench needs none of, each a cost to a cold start:
#: `dataclasses` executes `inspect`, `dis`, `ast` and `tokenize` with it.
UNNEEDED = {"dataclasses", "inspect", "typing", "decimal", "tempfile"}


@cache
def bare_modules() -> frozenset[str]:
    """The modules `python -c pass` executes in the same environment:
    `site` may execute some of `UNNEEDED` itself, through a `.pth` file."""
    return frozenset(run_python("-c", "pass").modules)


@pytest.mark.parametrize("start", ["import", "help", "plan", "report"])
def test_executes_no_unneeded_module(tmp_path, data_dir, start):
    done = {
        "import": lambda: run_python("-c", "import blurbench.cli"),
        "help": lambda: run_cli("--help"),
        "plan": lambda: run_cli("--out", tmp_path, "plan",
                                data_dir / "toy_keys.txt"),
        "report": lambda: run_cli(
            "--out", tmp_path, "report",
            data_dir / "score_golden" / "toy_flags_scores.csv",
            data_dir / "toy_feature_counts.csv",
            "--flags", data_dir / "toy_flags.csv"),
    }[start]()
    assert done.code == 0
    assert "blurbench.schedule" in done.modules  # the lines were read
    assert sorted(UNNEEDED.intersection(done.modules) - bare_modules()) == []


def test_score_loads_numpy(tmp_path, data_dir):
    done = run_cli("--out", tmp_path, "score", data_dir / "toy_captions.json",
                   data_dir / "toy_predictions.json",
                   "--flags", data_dir / "toy_flags.csv")
    assert (done.code, done.stderr) == (0, "")
    assert (tmp_path / "scores.csv").read_bytes() == (
        data_dir / "score_golden" / "toy_flags_scores.csv").read_bytes()
    assert "numpy._core" in done.numpy_modules


def test_blur_loads_numpy(tmp_path):
    raster = tmp_path / "raster.ppm"
    raster.write_bytes(b"P6\n64 48\n255\n" + bytes(range(256)) * 36)
    done = run_cli("--out", tmp_path / "blur", "blur", raster)
    assert (done.code, done.stderr) == (0, "")
    assert sorted(p.name for p in (tmp_path / "blur").iterdir()) == [
        f"raster.MB{k}.ppm" for k in range(4)]
    assert (tmp_path / "blur" / "raster.MB0.ppm").read_bytes() == (
        raster.read_bytes())
    assert "numpy._core" in done.numpy_modules


def test_numpy_imported_first_is_bound():
    done = run_python("-c", "import numpy, blurbench.cider, blurbench.imaging; "
                      "print(blurbench.cider.np is numpy is blurbench.imaging.np)")
    assert (done.code, done.stdout) == (0, "True\n")


def test_numpy_imported_after_blurbench_works():
    done = run_python("-c", "import blurbench.cli, numpy; "
                      "print(numpy.random.default_rng(0).integers(0, 9, 3).tolist(), "
                      "numpy is blurbench.cider.np)")
    expected = np.random.default_rng(0).integers(0, 9, 3).tolist()
    assert (done.code, done.stdout) == (0, f"{expected} True\n")


@pytest.mark.parametrize("hide", [
    "sys.modules['numpy'] = None",
    "find = importlib.util.find_spec; importlib.util.find_spec = "
    "lambda name, package=None: None if name == 'numpy' else find(name, package)",
], ids=["none_in_sys_modules", "no_spec"])
def test_missing_numpy_raises_at_import(hide):
    """numpy stays a hard dependency: without it, importing the CLI fails
    as `import numpy` would, not at the first use."""
    done = run_python("-c", f"import importlib.util, sys; {hide}\n"
                      "try:\n    import blurbench.cli\n"
                      "except ModuleNotFoundError as exc:\n    print(exc.name)")
    assert (done.code, done.stdout) == (0, "numpy\n")


def test_package_importing_its_submodule_loads_on_first_use():
    """sqlite3's `__init__` imports `sqlite3.dbapi2`; neither runs before
    the first attribute access."""
    done = run_python("-c", "import sys; from blurbench import _lazy_import; "
                      "sqlite3 = _lazy_import('sqlite3'); "
                      "print('sqlite3.dbapi2' in sys.modules); "
                      "print(sqlite3.connect(':memory:').execute('select 7').fetchone()); "
                      "print(sys.modules['sqlite3'] is sqlite3)")
    assert (done.code, done.stdout) == (0, "False\n(7,)\nTrue\n")
