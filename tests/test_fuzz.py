"""Mutated input documents: every parser raises nothing but ValueError.

`cli.main` turns a ValueError (ParseError, FormatError, a JSON or UTF-8
decoding error) into one `error:` line and exit code 1; any other
exception escapes as a traceback. Each valid fixture gets a few byte
insertions, deletions and replacements, drawn mostly from bytes that CSV,
JSON and netpbm treat specially. The same mutations, fed to whole
commands, must end in exit 0 or in one last `error:` line; `blur`, which
fails one raster at a time, must name only the mutated raster and still
write the intact one's variants.
"""

import functools
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurbench.cli import main
from blurbench.imaging import load_image, save_image
from blurbench.ingest import (
    parse_blur_flags,
    parse_captions,
    parse_feature_counts,
    parse_predictions,
)
from blurbench.report import parse_scores_csv
from blurbench.schedule import (
    plan_dataset,
    read_manifest,
    technique_plan,
    write_manifest,
)
from conftest import DATA_DIR, random_image

_SCORES = "# seed=0\ntechnique,level,score\n" + "".join(
    f"{technique},{level},{score}\n"
    for technique in ("No-Aug", "Cap-Aug")
    for level, score in (("MB0", 48.8), ("MB1", 47.0), ("MB2", 40.9),
                         ("MB3", 26.4), ("with_blur", 47.2), ("no_blur", 53.0)))
_MANIFEST = write_manifest(plan_dataset(
    ["img00", "img01", "img02"], technique_plan("ObjDet-Cap-Aug"), 7))
_RASTER = save_image(random_image(np.random.default_rng(0), 4, 3, 3))

#: name -> (valid document, parser taking the document's bytes)
FIXTURES = {
    "captions": ((DATA_DIR / "toy_captions.json").read_bytes(), parse_captions),
    "predictions": ((DATA_DIR / "toy_predictions.json").read_bytes(),
                    parse_predictions),
    "feature_counts": ((DATA_DIR / "toy_feature_counts.csv").read_bytes(),
                       parse_feature_counts),
    "blur_flags": ((DATA_DIR / "toy_flags.csv").read_bytes(), parse_blur_flags),
    "scores": (_SCORES.encode(),
               lambda data: parse_scores_csv(data.decode("utf-8"))),
    "manifest": (_MANIFEST.encode(),
                 lambda data: read_manifest(data.decode("utf-8"))),
    "raster": (_RASTER, load_image),
}

_SPECIAL = [b"\r", b"\n", b"\x00", b'"', b",", b"#", b" ", b"[", b"{", b"9"]
_EDIT = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(0, 1 << 16),
    st.one_of(st.sampled_from(_SPECIAL), st.binary(min_size=1, max_size=1)))


def mutate(document: bytes, edits) -> bytes:
    data = bytearray(document)
    for op, where, byte in edits:
        at = where % (len(data) + 1)
        if op == "insert":
            data[at:at] = byte
        elif op == "delete":
            del data[at:at + 1]
        else:
            data[at:at + 1] = byte
    return bytes(data)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_valid_fixture_parses(name):
    document, parse = FIXTURES[name]
    parse(document)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_mutated_input_raises_only_value_errors(name, edits):
    document, parse = FIXTURES[name]
    try:
        parse(mutate(document, edits))
    except ValueError:
        pass


#: command -> its arguments, naming input files by their _INPUTS key
COMMANDS = {
    "score": ["score", "captions", "predictions", "--flags", "blur_flags"],
    "report": ["report", "scores", "feature_counts", "--flags", "blur_flags"],
    "plan": ["--config", "config", "plan", "keys"],
}
_INPUTS = {name: document for name, (document, _) in FIXTURES.items()}
_INPUTS["keys"] = (DATA_DIR / "toy_keys.txt").read_bytes()
_INPUTS["config"] = b"# plan\nseed = 7\ntechnique = objdet-cap-aug  # canonicalized\n"


@pytest.mark.parametrize("command,target", [
    (command, name) for command, argv in COMMANDS.items()
    for name in argv if name in _INPUTS])
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_mutated_command_input_exits_cleanly(command, target, edits):
    """Exit 0, or exit 1 with one last `error:` line and no --out directory;
    only `warning:` lines may come before it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for arg in COMMANDS[command]:
            if arg in _INPUTS:
                document = _INPUTS[arg]
                Path(tmp, arg).write_bytes(
                    mutate(document, edits) if arg == target else document)
                arg = str(Path(tmp, arg))
            argv.append(arg)
        out = Path(tmp, "out")
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["--out", str(out), *argv])
        created = out.exists()
    lines = stderr.getvalue().split("\n")
    assert lines.pop() == "" and "Traceback" not in stderr.getvalue()
    if code == 0:
        assert all(line.startswith("warning: ") for line in lines)
        return
    assert code == 1 and not created
    assert lines and lines[-1].startswith("error: ")
    assert all(line.startswith("warning: ") for line in lines[:-1])


#: The smallest raster every blur level fits: MB3 is a 45x12 kernel.
_BLUR_RASTER = save_image(random_image(np.random.default_rng(1), 45, 12, 1))


def _blur(directory: Path, out: Path) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["--out", str(out), "blur", str(directory)])
    return code, stderr.getvalue()


@functools.cache
def _clean_variants() -> dict[str, bytes]:
    """Variants of `_BLUR_RASTER` from a run on it alone, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "in").mkdir()
        Path(tmp, "in", "intact.pgm").write_bytes(_BLUR_RASTER)
        assert _blur(Path(tmp, "in"), Path(tmp, "out")) == (0, "")
        return {p.name: p.read_bytes() for p in Path(tmp, "out").iterdir()}


@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_mutated_raster_fails_alone(edits):
    """`blur` on a directory of an intact and a mutated raster: exit 1
    exactly when stderr has lines, each an `error:` line naming the
    mutated raster, and the intact raster's variants as in a clean run."""
    with tempfile.TemporaryDirectory() as tmp:
        directory, out = Path(tmp, "in"), Path(tmp, "out")
        directory.mkdir()
        (directory / "intact.pgm").write_bytes(_BLUR_RASTER)
        mutated = directory / "mutated.pgm"
        mutated.write_bytes(mutate(_BLUR_RASTER, edits))
        code, stderr = _blur(directory, out)
        variants = {name: (out / name).read_bytes()
                    for name in _clean_variants()}
    lines = stderr.split("\n")
    assert lines.pop() == "" and "Traceback" not in stderr
    assert code == (1 if lines else 0)
    assert all(line.startswith(f"error: {mutated}") for line in lines)
    assert variants == _clean_variants()
