"""Mutated input documents: every parser raises nothing but ValueError.

`cli.main` turns a ValueError (every parser's, a JSON or UTF-8 decoding
error included) into one `error:` line and exit code 1; any other
exception escapes as a traceback. Each valid fixture gets a few byte
insertions, deletions and replacements, drawn mostly from bytes that CSV,
JSON and netpbm treat specially. The same mutations, fed to whole
commands, must end in exit 0 or in one last `error:` line; `blur`, which
fails one raster at a time, must name only the mutated raster and still
write the intact one's variants. A manifest, mutated line by line too,
reads the same through `read_manifest`, which reads the writer's own text
in bulk and any other text one line at a time with `scanstring` and one
table, checking the layout over its columns, as through a reference
reader that matches each line on its own against the text `plan` writes,
with `json.loads` for the header and each key; and `write_manifest`,
which writes a manifest from its key grid, writes it as `json.dumps` of
one record per line does. A
feature-count or blur-flag table with mutated rows gives the same value
or error as a reference parser that reads the whole table and then
checks it row by row.
"""

import csv
import functools
import io
import json
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from json.encoder import encode_basestring_ascii
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurbench.cli import main
from blurbench.imaging import load_image, save_image
import blurbench.ingest as ingest_mod
from blurbench.ingest import (
    BlurFlag,
    decode_text,
    parse_blur_flags,
    parse_captions,
    parse_feature_counts,
    parse_predictions,
    write_csv,
)
from blurbench.report import parse_scores_csv
import blurbench.schedule as schedule_mod
from blurbench.imaging import BlurLevel
from blurbench.schedule import (
    AugmentationManifest,
    ManifestEntry,
    Stage,
    Technique,
    TechniquePlan,
    plan_dataset,
    read_manifest,
    technique_plan,
    write_manifest,
)
from conftest import DATA_DIR, feature_counts, pack_manifest, random_image

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


#: An entry line as `plan` writes it, but with any text for its key's
#: JSON string, stage and level; a `\r` before the line end allowed.
_ENTRY_LINE = re.compile(
    r'\{"sample_key": (".*"), "stage": "(\w+)", "level": "(\w+)"\}\r?')


def read_manifest_by_line(text: str) -> AugmentationManifest:
    """The reference reader: each line read on its own, with `json.loads`
    of the header and of each key's JSON string, every error naming its
    1-based line. Every line, the last included, ends in `\n`. The
    header is `json.dumps` of the header object of its seed and technique,
    and each entry line `json.dumps` of its record but for the spelling of
    its key's JSON string. Once every line parses, the first entry out of
    `plan_dataset`'s layout (ascending keys, each with a detector and then
    a captioner entry) or at a level its stage's schedule gives no mass is
    named; failing that, the last entry if its key lacks the captioner
    entry; failing that, the first entry whose key UTF-8 cannot encode."""
    lines = text.split("\n")
    if lines[-1]:
        raise ValueError(f"bad manifest line {len(lines)}: no line end")
    if not text:
        raise ValueError("empty manifest")
    try:
        header = json.loads(lines[0])
        plan = TechniquePlan(Technique(header["technique"]))
        seed = schedule_mod.check_seed(header["seed"])
        written = {"seed": seed, "technique": plan.name.value}
        for stage in Stage:
            written[f"{stage.value}_schedule"] = list(
                plan.schedule_for(stage).probs)
        if lines[0].removesuffix("\r") != json.dumps(written):
            raise ValueError(f"not the header plan writes for technique "
                             f"{plan.name.value} and seed {seed}")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(
            f"bad manifest header on line 1: {exc}") from exc
    entries, numbers = [], []
    for number, line in enumerate(lines[1:-1], 2):
        try:
            key, stage, level = _ENTRY_LINE.fullmatch(line).groups()
            entries.append(ManifestEntry(
                json.loads(key), Stage(stage), BlurLevel[level]))
            numbers.append(number)
        except (AttributeError, KeyError, ValueError) as exc:
            raise ValueError(
                f"bad manifest entry on line {number} {line!r}: not an "
                "entry line as plan writes it") from exc
    for at, (number, entry) in enumerate(zip(numbers, entries)):
        if at % 2 == 0:
            fits = entry.stage is Stage.DETECTOR and (
                at == 0 or entries[at - 2].sample_key < entry.sample_key)
        else:
            fits = (entry.stage is Stage.CAPTIONER
                    and entry.sample_key == entries[at - 1].sample_key)
        fits = fits and plan.schedule_for(entry.stage).probs[entry.level] > 0
        if not fits:
            break
    else:
        fits = len(entries) % 2 == 0
    if not fits:
        raise ValueError(
            f"bad manifest entry on line {number}: {entry.stage.value} "
            f"{entry.level.name} of key {entry.sample_key!r} is out of the "
            "layout: ascending keys, each with a detector and then a "
            f"captioner entry, at levels the {plan.name.value} schedules "
            "give mass")
    for number, entry in zip(numbers, entries):
        try:
            entry.sample_key.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(
                f"bad manifest entry on line {number}: key "
                f"{entry.sample_key!r} cannot be encoded as UTF-8: "
                f"{exc.reason}") from exc
    return pack_manifest(seed, plan, entries)


def _outcome(reader, text: str):
    """The manifest `reader` returns, or the text of its ValueError."""
    try:
        return reader(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


#: A manifest of a dozen keys, two of them non-ASCII.
_DOZEN_MANIFEST = write_manifest(plan_dataset(
    [f"img{i:02d}" for i in range(10)] + ["caf\u00e9", "\u732b"],
    technique_plan("ObjDet-Cap-Aug"), 3))
#: Joiners and blank-line fillers: JSON and `str.strip` whitespace,
#: commas, braces.
_FILLERS = ["", " ", ",", ", ", "\r", "\t", "\x0c", "\x85", "{", "}"]
_LINE_EDIT = st.tuples(
    st.sampled_from(["join", "split", "blank", "crlf"]),
    st.integers(0, 1 << 16), st.integers(0, 1 << 16),
    st.sampled_from(_FILLERS))


def edit_lines(text: str, edits) -> str:
    """Join two lines (several records on one line), split one (a record
    over two lines), insert a blank or filler line, or end one in CRLF."""
    lines = text.split("\n")
    for op, where, at, filler in edits:
        i = where % len(lines)
        line = lines[i]
        if op == "join" and i + 1 < len(lines):
            lines[i:i + 2] = [line + filler + lines[i + 1]]
        elif op == "split":
            at %= len(line) + 1
            lines[i:i + 1] = [line[:at], line[at:]]
        elif op == "blank":
            lines.insert(i, filler)
        elif op == "crlf":
            lines[i] = line + "\r"
    return "\n".join(lines)


@given(document=st.sampled_from([_MANIFEST, _DOZEN_MANIFEST]),
       edits=st.lists(_EDIT, max_size=3),
       line_edits=st.lists(_LINE_EDIT, max_size=4))
@settings(max_examples=300, deadline=None)
def test_mutated_manifest_reads_like_line_by_line(document, edits, line_edits):
    """Same manifest or the same error, line number included."""
    text = edit_lines(mutate(document.encode(), edits).decode(
        "utf-8", errors="surrogateescape"), line_edits)
    assert (_outcome(read_manifest, text)
            == _outcome(read_manifest_by_line, text))


#: A manifest of 5 000 keys (10 001 lines).
_LARGE_MANIFEST = write_manifest(plan_dataset(
    [f"k{i:04d}" for i in range(5000)], technique_plan("Cap-Aug"), 11))


@given(where=st.integers(8193, 10_000),
       edits=st.lists(_EDIT, max_size=2),
       line_edits=st.lists(_LINE_EDIT, min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_bad_line_deep_in_a_large_manifest_named(where, edits, line_edits):
    """A line mutated deep in a large manifest gives the error the
    line-by-line reader gives."""
    lines = _LARGE_MANIFEST.split("\n")
    line = mutate(lines[where].encode(), edits).decode(
        "utf-8", errors="surrogateescape")
    lines[where] = edit_lines(line, [(op, 0, at, filler)
                                     for op, _, at, filler in line_edits])
    text = "\n".join(lines)
    assert (_outcome(read_manifest, text)
            == _outcome(read_manifest_by_line, text))


#: Keys of the characters that a key's JSON string hinges on: braces,
#: JSON escapes, and non-ASCII text that `json.dumps` escapes.
_ODD_KEYS = st.lists(
    st.text(st.sampled_from('ab{}"\\\u00e9\u732b\u2028'), min_size=1,
            max_size=6), min_size=1, max_size=12, unique=True)


@given(keys=_ODD_KEYS, line_edits=st.lists(_LINE_EDIT, max_size=2))
@settings(max_examples=300, deadline=None)
def test_keys_holding_braces_read_like_line_by_line(keys, line_edits):
    """Same manifest or the same error as the line-by-line reader, for
    keys holding `{`, `}`, `"`, `\\` or non-ASCII characters."""
    text = edit_lines(write_manifest(plan_dataset(
        keys, technique_plan("ObjDet-Cap-Aug"), 5)), line_edits)
    assert (_outcome(read_manifest, text)
            == _outcome(read_manifest_by_line, text))


_RECORD = '{"sample_key": "b", "stage": "detector", "level": "MB1"}'
_HEADER = _MANIFEST.split("\n", 1)[0]


@pytest.mark.parametrize("body", [
    # a record over two lines beside a line of two records
    ['{"sample_key": "a"', '"stage": "detector", "level": "MB0"}',
     f"{_RECORD}, {_RECORD}"],
    # a string over the line end: two lines, one record
    ['{"sample_key": "x}', '{", "stage": "detector", "level": "MB0"}'],
    # records nested in an array that spans the line end
    [_RECORD[:-1] + f', "k": [{_RECORD}', f"{_RECORD}]}}",
     f"{_RECORD}, {_RECORD}"],
    # the nesting hidden under a repeated key
    [f'{{"sample_key": [{_RECORD}', f'{_RECORD}], {_RECORD[1:]}',
     f"{_RECORD}, {_RECORD}"],
    ['{"sample_key": [{}', '{}], ' + _RECORD[1:], f"{_RECORD}, {_RECORD}"],
], ids=["split-record", "spanning-string", "spanning-array", "repeated-key",
        "empty-objects"])
def test_records_split_or_joined_across_lines_are_rejected(body):
    """Joined into one JSON array, each body would parse to records, but
    its first line is not a record on its own."""
    text = "\n".join([_HEADER, *body]) + "\n"
    got = _outcome(read_manifest, text)
    assert got.startswith("ValueError: bad manifest entry on line 2 ")
    assert got == _outcome(read_manifest_by_line, text)


_TAIL = ', "stage": "detector", "level": "MB1"}'


@pytest.mark.parametrize("line, reads", [
    ('{"sample_key":"b","stage":"detector","level":"MB1"}', False),
    ('{"stage": "detector", "level": "MB1", "sample_key": "b"}', False),
    ('{"sample_key": "b", "meta": {"x": [1, {}]}' + _TAIL, False),
    (' \t{"sample_key": "b"' + _TAIL + " \t", False),
    ('{"sample_key": "caf\u00e9\u732b"' + _TAIL, True),
    ('{"sample_key": "\\ud800"' + _TAIL, False),
    ('{"sample_key": "b' + _TAIL, False),
    ('{"sample_key": "b', False),
    ('{"sample_key": "a\tb"' + _TAIL, False),
    ('{"sample_key": "a\x00b"' + _TAIL, False),
    ('{"sample_key": "\\x41"' + _TAIL, False),
    ('{"sample_key": "b", "stage": "detector", "level": "MB9"}', False),
    ('{"sample_key": "b"' + _TAIL + "}", False),
    ('{"sample_key": "b"' + _TAIL + " x", False),
    ('{"sample_kex": "b"' + _TAIL, False),
], ids=["compact", "reordered", "nested-extra", "spaced", "raw-non-ascii",
        "lone-surrogate", "unterminated-in-tail", "unterminated",
        "raw-tab", "raw-nul", "hex-escape", "level-MB9", "junk-brace",
        "junk-text", "other-field-name"])
def test_other_writers_lines_read_like_line_by_line(line, reads):
    """Lines that `write_manifest` never writes, and look-alikes of its
    lines, each followed by its captioner twin: the same manifest or the
    same error as the line-by-line reader. Only a key spelt otherwise
    than `json.dumps` spells it reads: another writer's separators, field
    order or extra fields, and a key UTF-8 cannot encode, are errors
    naming line 2."""
    text = f"{_HEADER}\n{line}\n{line.replace('detector', 'captioner')}\n"
    got = _outcome(read_manifest, text)
    assert got == _outcome(read_manifest_by_line, text)
    assert isinstance(got, AugmentationManifest) is reads
    if not reads:
        assert re.match("ValueError: bad manifest entry on line 2[ :]", got)


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_planned_odd_keys_read_back_with_lf_or_crlf(line_end):
    """Every manifest `write_manifest` gives, odd keys included, reads
    back equal, with LF or CRLF line ends."""
    keys = ["{", "b{1}", '"', "\\", 'q"\\{', "caf\u00e9", "\u732b",
            "\u2028", "tab\there", "\x7f", " "]
    for technique in Technique:
        manifest = plan_dataset(keys, TechniquePlan(technique), 9)
        text = write_manifest(manifest).replace("\n", line_end)
        assert read_manifest(text) == manifest


def _no_scanstring(*args):
    raise AssertionError("the line reader ran")


def test_planned_manifests_read_in_bulk(monkeypatch):
    """Text `write_manifest` gives reads back without the line reader:
    ASCII keys, and the odd keys, which the writer escapes."""
    monkeypatch.setattr(schedule_mod, "scanstring", _no_scanstring)
    keys = [f"COCO_train2014_{i:012d}" for i in range(0, 3000, 7)]
    for technique in Technique:
        manifest = plan_dataset(keys, TechniquePlan(technique), 2)
        assert read_manifest(write_manifest(manifest)) == manifest
    test_planned_odd_keys_read_back_with_lf_or_crlf("\n")


#: Keys whose JSON string can be spelt otherwise than `plan` spells it:
#: `A` as `\u0041`, `/` as `\/`, and `\u00e9` and `\u2028` raw.
_RESPELT_KEYS = ["A1", "a/b", "caf\u00e9", "k", "x\u2028y"]
_RESPELLINGS = [("A", "\\u0041"), ("/", "\\/"), ("\\u00e9", "\u00e9"),
                ("\\u2028", "\u2028")]
#: Text in place of a key's JSON string: no string, an integer past
#: Python's digit limit, two strings, an unterminated string.
_NOT_A_KEY = ["1", "9" * 5001, '"a", "b"', '"a\\"']


@given(technique=st.sampled_from(Technique), edits=st.lists(st.tuples(
    st.sampled_from(["swap", "differ", "level", "respell", "replace"]),
    st.integers(0, 1 << 16), st.integers(0, 1 << 16)), max_size=3))
@settings(max_examples=300, deadline=None)
def test_shape_keeping_edits_read_like_line_by_line(technique, edits):
    """Edits that keep each entry line's head and tail, so that only the
    bulk read's own checks tell the text from `plan`'s: two lines' keys
    swapped, a captioner line given another line's key, a level digit set
    to 0-9, a key respelt or its JSON string replaced. The same manifest
    or the same error as the line-by-line reader."""
    header, *body, end = write_manifest(plan_dataset(
        _RESPELT_KEYS, TechniquePlan(technique), 4)).split("\n")
    entries = [list(_ENTRY_LINE.fullmatch(line).groups()) for line in body]
    for op, i, j in edits:
        entry, other = entries[i % len(entries)], entries[j % len(entries)]
        if op == "swap":
            entry[0], other[0] = other[0], entry[0]
        elif op == "differ":
            entries[i % len(entries) | 1][0] = other[0]
        elif op == "level":
            entry[2] = f"MB{j % 10}"
        elif op == "respell":
            entry[0] = entry[0].replace(*_RESPELLINGS[j % len(_RESPELLINGS)])
        else:
            entry[0] = _NOT_A_KEY[j % len(_NOT_A_KEY)]
    text = "\n".join([header, *(
        f'{{"sample_key": {key}, "stage": "{stage}", "level": "{level}"}}'
        for key, stage, level in entries), end])
    assert (_outcome(read_manifest, text)
            == _outcome(read_manifest_by_line, text))


def test_bulk_read_peaks_no_higher_than_the_line_reader(monkeypatch):
    """The bulk read drops its line list before it writes the grid back,
    so its tracemalloc peak on a 20 000-key Cap-Aug manifest is no higher
    than the line reader's on the same text."""
    keys = [f"COCO_train2014_{i:012d}" for i in range(20_000)]
    manifest = plan_dataset(keys, technique_plan("Cap-Aug"), 3)
    text = write_manifest(manifest)
    peaks = []
    for name, stub in (("scanstring", _no_scanstring),
                       ("_sliced_grid", lambda *args: None)):
        with monkeypatch.context() as patch:
            patch.setattr(schedule_mod, name, stub)
            tracemalloc.start()
            try:
                got = read_manifest(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert got == manifest
    bulk, by_line = peaks
    assert bulk <= by_line


def write_manifest_by_line(manifest: AugmentationManifest) -> str:
    """The reference writer: `json.dumps` of the header object, then of
    each entry's record, one per line."""
    header = {"seed": manifest.seed, "technique": manifest.plan.name.value}
    for stage in Stage:
        header[f"{stage.value}_schedule"] = list(
            manifest.plan.schedule_for(stage).probs)
    records = [header] + [{"sample_key": entry.sample_key,
                           "stage": entry.stage.value,
                           "level": entry.level.name}
                          for entry in manifest.entries]
    return "".join(json.dumps(record) + "\n" for record in records)


#: Keys of the characters that JSON escapes or that `json.dumps` writes
#: as `\u` escapes: quotes, backslashes, control characters, non-ASCII
#: (a surrogate pair among them) and U+2028; no keys at all included.
_WRITTEN_KEYS = st.lists(
    st.text(st.sampled_from('ab"\\\x00\x1f\t\n\r\x7f\u00e9\u732b\u2028'
                            '\U0001f600'), max_size=6),
    max_size=12, unique=True)


@given(keys=_WRITTEN_KEYS, technique=st.sampled_from(Technique),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_planned_manifests_written_like_json_dumps(keys, technique, seed):
    manifest = plan_dataset(keys, TechniquePlan(technique), seed)
    text = write_manifest(manifest)
    assert text == write_manifest_by_line(manifest)
    assert read_manifest(text) == manifest


@given(keys=_WRITTEN_KEYS.filter(lambda keys: len(keys) > 1),
       technique=st.sampled_from(Technique), data=st.data())
@settings(max_examples=200, deadline=None)
def test_read_manifests_written_like_json_dumps(keys, technique, data):
    """Bodies out of `plan_dataset`'s layout, each line `json.dumps` of
    its record, are rejected, naming their first line out of it: lines
    shuffled, one stage's lines only, each key's captioner line given the
    next key's, two keys out of order, or a key given twice."""
    manifest = plan_dataset(keys, TechniquePlan(technique), 13)
    lines = write_manifest(manifest).split("\n")
    header, body = lines[0], lines[1:-1]
    pairs = [body[i:i + 2] for i in range(0, len(body), 2)]
    at = data.draw(st.integers(0, len(pairs) - 2))
    edit = data.draw(st.sampled_from(["shuffle", "detector-only",
                                      "captioner-only", "two-keys",
                                      "unsorted", "repeated"]))
    if edit == "shuffle":
        body = data.draw(st.permutations(body))
    elif edit.endswith("-only"):
        body = body[edit == "captioner-only"::2]
    elif edit == "two-keys":
        body[1::2] = body[3::2] + body[1:2]
    elif edit == "unsorted":
        pairs[at:at + 2] = pairs[at + 1], pairs[at]
        body = sum(pairs, [])
    else:
        pairs.insert(at + 1, pairs[at])
        body = sum(pairs, [])
    text = "\n".join([header, *body]) + "\n"
    got = _outcome(read_manifest, text)
    assert got == _outcome(read_manifest_by_line, text)
    if body == lines[1:-1]:  # a shuffle that moved no line
        assert got == manifest
        return
    line = {"shuffle": "", "detector-only": 3, "captioner-only": 2,
            "two-keys": 3}.get(edit, 2 * at + 4)
    assert got.startswith(f"ValueError: bad manifest entry on line {line}")
    assert "is out of the layout" in got


@given(technique=st.sampled_from(Technique), data=st.data())
@settings(max_examples=100, deadline=None)
def test_levels_without_mass_named_like_line_by_line(technique, data):
    """Entries moved to levels their stage's schedule gives no mass: the
    first such line is named, as the line-by-line reader names it."""
    plan = TechniquePlan(technique)
    lines = write_manifest(plan_dataset(
        [f"k{i:02d}" for i in range(12)], plan, 6)).split("\n")
    for at in data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=3)):
        level = data.draw(st.sampled_from(BlurLevel))
        lines[at] = re.sub(r'"MB\d"', f'"{level.name}"', lines[at])
    text = "\n".join(lines)
    got = _outcome(read_manifest, text)
    assert got == _outcome(read_manifest_by_line, text)
    if not isinstance(got, AugmentationManifest):
        assert re.match(r"ValueError: bad manifest entry on line \d+: \w+ "
                        r"MB[1-3] of key 'k\d\d' is out of the layout", got)


def test_planned_manifests_encode_each_key_once(monkeypatch):
    """A manifest of n keys is written with n key encodings, one per key."""
    encoded = []

    def counting(key):
        encoded.append(key)
        return encode_basestring_ascii(key)

    monkeypatch.setattr(schedule_mod, "encode_basestring_ascii", counting)
    keys = ["{", "b{1}", '"', "\\", 'q"\\{', "caf\u00e9", "\u732b",
            "\u2028", "tab\there", "\x7f", " "]
    for technique in Technique:
        manifest = plan_dataset(keys, TechniquePlan(technique), 9)
        encoded.clear()
        assert write_manifest(manifest) == write_manifest_by_line(manifest)
        assert sorted(encoded) == sorted(keys)


def read_rows_whole(text: str, header: list[str]) -> list[list[str]]:
    """The reference CSV reader: every row read before any check, as
    `read_csv` read before it returned columns."""
    lines = io.StringIO(text).readlines()
    metadata = next((i for i, line in enumerate(lines) if line.rstrip("\r\n")
                     and not line.startswith("#")), len(lines))
    reader = csv.reader(lines[metadata:])
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise ValueError(
            f"bad CSV on line {metadata + reader.line_num}: {exc}") from None
    if not rows or rows[0] != header:
        raise ValueError(f"expected header {','.join(header)!r}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"bad row {row!r}")
    return rows[1:]


def feature_counts_by_row(document: bytes):
    """The reference feature-count parser: one row at a time, each checked
    for a count of ASCII digits (a leading `-` makes it negative), a known
    level, a count >= 0 and an (image, level) pair not seen before."""
    rows, seen = [], set()
    for image_id, level_token, count_token in read_rows_whole(
            decode_text(document), ["image_id", "level", "count"]):
        digits = count_token[1:] if count_token[:1] == "-" else count_token
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            count = int(count_token)
        except ValueError:
            raise ValueError(f"non-integer count {count_token!r}") from None
        if level_token not in BlurLevel.__members__:
            raise ValueError(f"unknown blur level {level_token!r}")
        level = BlurLevel[level_token]
        if count < 0:
            raise ValueError(f"negative feature count for {image_id}")
        if (image_id, level) in seen:
            raise ValueError(f"duplicate feature count for image {image_id!r} "
                             f"at {level.name}")
        seen.add((image_id, level))
        rows.append((image_id, level, count))
    return feature_counts(rows)


def blur_flags_by_row(document: bytes) -> dict[str, BlurFlag]:
    """The reference blur-flag parser: one row at a time."""
    flags = {}
    for image_id, flag_token in read_rows_whole(decode_text(document),
                                                ["image_id", "flag"]):
        if flag_token not in {flag.value for flag in BlurFlag}:
            raise ValueError(f"unknown blur flag {flag_token!r}")
        if image_id in flags:
            raise ValueError(f"duplicate flag for image {image_id!r}")
        flags[image_id] = BlurFlag(flag_token)
    return flags


#: Few ids, so that rows often repeat an (image, level) pair or an image's
#: flag, and tokens close to valid ones that a field edit puts in a row.
_TABLE_IDS = st.sampled_from(["a", "b", "7", "a,b", '"q"', "#c", " a", ""])
_FEATURE_ROW = st.tuples(_TABLE_IDS,
                         st.sampled_from([level.name for level in BlurLevel]),
                         st.integers(0, 120).map(str))
_FEATURE_FIELD = st.one_of(
    st.tuples(st.just(1), st.sampled_from(["MB4", "mb1", "MB0 ", ""])),
    st.tuples(st.just(2), st.sampled_from([
        "-1", "-12", "-0", "-", "--2", "007", "1_000", " 7", "7 ", "+7",
        "\u0663", "\uff17", "7.0", "x", ""])))
_FLAG_ROW = st.tuples(_TABLE_IDS, st.sampled_from([f.value for f in BlurFlag]))
_FLAG_FIELD = st.tuples(st.just(1), st.sampled_from(
    ["With_blur", "no_blur ", "blur", ""]))
_ROW_EDIT = st.tuples(
    st.sampled_from(["comment", "blank", "crlf", "short", "long"]),
    st.integers(0, 1 << 16))


def table_document(header: list[str], rows, field_edits, row_edits,
                   edits) -> bytes:
    """`rows` under `header` as `write_csv` writes them, a field of some
    rows replaced, then a `#` or blank line inserted, a line ended in CRLF,
    a field cut off or added, and a few byte edits."""
    rows = [list(row) for row in rows]
    for where, (column, token) in field_edits:
        if rows:
            rows[where % len(rows)][column] = token
    lines = write_csv(header, rows).split("\n")
    for op, where in row_edits:
        i = where % len(lines)
        if op in ("comment", "blank"):
            lines.insert(i, "# note" if op == "comment" else "")
        elif op == "crlf":
            lines[i] += "\r"
        elif op == "short":
            lines[i] = lines[i].rpartition(",")[0]
        else:
            lines[i] += ",9"
    return mutate("\n".join(lines).encode(), edits)


_FIELD_EDITS = st.integers(0, 1 << 16)
_TABLE_EDITS = dict(row_edits=st.lists(_ROW_EDIT, max_size=2),
                    edits=st.lists(_EDIT, max_size=1),
                    chunk=st.sampled_from([1, 2, 3, 256]))


@given(rows=st.lists(_FEATURE_ROW, max_size=12),
       field_edits=st.lists(st.tuples(_FIELD_EDITS, _FEATURE_FIELD),
                            max_size=2), **_TABLE_EDITS)
@settings(max_examples=400, deadline=None)
def test_feature_counts_parse_like_row_by_row(rows, field_edits, row_edits,
                                              edits, chunk):
    """The same counts or the same error, that of the first bad row."""
    document = table_document(["image_id", "level", "count"], rows,
                              field_edits, row_edits, edits)
    with mock.patch.object(ingest_mod, "_CSV_CHUNK_ROWS", chunk):
        got = _outcome(parse_feature_counts, document)
    assert got == _outcome(feature_counts_by_row, document)


@given(rows=st.lists(_FLAG_ROW, max_size=12),
       field_edits=st.lists(st.tuples(_FIELD_EDITS, _FLAG_FIELD), max_size=2),
       **_TABLE_EDITS)
@settings(max_examples=400, deadline=None)
def test_blur_flags_parse_like_row_by_row(rows, field_edits, row_edits, edits,
                                          chunk):
    """The same flags, in the same order, or the same error."""
    document = table_document(["image_id", "flag"], rows, field_edits,
                              row_edits, edits)
    with mock.patch.object(ingest_mod, "_CSV_CHUNK_ROWS", chunk):
        got = _outcome(parse_blur_flags, document)
    want = _outcome(blur_flags_by_row, document)
    assert got == want
    if isinstance(got, dict):
        assert list(got) == list(want)


#: A feature-count table of over three read chunks (1 000 rows).
_LARGE_FEATURES = write_csv(["image_id", "level", "count"], [
    [f"COCO_{i:06d}", level.name, (5 * i) % 40 + 9 - 2 * level]
    for i in range(250) for level in BlurLevel]).encode()


@given(where=st.integers(1, 1000),
       edits=st.lists(_EDIT, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_bad_row_in_a_later_chunk_named(where, edits):
    """At the real chunk size, a row mutated in any chunk gives the error
    the row-by-row parser gives."""
    assert ingest_mod._CSV_CHUNK_ROWS == 256
    lines = _LARGE_FEATURES.split(b"\n")
    lines[where] = mutate(lines[where], edits)
    document = b"\n".join(lines)
    assert (_outcome(parse_feature_counts, document)
            == _outcome(feature_counts_by_row, document))


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
