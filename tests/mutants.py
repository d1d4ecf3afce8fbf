"""Mutation gate: every mutant in `MUTANTS` must fail the tier-1 tests.

Usage: ``python tests/mutants.py [N ...]`` runs every mutant, or only the
mutants numbered N (1-based, as printed). For each one the script copies
what tier 1 reads (``src/``, ``tests/``, ``pyproject.toml`` and
``README.md``) into a fresh temporary directory, replaces the mutant's old
text, which must occur exactly once in its file, by its new text, and runs
``python -m pytest -x -q tests`` there, less ``tests/test_mutants.py``:
that test fails on any mutated copy, since it checks that each old text
is in place. A mutant is killed when a test fails or the suite does not
collect; one whose run passes survives. The script prints one line per
mutant (a killed one with the first test that failed) and exits 1 naming
every survivor, 0 if none. Standard library only.

A mutant leaves the table only when the code it mutates is deleted. A
mutant that no test could kill, because it changes no output (an
equivalent mutant), is not added.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: What tier 1 reads: a copy without README.md fails a test.
COPIED = ("src", "tests", "pyproject.toml", "README.md")
#: The test of this table, which any mutant fails.
TABLE_TEST = "tests/test_mutants.py"
#: A run that takes longer than this counts as killed (a hang).
TIMEOUT_S = 600

#: `path` (from the repository root), exact `old` text, its `new` text,
#: and the rule the mutant breaks.
Mutant = namedtuple("Mutant", "path old new breaks")

MUTANTS = (
    # imaging
    Mutant("src/blurbench/imaging.py", "sums += taps // 2", "sums += 0",
           "a blurred sample is the window mean rounded half up"),
    Mutant("src/blurbench/imaging.py", "2 * width * bound", "width * bound",
           "a doubled window run is added in a dtype that holds its sums"),
    Mutant("src/blurbench/imaging.py", "(offset + width) * bound",
           "offset * bound",
           "a window total is added in a dtype that holds its sums"),
    Mutant("src/blurbench/imaging.py", "taps * 255 + taps // 2",
           "taps * 255", "the rounding term is added with headroom for it"),
    Mutant("src/blurbench/imaging.py",
           "band[top:end, :ax][:, ::-1] = part[:, 1:ax + 1]",
           "band[top:end, :ax][:, ::-1] = part[:, 0:ax]",
           "the left border mirrors without repeating the edge pixel"),
    Mutant("src/blurbench/imaging.py", "if maxval != 255:", "if maxval > 255:",
           "a raster's maxval is exactly 255"),
    # cider
    Mutant("src/blurbench/cider.py", "self._unseen = math.log(len(split))",
           "self._unseen = 0.0",
           "an n-gram the split lacks weighs ln N"),
    Mutant("src/blurbench/cider.py", "np.minimum(cand_weight, ref_weight)",
           "cand_weight", "CIDEr-D clips candidate counts at the reference's"),
    Mutant("src/blurbench/cider.py", "return (text.lower().encode(",
           "return (text.encode(", "a caption is lowercased before tokenizing"),
    Mutant("src/blurbench/cider.py", "return math.fsum(scores) / len(scores)",
           "return sum(scores) / len(scores)",
           "a corpus score is the correctly rounded sum over its images"),
    Mutant("src/blurbench/cider.py", "np.int32 if bound < _INT32_LIMIT",
           "np.int32 if bound <= _INT32_LIMIT",
           "an array whose bound reaches 2**31 is int64"),
    Mutant("src/blurbench/cider.py", "text.astype(row) * width",
           "text * width", "a product is taken in the type that holds its bound"),
    Mutant("src/blurbench/cider.py", "np.where(ids >= 0, self._idf",
           "np.where(ids > 0, self._idf",
           "an n-gram at index 0 of the table takes its own idf"),
    Mutant("src/blurbench/cider.py", "similarity *= penalty",
           "similarity *= 1.0",
           "a similarity is scaled by the Gaussian length penalty"),
    Mutant("src/blurbench/cider.py", "where=nonzero", "where=True",
           "a zero norm gives similarity 0, with no 0 / 0"),
    Mutant("src/blurbench/cider.py", "len(table) - 1)", "len(table))",
           "a key past a table's last entry is absent, not out of range"),
    Mutant("src/blurbench/cider.py", "if not len(table):", "if False:",
           "an empty table holds no key"),
    Mutant("src/blurbench/cider.py", "local = order[2]", "local = order[1]",
           "an order's idf is looked up by its n-gram keys"),
    Mutant("src/blurbench/cider.py",
           "(tokenize(r) for i in block for r in idf.split[i])",
           "(tokenize(r) for i in block[::-1] for r in idf.split[i])",
           "a block scores each candidate against its own image's references"),
    Mutant("src/blurbench/cider.py", "keep = left[start] >= n",
           "keep = left[start] > n",
           "an n-gram may end on a text's last token"),
    # schedule
    Mutant("src/blurbench/schedule.py", "_SUM_TOLERANCE = 1e-9",
           "_SUM_TOLERANCE = 1e-6",
           "a schedule's probabilities sum to 1 within 1e-9"),
    Mutant("src/blurbench/schedule.py",
           "return not (any(map(ge, runs, runs[1:]))",
           "return not (False",
           "a manifest's keys ascend strictly, or it takes the line reader"),
    Mutant("src/blurbench/schedule.py", "< 2 ** 64:  # its 8 bytes",
           "<= 2 ** 64:  # its 8 bytes", "a seed is below 2**64"),
    Mutant("src/blurbench/schedule.py",
           '.replace("_", "").replace(" ", "")', '.replace("_", "")',
           "a space joins a technique's words as - and _ do"),
    Mutant("src/blurbench/schedule.py", 'person=stage.encode("utf-8")',
           'person=b"stage"', "each stage draws its levels independently"),
    Mutant("src/blurbench/schedule.py", "if any(map(eq, keys, keys[1:])):",
           "if False:", "a manifest's sample keys are distinct"),
    Mutant("src/blurbench/schedule.py", "(bound + 1 << 11)", "(bound << 11)",
           "a draw takes the first level whose bound is at or above it"),
    Mutant("src/blurbench/schedule.py", "if write_manifest(manifest) == text:",
           "if True:", "a bulk-read manifest is the text plan writes"),
    Mutant("src/blurbench/schedule.py", "or level not in massed[stage])", ")",
           "a level without mass is named as the entry out of the layout"),
    Mutant("src/blurbench/schedule.py", "key <= keys[index - width]",
           "key < keys[index - width]",
           "a repeated key is named as the entry out of the layout"),
    # ingest
    Mutant("src/blurbench/ingest.py", 'document.decode("utf-8-sig")',
           'document.decode("utf-8")',
           "a leading byte order mark is not input text"),
    Mutant("src/blurbench/ingest.py",
           "if digits.isascii() and digits.isdigit() else None",
           "if digits.isdigit() else None",
           "a feature count is ASCII digits"),
    Mutant("src/blurbench/ingest.py",
           'or "_" in text or text != text.strip():', 'or "_" in text:',
           "a number has no whitespace around it"),
    Mutant("src/blurbench/__init__.py", "if len(ids) <= 5 else",
           "if len(ids) < 5 else", "an error line lists up to 5 ids whole"),
    # report
    Mutant("src/blurbench/report.py", "{column: _tenths(score)",
           "{column: round(score * 10)",
           "a score cell is the tenths its delta uses, never -0.0"),
    Mutant("src/blurbench/report.py", 'if c in cells else ""',
           'if c in cells else "0.0"',
           "a flag subset a row has no score for is an empty cell"),
    Mutant("src/blurbench/report.py",
           'f"({scores[prev]!r} -> {scores[cur]!r})"',
           'f"({scores[prev]:.1f} -> {scores[cur]:.1f})"',
           "a warning prints the scores it compared as read"),
    Mutant("src/blurbench/report.py", '"|": "\\\\|", ', "",
           "a pipe in a markdown cell is escaped"),
    Mutant("src/blurbench/report.py", "if bin_width < 1:",
           "if bin_width < 0:", "a bin width is at least 1"),
    # cli
    Mutant("src/blurbench/cli.py", "        os.unlink(tmp)\n        raise",
           "        raise", "a failed write leaves no temporary file"),
    Mutant("src/blurbench/cli.py", 'r"(?:^|\\s)#"', 'r"#"',
           "a config comment starts only at a line start or after a blank"),
    Mutant("src/blurbench/cli.py", "check_seed(parse_number(text, int))",
           "check_seed(int(text))",
           "a seed is spelt as a number in the input files"),
    Mutant("src/blurbench/cli.py", "os.environ.get(SEED_ENV_VAR):",
           'os.environ.get(SEED_ENV_VAR, "").strip():',
           "a BLURBENCH_SEED of blanks is bad text, not unset"),
    Mutant("src/blurbench/cli.py", "len(flags.keys() - dataset.keys())",
           "len(dataset.keys() - flags.keys())",
           "score counts the flags for images not in the split"),
)


def _copy(target: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=shutil.ignore_patterns(
                "__pycache__", "*.egg-info", ".hypothesis"))
        else:
            shutil.copy2(source, target / name)


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """(whether the tests failed, the first failing test or a reason)."""
    with tempfile.TemporaryDirectory(prefix="blurbench-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.path}: old text {mutant.old!r} occurs "
                             f"{text.count(mutant.old)} times, not once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        found = subprocess.run(
            [sys.executable, "-c", "import blurbench; print(blurbench.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True)
        if not found.stdout.startswith(str(copy)):
            raise SystemExit(f"the copy's package is not the one imported: "
                             f"{found.stdout or found.stderr}")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                 "no:cacheprovider", f"--ignore={TABLE_TEST}", "tests"],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
    if done.returncode not in (0, 1, 2):  # 1: a test failed, 2: no collection
        raise SystemExit(f"pytest exit {done.returncode}:\n{done.stdout}"
                         f"{done.stderr}")
    failed = [line for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode != 0, (failed[0] if failed
                                  else f"pytest exit {done.returncode}")


def main(argv: list[str]) -> int:
    chosen = [int(n) for n in argv] or range(1, len(MUTANTS) + 1)
    survivors = []
    for number in chosen:
        mutant = MUTANTS[number - 1]
        start = time.monotonic()
        killed, detail = run_mutant(mutant)
        status = "killed" if killed else "SURVIVED"
        print(f"{number:2d} {status} ({time.monotonic() - start:.0f} s) "
              f"{mutant.path}: {mutant.breaks}"
              + (f"\n   {detail}" if killed else ""), flush=True)
        if not killed:
            survivors.append(f"{number} {mutant.path}: {mutant.old!r} -> "
                             f"{mutant.new!r} ({mutant.breaks})")
    if survivors:
        print(f"{len(survivors)} mutant(s) survived:", *survivors, sep="\n")
        return 1
    print(f"all {len(chosen)} mutant(s) killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
