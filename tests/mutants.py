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
    Mutant("src/blurbench/imaging.py", "np.floor_divide(sums + taps // 2, taps,",
           "np.floor_divide(sums, taps,",
           "a blurred sample is the window mean rounded half up"),
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
    Mutant("src/blurbench/report.py",
           "[t, token, _fmt_tenths(_tenths(scores[column]))]",
           '[t, token, f"{scores[column]:.1f}"]',
           "a score cell is the tenths its delta uses, never -0.0"),
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
