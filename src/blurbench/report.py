"""Degradation tables and region-feature histograms.

Scores are carried at full precision and rounded to one decimal only when
rendered. Degradation deltas (baseline MB0 score minus blurred score) are
computed on those rendered values in exact integer tenths, with no float
in between, so the delta of any two finite scores is exact to its last
digit. A score table comes as `{technique: {column: score}}`, whose
columns are every `BlurLevel` and, for the MB0 score of a flag subset, any
`BlurFlag`. Deltas come as `{technique: {level: tenths}}` and histograms as
`{level: {bin index: images}}`, in level and bin order; the bin width is
the caller's setting, not a part of the histogram.
"""

from __future__ import annotations

import math
from collections import Counter

from .imaging import BlurLevel
from .ingest import (FLAG_BY_VALUE, BlurFlag, FeatureCounts, parse_level,
                     read_csv, write_csv)
from .schedule import Technique

FORMATS = ("markdown", "csv")
#: Header of the scores CSV that `score` writes and `report` reads.
SCORES_HEADER = ["technique", "level", "score"]
#: A score table, `{technique: {column: score}}`
Scores = dict[str, dict[BlurLevel | BlurFlag, float]]
#: Markdown cell escapes, so that no pipe or line break ends a cell or a row
_CELL = str.maketrans({"\\": "\\\\", "|": "\\|", "\r": "<br>", "\n": "<br>"})

#: Markdown heading of each flag subset's column: `with_blur` -> `With blur`.
_HEADING = {f: f.value.replace("_", " ").capitalize() for f in BlurFlag}
#: Scores CSV level token of each column: level names, then flag values.
_TOKEN = {**{l: l.name for l in BlurLevel}, **{f: f.value for f in BlurFlag}}


def _tenths(value: float) -> int:
    """Integer tenths of the value as rendered at one decimal, read exactly."""
    return int(f"{value:.1f}".replace(".", ""))


def _fmt(value: float) -> str:
    return f"{value:.1f}"


def _fmt_tenths(tenths: int) -> str:
    """Integer tenths as one-decimal text, every digit exact."""
    whole, tenth = divmod(abs(tenths), 10)
    return f"{'-' if tenths < 0 else ''}{whole}.{tenth}"


def degradation_deltas(table: Scores) -> dict[str, dict[BlurLevel, int]]:
    """MB0 score minus per-level score, in integer tenths of rendered values."""
    deltas = {}
    for technique, scores in table.items():
        base = _tenths(scores[BlurLevel.MB0])
        deltas[technique] = {
            level: base - _tenths(scores[level]) for level in BlurLevel}
    return deltas


def degradation_warnings(table: Scores) -> list[str]:
    """Rows where the score rises with blur intensity (suspicious, not fatal)."""
    warnings = []
    for technique, scores in table.items():
        for prev, cur in zip(BlurLevel, list(BlurLevel)[1:]):
            if scores[cur] > scores[prev]:
                warnings.append(
                    f"{technique}: score rises {prev.name}->{cur.name} "
                    f"({_fmt(scores[prev])} -> {_fmt(scores[cur])})")
    return warnings


def check_bin_width(bin_width: int) -> int:
    """`bin_width` itself if it is at least 1; ValueError otherwise."""
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    return bin_width


def build_histograms(features: FeatureCounts,
                     bin_width: int) -> dict[BlurLevel, dict[int, int]]:
    """Images per bin of each level present; bin index = count // bin_width."""
    check_bin_width(bin_width)
    tally = Counter(zip(features.levels,
                        [count // bin_width for count in features.counts]))
    histograms: dict[BlurLevel, dict[int, int]] = {}
    for (level, index), images in sorted(tally.items()):
        histograms.setdefault(BlurLevel(level), {})[index] = images
    return histograms


# ---------------------------------------------------------------------------
# Scores CSV (cmd_score output / cmd_report input)
# ---------------------------------------------------------------------------

def parse_scores_csv(text: str) -> Scores:
    """Read `technique,level,score` rows into a score table.

    The text is read by `ingest.read_csv`. A level may also be a `BlurFlag`
    value, for the MB0 score of that flag subset; a score is ASCII text,
    no `_` or outer whitespace, that `float` reads as a finite number.
    Known techniques come out in canonical order, others as they appear.
    """
    table: Scores = {}
    for raw in map(list, zip(*read_csv(text, SCORES_HEADER))):
        technique, level_token, score_token = raw
        try:  # float() alone also reads `1_0`, ` 9` and `٨`
            if (not score_token.isascii() or "_" in score_token
                    or score_token != score_token.strip()):
                raise ValueError
            score = float(score_token)
        except ValueError:
            raise ValueError(f"bad score {score_token!r}") from None
        if not math.isfinite(score):
            raise ValueError(f"non-finite score in row {raw!r}")
        scores = table.setdefault(technique, {})
        column = FLAG_BY_VALUE.get(level_token) or parse_level(level_token)
        if column in scores:
            raise ValueError(
                f"duplicate {level_token} score for {technique!r}"
                if isinstance(column, BlurFlag) else
                f"duplicate score for {technique!r} at {column.name}")
        scores[column] = score

    if not table:
        raise ValueError("no score rows")
    rank = {t.value: i for i, t in enumerate(Technique)}
    ordered = sorted(table, key=lambda t: rank.get(t, len(rank)))
    for technique in ordered:
        missing = [l.name for l in BlurLevel if l not in table[technique]]
        if missing:
            raise ValueError(f"row {technique!r} lacks levels: {missing}")
    return {technique: table[technique] for technique in ordered}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def check_format(format: str) -> str:
    """`format` itself if it is one of FORMATS; ValueError otherwise."""
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    return format


def _render(header: list[str], rows: list[list], format: str) -> str:
    """One table as markdown, or as CSV through `ingest.write_csv`."""
    if check_format(format) == "csv":
        return write_csv(header, rows)
    cells = [[str(c).replace("\r\n", "\n").translate(_CELL) for c in line]
             for line in [header, ["---"] * len(header), *rows]]
    return "".join("| " + " | ".join(line) + " |\n" for line in cells)


def render_score_table(table: Scores, format: str) -> str:
    if format == "csv":
        return _render(SCORES_HEADER, [
            [t, token, _fmt(scores[column])] for t, scores in table.items()
            for column, token in _TOKEN.items() if column in scores], format)
    flags = (list(BlurFlag) if any(f in scores for scores in table.values()
                                   for f in BlurFlag) else [])
    header = ["Training approach", *(l.name for l in BlurLevel),
              *(_HEADING[f] for f in flags)]
    rows = [[t, *(_fmt(scores[l]) for l in BlurLevel),
             *(_fmt(scores[f]) if f in scores else "" for f in flags)]
            for t, scores in table.items()]
    return _render(header, rows, format)


def render_deltas(deltas: dict[str, dict[BlurLevel, int]],
                  format: str) -> str:
    if format == "csv":
        rows = [[t, l.name, _fmt_tenths(d)] for t, by_level in deltas.items()
                for l, d in by_level.items()]
        return _render(["technique", "level", "delta"], rows, format)
    return _render(["Training approach", *(l.name for l in BlurLevel)],
                   [[t, *map(_fmt_tenths, by_level.values())]
                    for t, by_level in deltas.items()], format)


def render_subset_table(table: Scores, format: str) -> str:
    """One column per flag subset, empty where a row lacks that subset;
    every row must carry at least one of them."""
    incomplete = [t for t, s in table.items() if not any(f in s for f in BlurFlag)]
    if incomplete:
        raise ValueError(f"rows without subset scores: {incomplete}")
    header = (["technique", *(f.value for f in BlurFlag)] if format == "csv"
              else ["Training approach", *_HEADING.values()])
    return _render(header, [
        [t, *(_fmt(scores[f]) if f in scores else "" for f in BlurFlag)]
        for t, scores in table.items()], format)


def render_histograms(level: BlurLevel, bins: dict[int, int], bin_width: int) -> str:
    return _render(
        ["level", "bin_width", "bin_index", "bin_start", "bin_end", "image_count"],
        [[level.name, bin_width, i, i * bin_width, (i + 1) * bin_width, images]
         for i, images in sorted(bins.items())], "csv")
