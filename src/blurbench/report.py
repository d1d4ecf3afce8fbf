"""Degradation tables and region-feature histograms.

Scores are carried at full precision and rounded to one decimal only when
rendered. Degradation deltas (baseline MB0 score minus blurred score) are
computed on those rendered one-decimal values, in exact tenths, so the
published-style headline numbers come out exactly rather than off by a
float ulp.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from decimal import Decimal

from .imaging import BlurLevel
from .ingest import FeatureCountRecord, ParseError
from .schedule import Technique

#: Extra score-row labels for the MB0 subsets of a flag-annotated split.
SUBSET_LABELS = ("with_blur", "no_blur")

FORMATS = ("markdown", "csv")


@dataclass
class ScoreRow:
    technique: str
    scores: dict[BlurLevel, float]
    with_blur: float | None = None
    no_blur: float | None = None


@dataclass
class ScoreTable:
    rows: list[ScoreRow] = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            missing = [l.name for l in BlurLevel if l not in row.scores]
            if missing:
                raise ValueError(
                    f"row {row.technique!r} lacks levels: {missing}")

    def has_subset_columns(self) -> bool:
        return any(r.with_blur is not None or r.no_blur is not None
                   for r in self.rows)


@dataclass(frozen=True)
class DegradationDelta:
    technique: str
    level: BlurLevel
    delta: float


@dataclass(frozen=True)
class FeatureHistogram:
    level: BlurLevel
    bin_width: int
    bins: dict[int, int]


def _tenths(value: float) -> int:
    """Integer tenths of the value as rendered at one decimal."""
    return int(Decimal(f"{value:.1f}") * 10)


def _fmt(value: float) -> str:
    return f"{value:.1f}"


def degradation_deltas(table: ScoreTable) -> list[DegradationDelta]:
    """MB0 score minus per-level score, on one-decimal rendered values."""
    deltas = []
    for row in table.rows:
        base = _tenths(row.scores[BlurLevel.MB0])
        for level in BlurLevel:
            delta = (base - _tenths(row.scores[level])) / 10.0
            deltas.append(DegradationDelta(row.technique, level, delta))
    return deltas


def degradation_warnings(table: ScoreTable) -> list[str]:
    """Rows where the score rises with blur intensity (suspicious, not fatal)."""
    warnings = []
    for row in table.rows:
        for prev, cur in zip(BlurLevel, list(BlurLevel)[1:]):
            if row.scores[cur] > row.scores[prev]:
                warnings.append(
                    f"{row.technique}: score rises {prev.name}->{cur.name} "
                    f"({_fmt(row.scores[prev])} -> {_fmt(row.scores[cur])})")
    return warnings


def build_histograms(records: list[FeatureCountRecord],
                     bin_width: int = 10) -> list[FeatureHistogram]:
    """One histogram per level present; bin index = count // bin_width."""
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    per_level: dict[BlurLevel, dict[int, int]] = {}
    for record in records:
        bins = per_level.setdefault(record.level, {})
        index = record.count // bin_width
        bins[index] = bins.get(index, 0) + 1
    return [FeatureHistogram(level, bin_width, per_level[level])
            for level in sorted(per_level)]


# ---------------------------------------------------------------------------
# Scores CSV (cmd_score output / cmd_report input)
# ---------------------------------------------------------------------------

def parse_scores_csv(text: str) -> ScoreTable:
    """Read `technique,level,score` rows into a table.

    Lines starting with '#' are metadata comments. Levels may also be
    `with_blur` / `no_blur` for MB0 subset scores. Known techniques come
    out in canonical order, everything else in first-appearance order.
    """
    numbered = [(number, l) for number, l in enumerate(text.splitlines(), 1)
                if l.strip() and not l.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(l for _, l in numbered)))
    try:
        rows = list(reader)
    except csv.Error as exc:
        number = numbered[reader.line_num - 1][0]
        raise ParseError(f"bad CSV on line {number}: {exc}") from None
    if not rows or rows[0] != ["technique", "level", "score"]:
        raise ParseError("expected header 'technique,level,score'")
    by_technique: dict[str, ScoreRow] = {}
    for raw in rows[1:]:
        if len(raw) != 3:
            raise ParseError(f"bad scores row {raw!r}")
        technique, level_token, score_token = raw
        try:
            score = float(score_token)
        except ValueError:
            raise ParseError(f"bad score {score_token!r}") from None
        if not math.isfinite(score):
            raise ParseError(f"non-finite score in row {raw!r}")
        row = by_technique.setdefault(technique, ScoreRow(technique, {}))
        if level_token in SUBSET_LABELS:
            if getattr(row, level_token) is not None:
                raise ParseError(
                    f"duplicate {level_token} score for {technique!r}")
            setattr(row, level_token, score)
            continue
        try:
            level = BlurLevel[level_token]
        except KeyError:
            raise ParseError(f"unknown level {level_token!r}") from None
        if level in row.scores:
            raise ParseError(
                f"duplicate score for {technique!r} at {level.name}")
        row.scores[level] = score

    canonical = [t.value for t in Technique]
    ordered = sorted(
        by_technique.values(),
        key=lambda r: (canonical.index(r.technique)
                       if r.technique in canonical else len(canonical)),
    )
    try:
        return ScoreTable(ordered)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def check_format(format: str) -> str:
    """`format` itself if it is one of FORMATS; ValueError otherwise."""
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    return format


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join([" --- "] * len(header)) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render_score_table(table: ScoreTable, format: str = "markdown") -> str:
    check_format(format)
    subset = table.has_subset_columns()
    if format == "csv":
        lines = ["technique,level,score"]
        for row in table.rows:
            for level in BlurLevel:
                lines.append(f"{row.technique},{level.name},{_fmt(row.scores[level])}")
            if subset:
                for label in SUBSET_LABELS:
                    value = getattr(row, label)
                    if value is not None:
                        lines.append(f"{row.technique},{label},{_fmt(value)}")
        return "\n".join(lines) + "\n"
    header = ["Training approach"] + [l.name for l in BlurLevel]
    if subset:
        header += ["With blur", "No blur"]
    body = []
    for row in table.rows:
        cells = [row.technique] + [_fmt(row.scores[l]) for l in BlurLevel]
        if subset:
            cells += [_fmt(row.with_blur) if row.with_blur is not None else "",
                      _fmt(row.no_blur) if row.no_blur is not None else ""]
        body.append(cells)
    return _markdown_table(header, body)


def render_deltas(deltas: list[DegradationDelta],
                  format: str = "markdown") -> str:
    check_format(format)
    if format == "csv":
        lines = ["technique,level,delta"]
        lines += [f"{d.technique},{d.level.name},{_fmt(d.delta)}" for d in deltas]
        return "\n".join(lines) + "\n"
    by_technique: dict[str, dict[BlurLevel, float]] = {}
    order = []
    for d in deltas:
        if d.technique not in by_technique:
            order.append(d.technique)
        by_technique.setdefault(d.technique, {})[d.level] = d.delta
    header = ["Training approach"] + [l.name for l in BlurLevel]
    body = [[t] + [_fmt(by_technique[t].get(l, 0.0)) for l in BlurLevel]
            for t in order]
    return _markdown_table(header, body)


def render_subset_table(table: ScoreTable, format: str = "markdown") -> str:
    """With-blur / no-blur columns only; every row must carry both."""
    check_format(format)
    incomplete = [r.technique for r in table.rows
                  if r.with_blur is None or r.no_blur is None]
    if incomplete:
        raise ValueError(f"rows without subset scores: {incomplete}")
    if format == "csv":
        lines = ["technique,with_blur,no_blur"]
        lines += [f"{r.technique},{_fmt(r.with_blur)},{_fmt(r.no_blur)}"
                  for r in table.rows]
        return "\n".join(lines) + "\n"
    return _markdown_table(
        ["Training approach", "With blur", "No blur"],
        [[r.technique, _fmt(r.with_blur), _fmt(r.no_blur)] for r in table.rows])


def render_histograms(histograms: list[FeatureHistogram],
                      format: str = "csv") -> str:
    check_format(format)
    rows = []
    for hist in histograms:
        for index in sorted(hist.bins):
            start = index * hist.bin_width
            end = start + hist.bin_width
            rows.append((hist.level.name, hist.bin_width, index, start, end,
                         hist.bins[index]))
    if format == "csv":
        lines = ["level,bin_width,bin_index,bin_start,bin_end,image_count"]
        lines += [",".join(str(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    return _markdown_table(
        ["Level", "Bin", "Images"],
        [[level, f"[{start}, {end})", str(count)]
         for level, _, _, start, end, count in rows])

