"""Degradation tables, histograms, and rendering."""

import csv
import io
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, Inexact, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blurbench import report
from blurbench.cli import main
from blurbench.imaging import BlurLevel
from blurbench.ingest import BlurFlag, write_csv
from blurbench.report import (
    SCORES_HEADER,
    build_histograms,
    degradation_deltas,
    degradation_warnings,
    parse_scores_csv,
    render_deltas,
    render_histograms,
    render_score_table,
    render_subset_table,
)
from conftest import CSV_READS_NUL, DATA_DIR, feature_counts, feature_rows

LEVELS = list(BlurLevel)
WITH, WITHOUT = BlurFlag.WITH_BLUR, BlurFlag.NO_BLUR


def row(mb0, mb1, mb2, mb3, subsets=None):
    """One technique's scores: `{column: score}`."""
    return {**dict(zip(LEVELS, (mb0, mb1, mb2, mb3))), **(subsets or {})}


COCO_TABLE = {
    "No-Aug": row(117.1, 111.4, 95.0, 48.4),
    "ObjDet-Aug": row(116.6, 114.6, 111.7, 100.2),
    "Cap-Aug": row(116.8, 115.0, 108.8, 85.1),
    "ObjDet-Cap-Aug": row(117.4, 116.0, 113.4, 105.7),
}

VIZWIZ_TABLE = {
    "No-Aug": row(48.8, 47.0, 40.9, 26.4, {WITH: 47.2, WITHOUT: 53.0}),
    "ObjDet-Aug": row(48.9, 48.1, 45.6, 39.5, {WITH: 47.0, WITHOUT: 53.3}),
    "Cap-Aug": row(50.0, 49.2, 46.9, 38.2, {WITH: 49.0, WITHOUT: 53.2}),
    "ObjDet-Cap-Aug": row(50.3, 49.9, 48.1, 43.5, {WITH: 48.9, WITHOUT: 54.1}),
}


def flat_table(names):
    return {n: row(40.0, 30.0, 20.0, 10.0, {WITH: 35.0, WITHOUT: 45.0})
            for n in names}


def scores_text(technique):
    """A scores CSV with one row per level for `technique`, verbatim."""
    return "technique,level,score\n" + "".join(
        f"{technique},MB{k},1.0\n" for k in range(4))


def markdown_cells(line):
    """The cells of one markdown table row, split at unescaped pipes."""
    assert line.startswith("| ") and line.endswith(" |")
    cells, cell, chars = [], "", iter(line[2:-2])
    for char in chars:
        if char == "\\":
            cell += char + next(chars, "")
        elif char == "|":
            cells.append(cell)
            cell = ""
        else:
            cell += char
    return cells + [cell]


class TestDegradationDeltas:
    def test_headline_deltas_exact(self):
        coco = degradation_deltas(COCO_TABLE)
        assert coco["No-Aug"][BlurLevel.MB3] == 687
        assert coco["ObjDet-Cap-Aug"][BlurLevel.MB3] == 117
        vizwiz = degradation_deltas(VIZWIZ_TABLE)
        assert vizwiz["No-Aug"][BlurLevel.MB3] == 224
        assert vizwiz["ObjDet-Cap-Aug"][BlurLevel.MB3] == 68

    def test_mb0_delta_is_zero(self):
        deltas = degradation_deltas(COCO_TABLE)
        assert list(deltas) == list(COCO_TABLE)
        for by_level in deltas.values():
            assert list(by_level) == LEVELS and by_level[BlurLevel.MB0] == 0
            assert all(type(delta) is int for delta in by_level.values())

    def test_flat_row_all_zero(self):
        table = {"X": row(50.0, 50.0, 50.0, 50.0)}
        assert degradation_deltas(table) == {"X": dict.fromkeys(LEVELS, 0)}

    def test_anti_monotone_in_scores(self):
        lower = degradation_deltas({"X": row(100.0, 90.0, 80.0, 40.0)})
        higher = degradation_deltas({"X": row(100.0, 90.0, 80.0, 41.0)})
        assert lower["X"][BlurLevel.MB3] > higher["X"][BlurLevel.MB3]

    def test_deltas_use_rendered_precision(self):
        # raw floats that round to 117.1 and 48.4 give exactly 68.7
        table = {"X": row(117.1049, 111.4, 95.0, 48.3951)}
        assert degradation_deltas(table)["X"][BlurLevel.MB3] == 687

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(-0.04)  # renders as -0.0
    @example(0.05)  # the float just above 0.05 renders as 0.1
    @example(123456789012345678901234567890.1)  # 30 digits
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_tenths_read_the_rendered_digits_exactly(self, value):
        """The oracle is `Decimal` with room for every digit a finite
        float renders with (at most 310), and fails if it rounds."""
        with localcontext() as context:
            context.prec = 400
            context.traps[Inexact] = True
            expected = int(Decimal(f"{value:.1f}") * 10)
        assert report._tenths(value) == expected

    @given(st.lists(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(2**53 / 10 - 4, 2**53 / 10 + 4).flatmap(
            lambda v: st.sampled_from([v, -v])),
        st.sampled_from([1.7e308, -1.7e308, sys.float_info.max,
                         -sys.float_info.max, 5e-324, -0.0])),
        min_size=4, max_size=4), min_size=1, max_size=3))
    @example([[1.7e308, 0.0, 0.0, -1.7e308]])
    @example([[2**53 / 10, 0.05, -2**53 / 10, 5e-324]])
    @settings(max_examples=60, deadline=None)
    def test_report_deltas_are_exact_for_any_finite_scores(self, rows):
        """`report` exits 0, and each delta it writes is the exact decimal
        difference of the MB0 and level scores that `score_table.csv`
        holds."""
        text = "technique,level,score\n" + "".join(
            f"T{k},{level.name},{score!r}\n" for k, scores in enumerate(rows)
            for level, score in zip(LEVELS, scores))
        with tempfile.TemporaryDirectory() as tmp:
            scores_csv, out = Path(tmp, "scores.csv"), Path(tmp, "out")
            scores_csv.write_text(text)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(["--out", str(out), "report", str(scores_csv),
                             str(DATA_DIR / "toy_feature_counts.csv")])
            assert code == 0
            tables = [list(csv.reader((out / name).read_text().splitlines()[2:]))
                      for name in ("score_table.csv", "degradation.csv")]
        rendered = {(t, level): Decimal(value) for t, level, value in tables[0]}
        assert len(tables[1]) == 4 * len(rows)
        with localcontext() as context:
            context.prec = 400
            context.traps[Inexact] = True
            for technique, level, delta in tables[1]:
                assert Decimal(delta) == (rendered[technique, "MB0"]
                                          - rendered[technique, level])

    def test_missing_level_rejected(self):
        """No table without every level reaches the deltas; the error names
        the first such row in table order, after canonical ordering."""
        text = ("technique,level,score\nX,MB0,1.0\nX,MB1,1.0\n"
                "No-Aug,MB0,1.0\nNo-Aug,MB2,1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                "row 'No-Aug' lacks levels: ['MB1', 'MB3']")):
            parse_scores_csv(text)


class TestWarnings:
    def test_monotone_row_is_quiet(self):
        assert degradation_warnings(COCO_TABLE) == []

    def test_rising_score_warns_not_raises(self):
        table = {"X": row(50.0, 52.0, 40.0, 30.0)}
        warnings = degradation_warnings(table)
        assert len(warnings) == 1
        assert "MB0->MB1" in warnings[0]

    def test_scores_printed_as_read(self):
        """A warning shows the two scores it compared, so a rise that
        one decimal rounds away still shows."""
        table = {"X": row(0.6, 0.51, 0.54, 0.1),
                 "Y": row(0.9, 0.1 + 0.2, 0.3, 0.3)}
        assert degradation_warnings(table) == [
            "X: score rises MB1->MB2 (0.51 -> 0.54)"]
        table["Y"][BlurLevel.MB3] = 0.30000000000000004
        assert degradation_warnings(table)[1:] == [
            "Y: score rises MB2->MB3 (0.3 -> 0.30000000000000004)"]


class TestHistograms:
    def test_shared_bin(self):
        records = feature_counts([("a", BlurLevel.MB0, 36),
                                  ("b", BlurLevel.MB0, 36)])
        assert build_histograms(records, bin_width=10) == {BlurLevel.MB0: {3: 2}}

    def test_empty_records(self):
        assert build_histograms(feature_counts([]), bin_width=10) == {}

    def test_zero_bin_width_rejected(self):
        with pytest.raises(ValueError, match="bin_width must be >= 1"):
            build_histograms(feature_counts([]), bin_width=0)

    def test_levels_in_order(self, toy_feature_records):
        hists = build_histograms(toy_feature_records, 10)
        assert list(hists) == LEVELS

    def test_mass_conservation(self, toy_feature_records):
        hists = build_histograms(toy_feature_records, 10)
        for at, bins in hists.items():
            expected = sum(1 for _, level, _
                           in feature_rows(toy_feature_records)
                           if level is at)
            assert sum(bins.values()) == expected

    def test_uniformly_lower_counts_land_in_lower_bins(self, toy_feature_records):
        hists = build_histograms(toy_feature_records, 10)
        assert max(hists[BlurLevel.MB3]) < min(hists[BlurLevel.MB0])

    @given(st.lists(st.tuples(st.sampled_from(LEVELS), st.integers(0, 120)),
                    max_size=60),
           st.integers(1, 25))
    @settings(max_examples=80)
    def test_conservation_property(self, pairs, bin_width):
        records = feature_counts((f"i{k}", level, count)
                                 for k, (level, count) in enumerate(pairs))
        hists = build_histograms(records, bin_width)
        assert sum(sum(bins.values()) for bins in hists.values()) == len(records)
        assert list(hists) == sorted(hists)
        for bins in hists.values():
            assert list(bins) == sorted(bins)
            assert all(count >= 0 for count in bins.values())


def mean_count(records, level):
    """Mean feature count at `level`, read back from the bin-width-1
    histogram, whose bin index is the count itself."""
    bins = build_histograms(records, 1)[level]
    return sum(i * n for i, n in bins.items()) / sum(bins.values())


class TestMeanFeatureCount:
    def test_two_records(self):
        records = feature_counts([("a", BlurLevel.MB0, 10),
                                  ("b", BlurLevel.MB0, 20),
                                  ("a", BlurLevel.MB1, 99)])
        assert mean_count(records, BlurLevel.MB0) == 15.0

    def test_single_record(self):
        records = feature_counts([("a", BlurLevel.MB2, 36)])
        assert mean_count(records, BlurLevel.MB2) == 36.0

    def test_strictly_decreasing_on_fixture(self, toy_feature_records):
        means = [mean_count(toy_feature_records, level) for level in BlurLevel]
        assert all(a > b for a, b in zip(means, means[1:]))


class TestRendering:
    def test_coco_markdown_cells(self):
        text = render_score_table(COCO_TABLE, "markdown")
        assert "| No-Aug | 117.1 | 111.4 | 95.0 | 48.4 |" in text
        assert "| ObjDet-Cap-Aug | 117.4 | 116.0 | 113.4 | 105.7 |" in text
        assert "With blur" not in text

    def test_vizwiz_markdown_has_subset_columns(self):
        text = render_score_table(VIZWIZ_TABLE, "markdown")
        assert "| No-Aug | 48.8 | 47.0 | 40.9 | 26.4 | 47.2 | 53.0 |" in text

    def test_deterministic(self):
        assert render_score_table(VIZWIZ_TABLE, "markdown") == \
            render_score_table(VIZWIZ_TABLE, "markdown")
        bins = build_histograms(
            feature_counts([("a", BlurLevel.MB1, 7)]), 10)[BlurLevel.MB1]
        assert render_histograms(BlurLevel.MB1, bins, 10) == \
            render_histograms(BlurLevel.MB1, bins, 10)

    def test_empty_histograms_header_only(self):
        text = render_histograms(BlurLevel.MB0, {}, 10)
        assert text == "level,bin_width,bin_index,bin_start,bin_end,image_count\n"

    def test_histogram_csv_rows(self):
        text = render_histograms(BlurLevel.MB2, {3: 2, 1: 1}, 10)
        lines = text.splitlines()
        assert lines[1] == "MB2,10,1,10,20,1"  # bins sorted ascending
        assert lines[2] == "MB2,10,3,30,40,2"

    def test_csv_round_trips_through_parser(self):
        text = render_score_table(VIZWIZ_TABLE, "csv")
        table = parse_scores_csv(text)
        assert list(table) == list(VIZWIZ_TABLE)
        assert table["No-Aug"][WITH] == 47.2

    def test_subset_table(self):
        text = render_subset_table(VIZWIZ_TABLE, "markdown")
        assert "| No-Aug | 47.2 | 53.0 |" in text
        with pytest.raises(ValueError, match="without subset scores"):
            render_subset_table(COCO_TABLE, "markdown")

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=6, max_size=6))
    @example([0.01, -0.04, -0.06, -0.0, -0.05, -1e-300])
    def test_score_cell_is_the_tenths_its_delta_uses(self, scores):
        """Every score cell, markdown and CSV, reads as the integer tenths
        its delta is taken from: `f"{v:.1f}"` but that no cell is `-0.0`."""
        table = {"X": row(*scores[:4], {WITH: scores[4], WITHOUT: scores[5]})}
        expected = [report._tenths(v) for v in scores]
        csv_cells = [line.split(",")[2] for line in
                     render_score_table(table, "csv").splitlines()[1:]]
        markdown = [cell.strip() for cell in markdown_cells(
            render_score_table(table, "markdown").splitlines()[2])[1:]]
        subsets = [render_subset_table(table, f).splitlines()[-1]
                   for f in report.FORMATS]
        assert subsets == ["| X | " + " | ".join(markdown[4:]) + " |",
                           "X," + ",".join(csv_cells[4:])]
        for cells in (csv_cells, markdown):
            with localcontext() as context:
                context.prec = 400
                assert [int(Decimal(c) * 10) for c in cells] == expected
            assert "-0.0" not in cells
            assert cells == [{"-0.0": "0.0"}.get(f"{v:.1f}", f"{v:.1f}")
                             for v in scores]

    def test_delta_render(self):
        text = render_deltas(degradation_deltas(COCO_TABLE), "csv")
        assert "No-Aug,MB3,68.7" in text
        assert "ObjDet-Cap-Aug,MB3,11.7" in text
        # every digit of the integer tenths, a very long negative included
        deltas = {"X": dict(zip(LEVELS, (0, -3, 5, -(10**40 + 7))))}
        assert render_deltas(deltas, "csv").splitlines()[1:] == [
            "X,MB0,0.0", "X,MB1,-0.3", "X,MB2,0.5",
            "X,MB3,-1000000000000000000000000000000000000000.7"]
        assert render_deltas(deltas, "markdown").splitlines()[2] == (
            "| X | 0.0 | -0.3 | 0.5 | "
            "-1000000000000000000000000000000000000000.7 |")

    @given(names=st.lists(st.text(), min_size=1, max_size=4, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_markdown_cells_cannot_break_the_table(self, names):
        table = flat_table(names)
        for text in (render_score_table(table, "markdown"),
                     render_deltas(degradation_deltas(table), "markdown"),
                     render_subset_table(table, "markdown")):
            assert "\r" not in text
            lines = text.split("\n")
            assert lines[-1] == "" and len(lines) == 2 + len(names) + 1
            widths = {len(markdown_cells(line)) for line in lines[:-1]}
            assert len(widths) == 1

    @pytest.mark.parametrize("name,cell", [
        ("A|B", "A\\|B"), ("A\nB", "A<br>B"), ("A\r\nB", "A<br>B"),
        ("A\rB", "A<br>B"), ("A\\|B", "A\\\\\\|B")])
    def test_markdown_escapes(self, name, cell):
        text = render_score_table(flat_table([name]), "markdown")
        assert f"\n| {cell} | 40.0 |" in text

    @given(names=st.lists(st.text(), min_size=1, max_size=4, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_csv_gives_back_every_technique_name(self, names):
        text = render_score_table(flat_table(names), "csv")
        if not CSV_READS_NUL and any("\x00" in n for n in names):
            with pytest.raises(ValueError, match="NUL"):
                parse_scores_csv(text)
            return
        assert parse_scores_csv(text) == flat_table(names)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_score_table(COCO_TABLE, "html")


class TestParseScoresCsv:
    def test_comments_and_order(self):
        text = ("# seed=5\n"
                "technique,level,score\n"
                "ObjDet-Cap-Aug,MB0,117.4\n"
                "ObjDet-Cap-Aug,MB1,116.0\n"
                "ObjDet-Cap-Aug,MB2,113.4\n"
                "ObjDet-Cap-Aug,MB3,105.7\n"
                "No-Aug,MB0,117.1\n"
                "No-Aug,MB1,111.4\n"
                "No-Aug,MB2,95.0\n"
                "No-Aug,MB3,48.4\n")
        table = parse_scores_csv(text)
        assert list(table) == ["No-Aug", "ObjDet-Cap-Aug"]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=6, max_size=6))
    @example([-0.0, 5e-324, -2.225073858507201e-308, 1.7e308, -1.7e308, 0.0])
    def test_written_scores_read_back_bit_for_bit(self, scores):
        """Rows written as `score` writes them (float scores, Python `repr`
        through `write_csv`) read back as the same floats, -0.0 included."""
        columns = [*LEVELS, *BlurFlag]
        tokens = [*(level.name for level in LEVELS), *(f.value for f in BlurFlag)]
        rows = [["X", token, v] for token, v in zip(tokens, scores)]
        table = parse_scores_csv("# seed=0\n" + write_csv(SCORES_HEADER, rows))
        assert [table["X"][c].hex() for c in columns] == [v.hex() for v in scores]

    def test_missing_level_rejected(self):
        text = "technique,level,score\nNo-Aug,MB0,10\n"
        with pytest.raises(ValueError, match="lacks levels"):
            parse_scores_csv(text)

    def test_duplicate_rejected(self):
        text = ("technique,level,score\n" +
                "".join(f"No-Aug,MB{i},10\n" for i in range(4)) +
                "No-Aug,MB0,11\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_scores_csv(text)

    def test_duplicate_subset_rejected(self):
        text = scores_text("X") + "X,with_blur,1.0\nX,with_blur,2.0\n"
        with pytest.raises(ValueError,
                           match=r"^duplicate with_blur score for 'X'$"):
            parse_scores_csv(text)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_scores_csv("tech,lvl,val\n")

    @pytest.mark.parametrize("text", ["technique,level,score\n",
                                      "# seed=0\ntechnique,level,score\n\n"])
    def test_table_without_rows_rejected(self, text):
        with pytest.raises(ValueError, match="^no score rows$"):
            parse_scores_csv(text)

    @pytest.mark.parametrize("technique", [
        "A\x0cB", "A\x0bB", "A\x1cB", "A\x1dB", "A\x1eB", "A\x85B", "A\u2028B",
        "A\u2029B", "#1"])
    def test_technique_read_whole(self, technique):
        table = parse_scores_csv("# seed=0\n" + scores_text(technique))
        assert list(table) == [technique]

    def test_quoted_carriage_return_kept(self):
        table = parse_scores_csv(scores_text('"A\rB"'))
        assert list(table) == ["A\rB"]

    def test_hash_line_after_header_rejected(self):
        text = scores_text("No-Aug").replace("\nNo-Aug,MB2", "\n# note\nNo-Aug,MB2")
        with pytest.raises(ValueError, match=r"bad row \['# note'\]"):
            parse_scores_csv(text)

    def test_carriage_return_line_ends_rejected(self):
        with pytest.raises(ValueError, match="bad CSV on line 1:"):
            parse_scores_csv(scores_text("No-Aug").replace("\n", "\r"))

    @pytest.mark.parametrize("token,score", [
        ("1e2", 100.0), ("+3.5", 3.5), (".5", 0.5), ("-0.0", -0.0),
        ("117.41234567890123", 117.41234567890123)])
    def test_plain_ascii_score_read(self, token, score):
        table = parse_scores_csv(scores_text("X").replace("MB0,1.0",
                                                          f"MB0,{token}"))
        assert table["X"][BlurLevel.MB0] == score

    def test_bad_score_rejected(self):
        text = "technique,level,score\nNo-Aug,MB0,lots\n"
        with pytest.raises(ValueError, match="bad score"):
            parse_scores_csv(text)
