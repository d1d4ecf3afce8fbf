"""Degradation tables, histograms, and rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurbench.imaging import BlurLevel
from blurbench.ingest import FeatureCountRecord, ParseError
from blurbench.report import (
    DegradationDelta,
    FeatureHistogram,
    ScoreRow,
    ScoreTable,
    build_histograms,
    degradation_deltas,
    degradation_warnings,
    mean_feature_count,
    parse_scores_csv,
    render_deltas,
    render_histograms,
    render_score_table,
    render_subset_table,
)

LEVELS = list(BlurLevel)


def row(technique, mb0, mb1, mb2, mb3, **kwargs):
    return ScoreRow(technique, dict(zip(LEVELS, (mb0, mb1, mb2, mb3))), **kwargs)


COCO_TABLE = ScoreTable([
    row("No-Aug", 117.1, 111.4, 95.0, 48.4),
    row("ObjDet-Aug", 116.6, 114.6, 111.7, 100.2),
    row("Cap-Aug", 116.8, 115.0, 108.8, 85.1),
    row("ObjDet-Cap-Aug", 117.4, 116.0, 113.4, 105.7),
])

VIZWIZ_TABLE = ScoreTable([
    row("No-Aug", 48.8, 47.0, 40.9, 26.4, with_blur=47.2, no_blur=53.0),
    row("ObjDet-Aug", 48.9, 48.1, 45.6, 39.5, with_blur=47.0, no_blur=53.3),
    row("Cap-Aug", 50.0, 49.2, 46.9, 38.2, with_blur=49.0, no_blur=53.2),
    row("ObjDet-Cap-Aug", 50.3, 49.9, 48.1, 43.5, with_blur=48.9, no_blur=54.1),
])


def delta_map(table):
    return {(d.technique, d.level): d.delta for d in degradation_deltas(table)}


class TestDegradationDeltas:
    def test_headline_deltas_exact(self):
        coco = delta_map(COCO_TABLE)
        assert coco[("No-Aug", BlurLevel.MB3)] == 68.7
        assert coco[("ObjDet-Cap-Aug", BlurLevel.MB3)] == 11.7
        vizwiz = delta_map(VIZWIZ_TABLE)
        assert vizwiz[("No-Aug", BlurLevel.MB3)] == 22.4
        assert vizwiz[("ObjDet-Cap-Aug", BlurLevel.MB3)] == 6.8

    def test_mb0_delta_is_zero(self):
        for (technique, level), delta in delta_map(COCO_TABLE).items():
            if level is BlurLevel.MB0:
                assert delta == 0.0

    def test_flat_row_all_zero(self):
        table = ScoreTable([row("X", 50.0, 50.0, 50.0, 50.0)])
        assert all(d.delta == 0.0 for d in degradation_deltas(table))

    def test_anti_monotone_in_scores(self):
        lower = delta_map(ScoreTable([row("X", 100.0, 90.0, 80.0, 40.0)]))
        higher = delta_map(ScoreTable([row("X", 100.0, 90.0, 80.0, 41.0)]))
        assert lower[("X", BlurLevel.MB3)] > higher[("X", BlurLevel.MB3)]

    def test_deltas_use_rendered_precision(self):
        # raw floats that round to 117.1 and 48.4 give exactly 68.7
        table = ScoreTable([row("X", 117.1049, 111.4, 95.0, 48.3951)])
        assert delta_map(table)[("X", BlurLevel.MB3)] == 68.7

    def test_missing_level_rejected(self):
        with pytest.raises(ValueError, match="lacks levels"):
            ScoreTable([ScoreRow("X", {BlurLevel.MB0: 1.0})])


class TestWarnings:
    def test_monotone_row_is_quiet(self):
        assert degradation_warnings(COCO_TABLE) == []

    def test_rising_score_warns_not_raises(self):
        table = ScoreTable([row("X", 50.0, 52.0, 40.0, 30.0)])
        warnings = degradation_warnings(table)
        assert len(warnings) == 1
        assert "MB0->MB1" in warnings[0]


class TestHistograms:
    def test_shared_bin(self):
        records = [FeatureCountRecord("a", BlurLevel.MB0, 36),
                   FeatureCountRecord("b", BlurLevel.MB0, 36)]
        hists = build_histograms(records, bin_width=10)
        assert len(hists) == 1
        assert hists[0].bins == {3: 2}

    def test_empty_records(self):
        assert build_histograms([], bin_width=10) == []

    def test_zero_bin_width_rejected(self):
        with pytest.raises(ValueError):
            build_histograms([], bin_width=0)

    def test_levels_in_order(self, toy_feature_records):
        hists = build_histograms(toy_feature_records, 10)
        assert [h.level for h in hists] == LEVELS

    def test_mass_conservation(self, toy_feature_records):
        hists = build_histograms(toy_feature_records, 10)
        for hist in hists:
            expected = sum(1 for r in toy_feature_records
                           if r.level is hist.level)
            assert sum(hist.bins.values()) == expected

    def test_uniformly_lower_counts_land_in_lower_bins(self, toy_feature_records):
        hists = {h.level: h for h in build_histograms(toy_feature_records, 10)}
        assert max(hists[BlurLevel.MB3].bins) < min(hists[BlurLevel.MB0].bins)

    @given(st.lists(st.tuples(st.sampled_from(LEVELS), st.integers(0, 120)),
                    max_size=60),
           st.integers(1, 25))
    @settings(max_examples=80)
    def test_conservation_property(self, pairs, bin_width):
        records = [FeatureCountRecord(f"i{k}", level, count)
                   for k, (level, count) in enumerate(pairs)]
        hists = build_histograms(records, bin_width)
        assert sum(sum(h.bins.values()) for h in hists) == len(records)
        for hist in hists:
            assert all(count >= 0 for count in hist.bins.values())


class TestMeanFeatureCount:
    def test_two_records(self):
        records = [FeatureCountRecord("a", BlurLevel.MB0, 10),
                   FeatureCountRecord("b", BlurLevel.MB0, 20)]
        assert mean_feature_count(records, BlurLevel.MB0) == 15.0

    def test_single_record(self):
        records = [FeatureCountRecord("a", BlurLevel.MB2, 36)]
        assert mean_feature_count(records, BlurLevel.MB2) == 36.0

    def test_strictly_decreasing_on_fixture(self, toy_feature_records):
        means = [mean_feature_count(toy_feature_records, level)
                 for level in BlurLevel]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_absent_level_rejected(self):
        with pytest.raises(ValueError, match="no feature-count records"):
            mean_feature_count([], BlurLevel.MB1)


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
        hists = build_histograms(
            [FeatureCountRecord("a", BlurLevel.MB1, 7)], 10)
        assert render_histograms(hists, "csv") == render_histograms(hists, "csv")

    def test_empty_histograms_header_only(self):
        text = render_histograms([], "csv")
        assert text == "level,bin_width,bin_index,bin_start,bin_end,image_count\n"

    def test_histogram_csv_rows(self):
        hist = FeatureHistogram(BlurLevel.MB2, 10, {3: 2, 1: 1})
        text = render_histograms([hist], "csv")
        lines = text.splitlines()
        assert lines[1] == "MB2,10,1,10,20,1"  # bins sorted ascending
        assert lines[2] == "MB2,10,3,30,40,2"

    def test_csv_round_trips_through_parser(self):
        text = render_score_table(VIZWIZ_TABLE, "csv")
        table = parse_scores_csv(text)
        assert [r.technique for r in table.rows] == \
            [r.technique for r in VIZWIZ_TABLE.rows]
        assert table.rows[0].with_blur == 47.2

    def test_subset_table(self):
        text = render_subset_table(VIZWIZ_TABLE, "markdown")
        assert "| No-Aug | 47.2 | 53.0 |" in text
        with pytest.raises(ValueError, match="without subset scores"):
            render_subset_table(COCO_TABLE, "markdown")

    def test_delta_render(self):
        text = render_deltas(degradation_deltas(COCO_TABLE), "csv")
        assert "No-Aug,MB3,68.7" in text
        assert "ObjDet-Cap-Aug,MB3,11.7" in text

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
        assert [r.technique for r in table.rows] == ["No-Aug", "ObjDet-Cap-Aug"]

    def test_missing_level_rejected(self):
        text = "technique,level,score\nNo-Aug,MB0,10\n"
        with pytest.raises(ParseError, match="lacks levels"):
            parse_scores_csv(text)

    def test_duplicate_rejected(self):
        text = ("technique,level,score\n" +
                "".join(f"No-Aug,MB{i},10\n" for i in range(4)) +
                "No-Aug,MB0,11\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_scores_csv(text)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_scores_csv("tech,lvl,val\n")

    def test_bad_score_rejected(self):
        text = "technique,level,score\nNo-Aug,MB0,lots\n"
        with pytest.raises(ParseError, match="bad score"):
            parse_scores_csv(text)
