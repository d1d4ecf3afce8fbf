"""Probability schedules, seeded sampling, and manifests."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blurbench.schedule as schedule_mod
from blurbench.imaging import BlurLevel
from blurbench.schedule import (
    CAPTIONER_AUG_SCHEDULE,
    DETECTOR_AUG_SCHEDULE,
    NO_AUG_SCHEDULE,
    Schedule,
    Stage,
    Technique,
    empirical_frequencies,
    parse_technique,
    plan_dataset,
    read_manifest,
    sample_level,
    technique_plan,
    write_manifest,
)


class TestValidateSchedule:
    """Schedule construction is where every schedule is checked."""

    def test_detector_schedule_valid(self):
        s = Schedule([0.8, 0.1, 0.1, 0.0])
        assert s.probs[3] == 0.0
        assert sum(s.probs) == pytest.approx(1.0, abs=1e-9)

    def test_captioner_schedule_valid(self):
        s = Schedule([0.5, 0.2, 0.2, 0.1])
        assert sum(s.probs) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_valid(self):
        assert Schedule([1, 0, 0, 0]).probs == (1.0, 0.0, 0.0, 0.0)

    def test_sum_off_by_half_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            Schedule([0.5, 0.5, 0.5, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Schedule([1.2, -0.2, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            Schedule([bad, 0.0, 0.0, 1.0])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Schedule([0.5, 0.5])

    def test_slightly_off_sum_normalized(self):
        s = Schedule([0.25, 0.25, 0.25, 0.25 + 4e-10])
        assert sum(s.probs) == pytest.approx(1.0, abs=1e-12)

    def test_constants_keep_their_normalized_values(self):
        # manifest headers carry these exact values; normalizing the
        # stored probabilities again would change the first one to 0.5
        assert CAPTIONER_AUG_SCHEDULE.probs[0] == 0.5000000000000001
        assert Schedule(CAPTIONER_AUG_SCHEDULE.probs).probs[0] == 0.5


class TestSampleLevel:
    def test_degenerate_schedule_always_mb0(self):
        for seed in (0, 1, 2**63):
            for key in ("a", "b", "some-image-123"):
                assert sample_level(key, NO_AUG_SCHEDULE, seed) is BlurLevel.MB0

    def test_deterministic(self):
        first = sample_level("img42", CAPTIONER_AUG_SCHEDULE, 7)
        second = sample_level("img42", CAPTIONER_AUG_SCHEDULE, 7)
        assert first is second

    def test_stage_changes_draw_for_some_keys(self):
        keys = [f"k{i}" for i in range(200)]
        detector = [sample_level(k, CAPTIONER_AUG_SCHEDULE, 0, stage="detector")
                    for k in keys]
        captioner = [sample_level(k, CAPTIONER_AUG_SCHEDULE, 0, stage="captioner")
                     for k in keys]
        assert detector != captioner

    def test_boundary_ties_go_to_lower_level(self, monkeypatch):
        quarters = Schedule((0.25, 0.25, 0.25, 0.25))
        cases = {0.25: BlurLevel.MB0, 0.5: BlurLevel.MB1,
                 0.75: BlurLevel.MB2, 0.2500001: BlurLevel.MB1,
                 0.0: BlurLevel.MB0, 0.999: BlurLevel.MB3}
        for u, expected in cases.items():
            monkeypatch.setattr(schedule_mod, "_unit_uniform",
                                lambda *a, u=u, **k: u)
            assert sample_level("k", quarters, 0) is expected

    def test_detector_schedule_never_yields_mb3(self):
        levels = {sample_level(f"key-{i}", DETECTOR_AUG_SCHEDULE, 3)
                  for i in range(20_000)}
        assert BlurLevel.MB3 not in levels
        assert levels == {BlurLevel.MB0, BlurLevel.MB1, BlurLevel.MB2}

    def test_frequencies_converge(self):
        n = 20_000
        counts = Counter(sample_level(f"s{i}", CAPTIONER_AUG_SCHEDULE, 0)
                         for i in range(n))
        for level, p in zip(BlurLevel, CAPTIONER_AUG_SCHEDULE.probs):
            assert abs(counts[level] / n - p) < 0.015

    @given(st.text(max_size=30), st.integers(0, 2**64 - 1))
    @settings(max_examples=80)
    def test_always_returns_a_level(self, key, seed):
        level = sample_level(key, CAPTIONER_AUG_SCHEDULE, seed)
        assert level in BlurLevel


class TestTechniques:
    def test_canonical_plans(self):
        expected = {
            "No-Aug": (NO_AUG_SCHEDULE, NO_AUG_SCHEDULE),
            "ObjDet-Aug": (DETECTOR_AUG_SCHEDULE, NO_AUG_SCHEDULE),
            "Cap-Aug": (NO_AUG_SCHEDULE, CAPTIONER_AUG_SCHEDULE),
            "ObjDet-Cap-Aug": (DETECTOR_AUG_SCHEDULE, CAPTIONER_AUG_SCHEDULE),
        }
        for name, (detector, captioner) in expected.items():
            plan = technique_plan(name)
            assert plan.schedule_for(Stage.DETECTOR) == detector
            assert plan.schedule_for(Stage.CAPTIONER) == captioner

    def test_name_parsing_tolerant(self):
        assert parse_technique("objdet-cap-aug") is Technique.OBJDET_CAP_AUG
        assert parse_technique("NoAug") is Technique.NO_AUG
        assert parse_technique("CAP_AUG") is Technique.CAP_AUG

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown technique"):
            parse_technique("SuperAug")

    def test_mismatched_schedules_rejected(self):
        text = write_manifest(plan_dataset(["a"], technique_plan("Cap-Aug"), 0))
        swapped = text.replace('"technique": "Cap-Aug"',
                               '"technique": "ObjDet-Aug"')
        with pytest.raises(ValueError, match="do not match technique ObjDet-Aug"):
            read_manifest(swapped)


class TestPlanDataset:
    def test_no_aug_all_mb0(self):
        manifest = plan_dataset(["a", "b", "c"], technique_plan("No-Aug"), 0)
        assert len(manifest.entries) == 6
        assert all(e.level is BlurLevel.MB0 for e in manifest.entries)
        assert [(e.sample_key, e.stage) for e in manifest.entries] == [
            ("a", Stage.DETECTOR), ("a", Stage.CAPTIONER),
            ("b", Stage.DETECTOR), ("b", Stage.CAPTIONER),
            ("c", Stage.DETECTOR), ("c", Stage.CAPTIONER)]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_dataset(["a", "b", "a"], technique_plan("No-Aug"), 0)

    def test_deterministic_and_key_order_independent(self):
        keys = [f"img{i}" for i in range(300)]
        plan = technique_plan("ObjDet-Cap-Aug")
        forward = plan_dataset(keys, plan, 5)
        backward = plan_dataset(list(reversed(keys)), plan, 5)
        assert forward == backward
        assert write_manifest(forward) == write_manifest(backward)

    def test_objdet_cap_aug_10k_seed7(self):
        keys = [f"k{i}" for i in range(10_000)]
        manifest = plan_dataset(keys, technique_plan("ObjDet-Cap-Aug"), 7)
        detector = empirical_frequencies(manifest, Stage.DETECTOR)
        captioner = empirical_frequencies(manifest, Stage.CAPTIONER)
        assert detector[3] == 0
        assert abs(float(captioner[3]) - 0.1) <= 0.01

    def test_seed_changes_some_assignment(self):
        keys = [f"k{i}" for i in range(1000)]
        plan = technique_plan("ObjDet-Cap-Aug")
        baseline = write_manifest(plan_dataset(keys, plan, 0))
        for seed in range(1, 11):
            assert write_manifest(plan_dataset(keys, plan, seed)) != baseline


class TestEmpiricalFrequencies:
    def test_all_mb0(self):
        manifest = plan_dataset(["a", "b"], technique_plan("No-Aug"), 0)
        assert empirical_frequencies(manifest, Stage.DETECTOR) == (1, 0, 0, 0)

    def test_one_entry_per_level(self):
        entries = tuple(
            schedule_mod.ManifestEntry(f"k{i}", Stage.CAPTIONER, level)
            for i, level in enumerate(BlurLevel))
        manifest = schedule_mod.AugmentationManifest(
            0, technique_plan("ObjDet-Cap-Aug"), entries)
        freqs = empirical_frequencies(manifest, Stage.CAPTIONER)
        assert freqs == (Fraction(1, 4),) * 4

    def test_sums_to_exactly_one(self):
        manifest = plan_dataset([f"k{i}" for i in range(997)],
                                technique_plan("ObjDet-Cap-Aug"), 3)
        for stage in Stage:
            assert sum(empirical_frequencies(manifest, stage)) == 1

    def test_empty_stage_rejected(self):
        manifest = schedule_mod.AugmentationManifest(
            0, technique_plan("No-Aug"), ())
        with pytest.raises(ValueError, match="no entries"):
            empirical_frequencies(manifest, Stage.DETECTOR)


class TestManifestSerialization:
    def test_round_trip(self):
        manifest = plan_dataset([f"x{i}" for i in range(50)],
                                technique_plan("Cap-Aug"), 99)
        assert read_manifest(write_manifest(manifest)) == manifest

    def test_header_carries_seed_and_schedules(self):
        manifest = plan_dataset(["a"], technique_plan("ObjDet-Aug"), 12)
        header = write_manifest(manifest).splitlines()[0]
        assert '"seed": 12' in header
        assert '"technique": "ObjDet-Aug"' in header
        assert '"detector_schedule"' in header
        assert '"captioner_schedule"' in header

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            read_manifest("")

    def test_bad_entry_rejected(self):
        manifest = plan_dataset(["a"], technique_plan("No-Aug"), 0)
        text = write_manifest(manifest).replace('"MB0"', '"MB9"')
        with pytest.raises(ValueError, match="bad manifest entry"):
            read_manifest(text)

    @pytest.mark.parametrize("line", ["[1]", "7", "null", '"text"'])
    def test_non_object_line_rejected(self, line):
        text = write_manifest(plan_dataset(["a"], technique_plan("No-Aug"), 0))
        with pytest.raises(ValueError, match="bad manifest header on line 1"):
            read_manifest(line + "\n" + text.split("\n", 1)[1])
        with pytest.raises(ValueError, match="bad manifest entry on line 2"):
            read_manifest(text.split("\n", 1)[0] + "\n" + line + "\n")

    def test_json_error_names_line(self):
        text = write_manifest(plan_dataset(["a", "b"], technique_plan("No-Aug"), 0))
        lines = text.splitlines()
        lines.insert(1, "")  # blank lines are skipped but still counted
        lines[3] = lines[3][:-1]
        with pytest.raises(ValueError, match="on line 4"):
            read_manifest("\n".join(lines))
        with pytest.raises(ValueError, match="on line 1"):
            read_manifest("{not json\n")
