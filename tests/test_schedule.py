"""Probability schedules, seeded sampling, and manifests."""

import copy
import json
import math
import pickle
import re
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
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
    parse_technique,
    plan_dataset,
    read_manifest,
    technique_plan,
    write_manifest,
)
from conftest import DATA_DIR, pack_manifest, stage_levels
from oracles import draw53, level_by_float_walk


def seed_error(seed) -> str:
    """The pattern of the error for a seed outside [0, 2**64)."""
    return re.escape(f"seed must be in [0, 2**64), not {seed}")


def level_at(schedule, draw):
    """The level `schedule` gives one 53-bit draw, which must be the level
    of both the lowest and the highest 8-byte digest whose top 53 bits are
    that draw."""
    low, high = ((draw << 11 | low_bits).to_bytes(8, "big")
                 for low_bits in (0, 2**11 - 1))
    lowest, highest = schedule.level_indices([low, high])
    assert lowest == highest, draw
    return tuple(BlurLevel)[lowest]


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

    @pytest.mark.parametrize("probs", [
        (0.5, 0.5, 0.5, 0.0),
        (0.25, 0.25, 0.25, 0.25 + 1e-7),
        (0.25, 0.25, 0.25, 0.25 + 2e-9),  # twice the 1e-9 tolerance
    ], ids=["0.5", "1e-7", "2e-9"])
    def test_sum_off_by_half_rejected(self, probs):
        with pytest.raises(ValueError, match="sum"):
            Schedule(probs)

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

    def test_value_semantics(self):
        """Read-only; equal, hashed and shown by `probs` alone; a copy or
        a pickle keeps the stored values without rescaling them again."""
        s = CAPTIONER_AUG_SCHEDULE
        assert s == Schedule((0.5, 0.2, 0.2, 0.1))
        assert hash(s) == hash(Schedule((0.5, 0.2, 0.2, 0.1)))
        assert s != DETECTOR_AUG_SCHEDULE and s != s.probs
        assert repr(s) == f"Schedule(probs={s.probs!r})"
        for field in ("probs", "bounds", "limits"):
            with pytest.raises(AttributeError):
                setattr(s, field, ())
        for twin in (copy.copy(s), pickle.loads(pickle.dumps(s))):
            assert (twin.probs, twin.bounds, twin.limits) == (
                s.probs, s.bounds, s.limits)

    def test_constants_keep_their_normalized_values(self):
        # manifest headers carry these exact values; normalizing the
        # stored probabilities again would change the first one to 0.5
        assert CAPTIONER_AUG_SCHEDULE.probs[0] == 0.5000000000000001
        assert Schedule(CAPTIONER_AUG_SCHEDULE.probs).probs[0] == 0.5


class TestSampleLevel:
    """One level per (key, stage), drawn through `plan_dataset`."""

    def test_degenerate_schedule_always_mb0(self):
        keys = ["a", "b", "some-image-123"]
        for seed in (0, 1, 2**63):
            for stage in Stage:
                assert stage_levels(keys, "No-Aug", seed, stage) == \
                    [BlurLevel.MB0] * len(keys)

    @pytest.mark.parametrize("schedule", [NO_AUG_SCHEDULE,
                                          CAPTIONER_AUG_SCHEDULE],
                             ids=["no-aug", "captioner-aug"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_range_rejected(self, schedule, seed):
        """The one-stage draw checks the seed, also for a schedule that
        puts every draw on MB0 and so hashes nothing."""
        with pytest.raises(ValueError, match=f"^{seed_error(seed)}$"):
            schedule_mod._draw_levels([b"img42"], schedule, seed, "captioner")

    def test_deterministic(self):
        first = stage_levels(["img42"], "Cap-Aug", 7, Stage.CAPTIONER)
        second = stage_levels(["img42"], "Cap-Aug", 7, Stage.CAPTIONER)
        assert first == second

    def test_stage_changes_draw_for_some_keys(self):
        """The stage keys the hash: the captioner levels of a plan are not
        the levels its captioner schedule gives the detector stage's draws."""
        keys = [f"k{i}" for i in range(200)]
        captioner = stage_levels(keys, "Cap-Aug", 0, Stage.CAPTIONER)
        detector = [BlurLevel(level_by_float_walk(
            CAPTIONER_AUG_SCHEDULE.probs, draw53(0, k, "detector"))) for k in keys]
        assert detector != captioner

    def test_boundary_ties_go_to_lower_level(self):
        quarters = Schedule((0.25, 0.25, 0.25, 0.25))
        cases = {0.25: BlurLevel.MB0, 0.5: BlurLevel.MB1,
                 0.75: BlurLevel.MB2, 0.2500001: BlurLevel.MB1,
                 0.0: BlurLevel.MB0, 0.999: BlurLevel.MB3}
        for u, expected in cases.items():
            # the 53-bit draw whose uniform value is the largest <= u
            assert level_at(quarters, int(u * 2**53)) is expected

    def test_detector_schedule_never_yields_mb3(self):
        levels = set(stage_levels([f"key-{i}" for i in range(20_000)],
                                  "ObjDet-Aug", 3, Stage.DETECTOR))
        assert BlurLevel.MB3 not in levels
        assert levels == {BlurLevel.MB0, BlurLevel.MB1, BlurLevel.MB2}

    def test_frequencies_converge(self):
        n = 20_000
        counts = Counter(stage_levels([f"s{i}" for i in range(n)], "Cap-Aug",
                                      0, Stage.CAPTIONER))
        for level, p in zip(BlurLevel, CAPTIONER_AUG_SCHEDULE.probs):
            assert abs(counts[level] / n - p) < 0.015

    @given(st.text(max_size=30), st.integers(0, 2**64 - 1))
    @settings(max_examples=80)
    def test_always_returns_a_level(self, key, seed):
        manifest = plan_dataset([key], technique_plan("Cap-Aug"), seed)
        assert set(manifest.levels) <= {level.value for level in BlurLevel}


#: Weights for random schedules: zero mass, any float in [0, 1], and tiny
#: masses that the running float sum can lose.
_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                    st.sampled_from([5e-324, 1e-300, 2.0**-60, 1e-17]))


@st.composite
def _schedules(draw):
    """Valid schedules whose literals sum to 1 give or take up to 1e-9."""
    weights = draw(st.lists(_WEIGHT, min_size=4, max_size=4))
    assume(sum(weights) > 0.0)
    off = draw(st.floats(-0.9e-9, 0.9e-9))
    total = sum(weights)
    probs = [min(w / total * (1.0 + off), 1.0) for w in weights]
    assume(abs(sum(probs) - 1.0) <= 1e-9)
    return Schedule(probs)


#: The partial sum MB0 + MB1 of this schedule rounds to 1 + 2**-52, past
#: the top, while MB3 still has mass.
_PARTIAL_SUM_PAST_ONE = Schedule((0.8375779756625729, 0.1624220244503358,
                                  0.0, 1e-17))
#: Stored as (0.0, 0.5209749105019187, 0.4790250894980812,
#: 2.909383916664344e-309): the partial sum up to MB2 is 1 - 2**-53, so the
#: MB2 bound is 2**53 - 1, the largest draw, whose digest limit would be
#: 2**64 and does not fit 8 bytes.
_CDF_FLOORS_TO_LAST_DRAW = Schedule((0.0, 0.5209749105019189,
                                     0.4790250894980814, 2.909383916664344e-309))


class TestDrawMatchesFloatWalk:
    """The integer bounds pick the level the float CDF walk of
    `oracles.level_by_float_walk` picks, shortfall fallback included."""

    def test_fixtures_reach_the_edge_cases(self):
        shortfall = Schedule((0.2, 0.4, 0.3, 0.1))
        assert list(accumulate(shortfall.probs))[-1] == 1.0 - 2.0**-52
        assert list(accumulate(_PARTIAL_SUM_PAST_ONE.probs))[1] > 1.0
        assert _CDF_FLOORS_TO_LAST_DRAW.probs == (
            0.0, 0.5209749105019187, 0.4790250894980812, 2.909383916664344e-309)
        assert _CDF_FLOORS_TO_LAST_DRAW.bounds[2] == 2**53 - 1

    @pytest.mark.parametrize("schedule", [
        NO_AUG_SCHEDULE, DETECTOR_AUG_SCHEDULE, CAPTIONER_AUG_SCHEDULE,
        Schedule((0.25, 0.25, 0.25, 0.25)), Schedule((0.2, 0.4, 0.3, 0.1)),
        _PARTIAL_SUM_PAST_ONE, _CDF_FLOORS_TO_LAST_DRAW,
    ], ids=repr)
    def test_at_every_bound(self, schedule):
        draws = {bound + step for bound in schedule.bounds for step in (0, 1)}
        for draw in sorted(draws | {0, 2**53 - 1}):
            if draw < 2**53:
                assert level_at(schedule, draw) == \
                    level_by_float_walk(schedule.probs, draw), draw

    @given(_schedules(), st.integers(0, 3), st.integers(-2, 2),
           st.one_of(st.none(), st.integers(0, 2**53 - 1)))
    @example(_CDF_FLOORS_TO_LAST_DRAW, 2, 0, None)  # the largest draw
    @example(_CDF_FLOORS_TO_LAST_DRAW, 2, -1, None)
    @example(_CDF_FLOORS_TO_LAST_DRAW, 1, 0, None)
    @example(_CDF_FLOORS_TO_LAST_DRAW, 1, 1, None)
    @example(_CDF_FLOORS_TO_LAST_DRAW, 0, 0, None)  # draw 0, the bound of empty MB0
    @settings(max_examples=300)
    def test_any_draw(self, schedule, level, step, uniform):
        """A draw at or near one of the bounds, or anywhere (`uniform`)."""
        draw = schedule.bounds[level] + step if uniform is None else uniform
        assume(0 <= draw < 2**53)
        assert level_at(schedule, draw) == \
            level_by_float_walk(schedule.probs, draw)


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
        with pytest.raises(ValueError, match="^" + re.escape(
                "bad manifest header on line 1: not the header plan writes "
                "for technique ObjDet-Aug and seed 0") + "$"):
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

    def test_many_duplicate_keys_listed_on_one_short_line(self):
        """Past 5 duplicates the error lists the first 5 and a count."""
        keys = [f"key{i:05d}" for i in range(20000)] * 2
        with pytest.raises(ValueError) as info:
            plan_dataset(keys, technique_plan("No-Aug"), 0)
        assert str(info.value) == (
            "duplicate sample keys: ['key00000', 'key00001', 'key00002', "
            "'key00003', 'key00004'] and 19995 more")

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
        detector = level_counts(manifest, Stage.DETECTOR)
        captioner = level_counts(manifest, Stage.CAPTIONER)
        assert detector[3] == 0
        assert abs(captioner[3] / len(keys) - 0.1) <= 0.01

    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                            max_size=12), max_size=8, unique=True),
           st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70)),
           st.sampled_from(list(Technique)))
    @example(["", "img00", "caf\u00e9"], 0, Technique.OBJDET_CAP_AUG)
    @example(["img00", "caf\u00e9"], 2**64 - 1, Technique.OBJDET_CAP_AUG)
    @example(["caf\u00e9"], -1, Technique.CAP_AUG)
    @settings(max_examples=200)
    def test_entries_drawn_by_float_walk(self, keys, seed, technique):
        """One draw rule: a planned level is the level the float CDF walk
        picks for the draw `oracles.draw53` gives the same key, seed and
        stage, under the stage's schedule."""
        plan = technique_plan(technique.value)
        if not 0 <= seed < 2**64:
            with pytest.raises(ValueError, match=seed_error(seed)):
                plan_dataset(keys, plan, seed)
            return
        manifest = plan_dataset(keys, plan, seed)
        assert len(manifest.entries) == 2 * len(keys)
        for entry in manifest.entries:
            draw = draw53(seed, entry.sample_key, entry.stage.value)
            assert entry.level is BlurLevel(level_by_float_walk(
                plan.schedule_for(entry.stage).probs, draw))

    def test_plans_and_manifests_are_named_tuples(self):
        """Indexable, equal to the plain tuple of their fields, read-only,
        and rebuilt equal by pickle."""
        plan = technique_plan("Cap-Aug")
        manifest = plan_dataset(["a"], plan, 3)
        entry = manifest.entries[1]
        assert plan == (Technique.CAP_AUG,) and plan[0] is plan.name
        assert manifest == (3, plan, ("a",), manifest.levels)
        assert len(manifest.levels) == 2
        assert entry == ("a", Stage.CAPTIONER, entry.level)
        for value, field in ((plan, "name"), (manifest, "seed"),
                             (entry, "level")):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            assert pickle.loads(pickle.dumps(value)) == value

    def test_columns_equal_their_packed_entries(self):
        """Equality and hash are the values', however a manifest is built."""
        manifest = plan_dataset([f"k{i}" for i in range(50)],
                                technique_plan("ObjDet-Cap-Aug"), 8)
        packed = pack_manifest(8, manifest.plan, manifest.entries)
        assert packed == manifest
        assert hash(packed) == hash(manifest)

    @pytest.mark.parametrize("technique", list(Technique),
                             ids=lambda technique: technique.value)
    @pytest.mark.parametrize("seed", ["7", 1.5, None, True, False], ids=repr)
    def test_non_int_seed_rejected(self, technique, seed):
        """Every technique rejects a seed that is not an int, No-Aug,
        whose stages hash no key, included; a bool is not an int here,
        though `operator.index(True)` is 1."""
        with pytest.raises(TypeError):
            plan_dataset(["a"], technique_plan(technique.value), seed)

    @pytest.mark.parametrize("technique", list(Technique),
                             ids=lambda technique: technique.value)
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_range_rejected(self, technique, seed):
        """Every technique rejects the seeds the CLI rejects, with its
        text, also for an empty key list."""
        for keys in (["a"], []):
            with pytest.raises(ValueError, match=f"^{seed_error(seed)}$"):
                plan_dataset(keys, technique_plan(technique.value), seed)

    @pytest.mark.parametrize("technique", list(Technique),
                             ids=lambda technique: technique.value)
    def test_unencodable_key_rejected(self, technique):
        """A key with no UTF-8 form, a lone surrogate, fails under every
        technique."""
        with pytest.raises(UnicodeEncodeError):
            plan_dataset(["a", "b\ud800"], technique_plan(technique.value), 0)

    def test_seed_changes_some_assignment(self):
        keys = [f"k{i}" for i in range(1000)]
        plan = technique_plan("ObjDet-Cap-Aug")
        baseline = write_manifest(plan_dataset(keys, plan, 0))
        for seed in range(1, 11):
            assert write_manifest(plan_dataset(keys, plan, seed)) != baseline


def level_counts(manifest, stage):
    """Entries per level at `stage`, in MB0..MB3 order."""
    counts = Counter(e.level for e in manifest.entries if e.stage is stage)
    return tuple(counts[level] for level in BlurLevel)


class TestEmpiricalFrequencies:
    def test_all_mb0(self):
        manifest = plan_dataset(["a", "b"], technique_plan("No-Aug"), 0)
        assert level_counts(manifest, Stage.DETECTOR) == (2, 0, 0, 0)

    def test_one_entry_per_level(self):
        entries = tuple(
            schedule_mod.ManifestEntry(f"k{i}", stage, level)
            for i, level in enumerate(BlurLevel)
            for stage in Stage)
        manifest = pack_manifest(0, technique_plan("ObjDet-Cap-Aug"), entries)
        assert level_counts(manifest, Stage.CAPTIONER) == (1, 1, 1, 1)

    def test_sums_to_exactly_one(self):
        manifest = plan_dataset([f"k{i}" for i in range(997)],
                                technique_plan("ObjDet-Cap-Aug"), 3)
        for stage in Stage:
            assert sum(level_counts(manifest, stage)) == 997


class TestManifestSerialization:
    def test_round_trip(self):
        manifest = plan_dataset([f"x{i}" for i in range(50)],
                                technique_plan("Cap-Aug"), 99)
        assert read_manifest(write_manifest(manifest)) == manifest

    def test_round_trip_of_5003_keys_with_escaped_keys(self):
        manifest = plan_dataset([f"k{i}" for i in range(5000)]
                                + ["caf\u00e9", "\u732b", 'q"\\'],
                                technique_plan("ObjDet-Cap-Aug"), 11)
        text = write_manifest(manifest)
        assert text.count("\n") == 10_007
        assert read_manifest(text) == manifest

    def test_entry_lines_are_json_dumps_of_the_record(self):
        keys = ["a", "caf\u00e9", "\u732b", 'q"\\', "tab\there", "\u2028"]
        manifest = plan_dataset(keys, technique_plan("Cap-Aug"), 2)
        lines = write_manifest(manifest).split("\n")[1:-1]
        assert lines == [json.dumps({"sample_key": e.sample_key,
                                     "stage": e.stage.value,
                                     "level": e.level.name})
                         for e in manifest.entries]

    @pytest.mark.parametrize("golden", sorted(
        path.name for path in (DATA_DIR / "manifest_golden").iterdir()))
    def test_golden_manifest_reads_back_as_planned(self, data_dir, golden):
        """Each golden manifest reads back equal to `plan_dataset` of its
        keys file, read as `plan` reads it, with its technique and seed;
        writing that manifest gives the golden byte for byte."""
        name, _, seed = golden.removesuffix(".jsonl").rpartition("_seed")
        keys_file, technique = (("odd_keys.txt", name.removeprefix("odd_keys_"))
                                if name.startswith("odd_keys_")
                                else ("toy_keys.txt", name))
        lines = (data_dir / keys_file).read_bytes().decode("utf-8-sig")
        keys = list(filter(None, map(str.strip, lines.split("\n"))))
        text = (data_dir / "manifest_golden" / golden).read_bytes()
        manifest = read_manifest(text.decode("utf-8"))
        assert manifest == plan_dataset(keys, technique_plan(technique),
                                        int(seed))
        assert write_manifest(manifest).encode("utf-8") == text

    def test_header_carries_seed_and_schedules(self):
        manifest = plan_dataset(["a"], technique_plan("ObjDet-Aug"), 12)
        header = write_manifest(manifest).splitlines()[0]
        assert '"seed": 12' in header
        assert '"technique": "ObjDet-Aug"' in header
        assert '"detector_schedule"' in header
        assert '"captioner_schedule"' in header

    def test_empty_text_rejected(self):
        """Only the empty text is empty: a blank line 1 is a bad header."""
        with pytest.raises(ValueError, match="^empty manifest$"):
            read_manifest("")
        text = write_manifest(plan_dataset(["a"], technique_plan("No-Aug"), 0))
        for blank in ("\n", "\r\n", "\n" + text):
            with pytest.raises(ValueError,
                               match="^bad manifest header on line 1: "):
                read_manifest(blank)

    @pytest.mark.parametrize("spelling", [
        lambda header: json.dumps(header, separators=(",", ":")),
        lambda header: json.dumps(dict(reversed(header.items()))),
        lambda header: json.dumps({**header, "note": "x"}),
        lambda header: json.dumps(header, indent=None) + " ",
        lambda header: " " + json.dumps(header),
    ], ids=["compact", "reordered", "extra-field", "trailing-space",
            "leading-space"])
    def test_other_header_spellings_rejected(self, spelling):
        """The header is the line `plan` writes for its seed and technique,
        not another spelling of the same object."""
        manifest = plan_dataset(["a"], technique_plan("Cap-Aug"), 5)
        header, body = write_manifest(manifest).split("\n", 1)
        assert read_manifest(header + "\r\n" + body) == manifest
        with pytest.raises(ValueError, match="^" + re.escape(
                "bad manifest header on line 1: not the header plan writes "
                "for technique Cap-Aug and seed 5") + "$"):
            read_manifest(spelling(json.loads(header)) + "\n" + body)

    def test_seed_past_the_digit_limit_named(self):
        """A header seed longer than Python reads from text is a header
        error naming the limit, not the Python call that lifts it."""
        text = write_manifest(plan_dataset(["a"], technique_plan("No-Aug"), 0))
        with pytest.raises(ValueError) as info:
            read_manifest(text.replace('"seed": 0', '"seed": ' + "9" * 5001))
        error = str(info.value)
        assert error.startswith(
            "bad manifest header on line 1: Exceeds the limit (4300")
        assert error.endswith("value has 5001 digits") and "sys." not in error

    def test_missing_final_line_end_rejected(self):
        text = write_manifest(plan_dataset(["a"], technique_plan("No-Aug"), 0))
        for cut in (text[:-1], text.split("\n", 1)[0]):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"bad manifest line {cut.count(chr(10)) + 1}: no line "
                    "end") + "$"):
                read_manifest(cut)

    @pytest.mark.parametrize("key,spelling,line", [
        ("b", "b\\udc80", 4), ("c", "\\udc80", 6), ("c", "\udc80", 6),
        ("c", "\\ud800\\udc80", None)])
    def test_key_without_utf8_named(self, key, spelling, line):
        """A lone surrogate, escaped or raw, is a JSON string but not UTF-8
        text, so `plan_dataset` could not have drawn its levels; an
        escaped surrogate pair is one character, and reads."""
        manifest = plan_dataset(["a", "b", "c"], technique_plan("Cap-Aug"), 1)
        text = write_manifest(manifest).replace(f'"{key}"', f'"{spelling}"')
        decoded = json.loads(f'"{spelling}"')
        if line is None:
            assert read_manifest(text).keys == ("a", "b", "\U00010080")
            return
        with pytest.raises(ValueError, match="^" + re.escape(
                f"bad manifest entry on line {line}: key {decoded!r} cannot "
                "be encoded as UTF-8: surrogates not allowed") + "$"):
            read_manifest(text)

    @pytest.mark.parametrize("body,line,entry", [
        ([("detector", "MB0"), ("captioner", "MB0"), ("captioner", "MB2")],
         4, "captioner MB2"),
        ([("detector", "MB0")], 2, "detector MB0"),
        ([("detector", "MB3"), ("captioner", "MB0")], 2, "detector MB3"),
    ], ids=["stage-twice", "stage-missing", "level-without-mass"])
    def test_body_read_as_written(self, data_dir, body, line, entry):
        """Only the layout `plan_dataset` writes is read: a (key, stage)
        given twice, a key without a captioner entry, and a detector MB3
        that the Cap-Aug detector schedule gives no mass are each one
        error, naming the line and the entry."""
        golden = data_dir / "manifest_golden" / "Cap-Aug_seed7.jsonl"
        header = golden.read_text().split("\n", 1)[0]
        lines = [json.dumps({"sample_key": "a", "stage": stage, "level": level})
                 for stage, level in body]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"bad manifest entry on line {line}: {entry} of key 'a' is "
                "out of the layout: ascending keys, each with a detector and "
                "then a captioner entry, at levels the Cap-Aug schedules "
                "give mass") + "$"):
            read_manifest("\n".join([header, *lines]) + "\n")

    def test_bad_entry_rejected(self):
        manifest = plan_dataset(["a"], technique_plan("No-Aug"), 0)
        text = write_manifest(manifest).replace('"MB0"', '"MB9"')
        with pytest.raises(ValueError, match="bad manifest entry"):
            read_manifest(text)

    @pytest.mark.parametrize("line", [
        "[1]", "7", "null", '"text"',
        pytest.param("[" * 100_000, id="deeply-nested")])
    def test_non_object_line_rejected(self, line):
        text = write_manifest(plan_dataset(["a"], technique_plan("No-Aug"), 0))
        with pytest.raises(ValueError, match="bad manifest header on line 1"):
            read_manifest(line + "\n" + text.split("\n", 1)[1])
        with pytest.raises(ValueError, match="bad manifest entry on line 2"):
            read_manifest(text.split("\n", 1)[0] + "\n" + line + "\n")

    @pytest.mark.parametrize("seed", ["Infinity", "-Infinity", "NaN",
                                      "true", "1.5", '"7"', "null"])
    def test_non_finite_seed_rejected(self, seed):
        """The seed is a JSON integer; nothing else is coerced to one."""
        text = write_manifest(plan_dataset(["a"], technique_plan("No-Aug"), 0))
        with pytest.raises(ValueError, match="bad manifest header on line 1"):
            read_manifest(text.replace('"seed": 0', f'"seed": {seed}'))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**128])
    def test_seed_outside_range_rejected(self, seed):
        """A header seed gets the range rule of `plan_dataset`."""
        text = write_manifest(plan_dataset(["a"], technique_plan("No-Aug"), 0))
        with pytest.raises(ValueError, match="^" + re.escape(
                "bad manifest header on line 1: seed must be in "
                f"[0, 2**64), not {seed}") + "$"):
            read_manifest(text.replace('"seed": 0', f'"seed": {seed}'))

    def test_largest_seed_read(self):
        manifest = plan_dataset(["a"], technique_plan("Cap-Aug"), 2**64 - 1)
        assert read_manifest(write_manifest(manifest)) == manifest

    @pytest.mark.parametrize("key", [None, 5, True, [1], {"x": 1}],
                             ids=["null", "5", "true", "list", "object"])
    def test_non_string_sample_key_rejected(self, key):
        """A sample key is a JSON string; nothing else is taken as one."""
        text = write_manifest(plan_dataset(["a", "b"], technique_plan("No-Aug"), 0))
        lines = text.split("\n")
        record = json.loads(lines[2])
        record["sample_key"] = key
        lines[2] = json.dumps(record)
        with pytest.raises(ValueError, match="bad manifest entry on line 3 "):
            read_manifest("\n".join(lines))

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
    def test_raw_line_separator_inside_a_key_is_read(self, char):
        """A line ends only at \\n; a JSON string may hold U+0085 raw."""
        manifest = plan_dataset([f"cat{char}one", "dog"],
                                technique_plan("Cap-Aug"), 3)
        escaped = json.dumps(char)[1:-1]
        text = write_manifest(manifest)
        assert escaped in text
        assert read_manifest(text.replace(escaped, char)) == manifest

    def test_crlf_line_ends_read(self):
        manifest = plan_dataset(["a", "b"], technique_plan("ObjDet-Aug"), 4)
        text = write_manifest(manifest).replace("\n", "\r\n")
        assert read_manifest(text) == manifest

    def test_json_error_names_line(self):
        text = write_manifest(plan_dataset(["a", "b"], technique_plan("No-Aug"), 0))
        lines = text.split("\n")
        lines[2] = lines[2][:-1]
        with pytest.raises(ValueError, match="on line 3"):
            read_manifest("\n".join(lines))
        lines = text.split("\n")
        lines.insert(2, "")  # the writer writes no blank line
        with pytest.raises(ValueError, match="^" + re.escape(
                "bad manifest entry on line 3 '': not an entry line as plan "
                "writes it") + "$"):
            read_manifest("\n".join(lines))
        with pytest.raises(ValueError, match="on line 1"):
            read_manifest("{not json\n")
