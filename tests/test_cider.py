"""CIDEr-D scoring against the direct-formula reference."""

import inspect
import math
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blurbench.cider
from blurbench import cli
from blurbench.cider import (
    CiderConfig,
    build_idf,
    cider_d,
    corpus_cider_d,
    length_penalty,
    ngram_counts,
    tokenize,
)
from blurbench.imaging import BlurLevel
from blurbench.ingest import parse_captions
from oracles import cider_d_formula, document_frequency, idf_of, tokens

# Oracle outputs on the bundled toy corpus, frozen after computing them
# with tests/oracles.py (direct-formula evaluation with recounted df).
FROZEN_SCORES = {
    ("img00", BlurLevel.MB0): 1.8224010466659464,
    ("img03", BlurLevel.MB1): 2.3563334909687335,
    ("img08", BlurLevel.MB3): 0.7858955115250619,
}
FROZEN_CORPUS_MEANS = {
    BlurLevel.MB0: 2.6129261140745554,
    BlurLevel.MB1: 1.8717068778537034,
    BlurLevel.MB2: 0.8904592387585873,
    BlurLevel.MB3: 0.3928428796827315,
}

_WORDS = st.text(alphabet="abcdefgh", min_size=1, max_size=5)


def corpus_tokens(dataset):
    return [[tokenize(r) for r in refs] for refs in dataset.values()]


class TestTokenize:
    def test_sentence(self):
        assert tokenize("A man riding a horse.") == \
            ["a", "man", "riding", "a", "horse"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_splits(self):
        assert tokenize("dog,dog") == ["dog", "dog"]

    def test_digits_kept(self):
        assert tokenize("route 66!") == ["route", "66"]

    @pytest.mark.parametrize("text,expected", [
        ("Caf\u00e9 \u21169", ["caf", "9"]),
        ("\u212aelvin", ["kelvin"]),  # the Kelvin sign lowercases to k
        ("\u0130stanbul", ["i", "stanbul"]),  # to i + combining dot
        ("Stra\u00dfe", ["stra", "e"]),
        ("route \uff11\uff12", ["route"]),  # fullwidth digits
        ("\u0663 dogs", ["dogs"]),  # an Arabic-Indic digit
        ("a\x00b\tc\nd\r\ne\x0bf\x0cg", ["a", "b", "c", "d", "e", "f", "g"]),
    ], ids=["cafe", "kelvin", "dotted-i", "sharp-s", "fullwidth",
            "arabic-indic", "controls"])
    def test_non_ascii_and_control_characters(self, text, expected):
        assert tokenize(text) == tokens(text) == expected

    def test_lone_surrogate_from_a_json_escape(self):
        split = parse_captions(b'{"images": [{"id": 1, "file_name": "a"}], '
                               b'"annotations": [{"image_id": 1, '
                               b'"caption": "Dog\\ud800cat \\udfff"}]}')
        assert split["1"] == ["Dog\ud800cat \udfff"]
        assert tokenize(split["1"][0]) == ["dog", "cat"]

    @given(st.text(st.characters(exclude_categories=()), max_size=60))
    @settings(max_examples=300)
    def test_matches_the_character_loop(self, text):
        """Any text, lone surrogates included."""
        assert tokenize(text) == tokens(text)

    @given(st.text(max_size=60))
    @settings(max_examples=150)
    def test_tokens_lowercase_alnum_nonempty(self, text):
        for token in tokenize(text):
            assert token
            assert all("a" <= ch <= "z" or "0" <= ch <= "9" for ch in token)


class TestNgramCounts:
    def test_bigrams(self):
        counts = ngram_counts(["a", "b", "a", "b"])
        assert counts[2] == {("a", "b"): 2, ("b", "a"): 1}

    def test_short_sequence_has_no_fourgrams(self):
        counts = ngram_counts(["a", "b", "c"])
        assert counts[4] == {}

    def test_repeated_unigram(self):
        assert ngram_counts(["a", "a", "a"])[1] == {("a",): 3}

    @given(st.lists(_WORDS, max_size=12))
    @settings(max_examples=100)
    def test_totals(self, tokens):
        counts = ngram_counts(tokens)
        for n in range(1, 5):
            assert sum(counts[n].values()) == max(0, len(tokens) - n + 1)


def tiny_dataset(captions_per_image):
    return {f"i{k}": caps for k, caps in enumerate(captions_per_image)}


class TestBuildIdf:
    def test_shared_ngram_has_zero_idf(self):
        ds = tiny_dataset([["a cat sits"], ["a cat sleeps"]])
        assert idf_of(build_idf(ds), ("a", "cat")) == 0.0

    def test_unique_ngram_idf_is_ln2(self):
        ds = tiny_dataset([["a cat sits"], ["a dog runs"]])
        idf = build_idf(ds)
        assert idf_of(idf, ("cat",)) == pytest.approx(math.log(2))

    def test_unseen_ngram_gets_full_weight(self):
        ds = tiny_dataset([["a cat"], ["a dog"]])
        assert idf_of(build_idf(ds), ("zebra",)) == pytest.approx(math.log(2))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_idf({})

    def test_gram_longer_than_the_table_counted_is_refused(self, toy_dataset):
        """A unigram table holds no bigram, so it cannot say that "on a"
        is in 5 of the 10 toy images; it refuses the lookup rather than
        give the unseen idf ln 10."""
        assert idf_of(build_idf(toy_dataset), ("on", "a")) == pytest.approx(
            math.log(2), abs=1e-12)
        with pytest.raises(ValueError, match="^a 2-gram, but the table "
                                             "counted n = 1..1$"):
            idf_of(build_idf(toy_dataset, 1), ("on", "a"))

    def test_toy_corpus_matches_recount(self, toy_dataset):
        """idf = ln(N / df) with df recounted by the oracle for every
        n-gram of the corpus, and ln N for n-grams the corpus lacks."""
        idf = build_idf(toy_dataset)
        recount = document_frequency(corpus_tokens(toy_dataset))
        assert idf.corpus_size == 10
        for gram, df in recount.items():
            assert idf_of(idf, gram) == pytest.approx(math.log(10 / df),
                                                  abs=1e-12), gram
        for gram in [("zebra",), ("a", "zebra"), ("kitchen", "a"),
                     ("a", "a", "a", "a")]:
            assert gram not in recount
            assert idf_of(idf, gram) == pytest.approx(math.log(10), abs=1e-12)


class TestCiderD:
    def test_identical_candidate_scores_ten(self):
        # distinct references across images keep idf positive everywhere
        ds = tiny_dataset([["a black dog runs fast"], ["purple trains hum at night"]])
        idf = build_idf(ds)
        candidate = tokenize("a black dog runs fast")
        score = cider_d(candidate, [candidate], idf)
        assert abs(score - 10.0) < 1e-9

    def test_disjoint_candidate_scores_zero(self, toy_dataset):
        idf = build_idf(toy_dataset)
        refs = [tokenize(r) for r in toy_dataset["img00"]]
        score = cider_d(tokenize("zebras juggle purple xylophones"), refs, idf)
        assert score == 0.0

    def test_empty_reference_list_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            cider_d(["a"], [], build_idf(toy_dataset))

    def test_empty_candidate_scores_zero_not_nan(self, toy_dataset):
        idf = build_idf(toy_dataset)
        refs = [tokenize(r) for r in toy_dataset["img00"]]
        assert cider_d([], refs, idf) == 0.0

    def test_matches_oracle_on_all_toy_candidates(self, toy_dataset,
                                                  toy_predictions):
        idf = build_idf(toy_dataset)
        corpus = corpus_tokens(toy_dataset)
        for (image_id, level), caption in toy_predictions.items():
            candidate = tokenize(caption)
            refs = [tokenize(r) for r in toy_dataset[image_id]]
            mine = cider_d(candidate, refs, idf)
            oracle = cider_d_formula(candidate, refs, corpus)
            assert abs(mine - oracle) < 1e-9, (image_id, level)

    def test_frozen_values(self, toy_dataset, toy_predictions):
        idf = build_idf(toy_dataset)
        for (image_id, level), expected in FROZEN_SCORES.items():
            candidate = tokenize(toy_predictions[(image_id, level)])
            refs = [tokenize(r) for r in toy_dataset[image_id]]
            assert cider_d(candidate, refs, idf) == pytest.approx(
                expected, abs=1e-9)

    def test_reference_order_irrelevant(self, toy_dataset, toy_predictions):
        idf = build_idf(toy_dataset)
        candidate = tokenize(toy_predictions[("img04", BlurLevel.MB1)])
        refs = [tokenize(r) for r in toy_dataset["img04"]]
        assert cider_d(candidate, refs, idf) == \
            cider_d(candidate, list(reversed(refs)), idf)

    def test_duplicated_reference_only_reaverages(self, toy_dataset,
                                                  toy_predictions):
        idf = build_idf(toy_dataset)
        corpus = corpus_tokens(toy_dataset)
        candidate = tokenize(toy_predictions[("img06", BlurLevel.MB0)])
        refs = [tokenize(r) for r in toy_dataset["img06"]]
        extended = refs + [refs[2]]
        mine = cider_d(candidate, extended, idf)
        assert abs(mine - cider_d_formula(candidate, extended, corpus)) < 1e-9
        # all-identical references: duplication cannot move the mean
        same = [refs[0], refs[0]]
        assert cider_d(candidate, same + [refs[0]], idf) == pytest.approx(
            cider_d(candidate, same, idf), abs=1e-12)

    def test_count_clipping_caps_numerator(self):
        # candidate repeats "dog"; the reference has it once, so the
        # clipped numerator term stays at the single-occurrence value
        ds = tiny_dataset([["a dog sleeps here"], ["owls watch green rivers"]])
        idf = build_idf(ds)
        ref = tokenize("a dog sleeps here")
        weight = idf_of(idf, ("dog",))
        assert min(4 * weight, 1 * weight) * weight == weight * weight
        score = cider_d(tokenize("dog dog dog dog"), [ref], idf)
        # only the unigram share can be nonzero; reconstruct it by hand
        ref_norm = math.sqrt(sum(w * w for w in (
            idf_of(idf, g) for g in ngram_counts(ref)[1])))
        expected = 10.0 / 4.0 * (weight * weight) / (4 * weight * ref_norm)
        assert score == pytest.approx(expected, abs=1e-12)
        # stuffing more copies cannot raise the score: the numerator is
        # capped while the candidate norm keeps growing
        worse = cider_d(tokenize("dog dog dog dog dog dog"), [ref], idf)
        assert worse < score

    def test_score_range_property(self, toy_dataset):
        idf = build_idf(toy_dataset)
        refs = [tokenize(r) for r in toy_dataset["img02"]]
        for text in ("a", "a kitchen", "white cabinets and a stove in a kitchen",
                     "entirely unrelated words", ""):
            score = cider_d(tokenize(text), refs, idf)
            assert 0.0 <= score <= 10.0

    @given(st.lists(st.lists(_WORDS, min_size=1, max_size=8),
                    min_size=1, max_size=4),
           st.lists(_WORDS, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_score_range_random(self, ref_token_lists, candidate):
        refs = {"i0": [" ".join(toks) for toks in ref_token_lists],
                "i1": ["completely different text here"]}
        idf = build_idf(refs)
        score = cider_d(candidate, ref_token_lists, idf)
        assert 0.0 <= score <= 10.0 + 1e-12


class TestLengthPenalty:
    def test_equal_lengths_no_penalty(self):
        assert length_penalty(7, 7, 6.0) == 1.0

    def test_monotone_in_length_gap(self):
        penalties = [length_penalty(10, 10 + gap, 6.0) for gap in range(0, 15)]
        assert all(a >= b for a, b in zip(penalties, penalties[1:]))
        assert penalties[0] == 1.0

    @given(st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=60)
    def test_symmetric(self, lc, lr):
        assert length_penalty(lc, lr, 6.0) == length_penalty(lr, lc, 6.0)


class TestCorpusCiderD:
    def test_identical_candidates_score_ten(self):
        ds = tiny_dataset([["a black dog runs fast"],
                           ["purple trains hum at night"],
                           ["seven owls watch green rivers"]])
        preds = {(i, BlurLevel.MB0): ds[i][0] for i in ds}
        assert corpus_cider_d(preds, ds, BlurLevel.MB0,
                              build_idf(ds)) == pytest.approx(10.0, abs=1e-9)

    def test_disjoint_candidates_score_zero(self, toy_dataset):
        preds = {(i, BlurLevel.MB0): "qqq www eee" for i in toy_dataset}
        assert corpus_cider_d(preds, toy_dataset, BlurLevel.MB0,
                              build_idf(toy_dataset)) == 0.0

    def test_toy_corpus_means_match_oracle(self, toy_dataset, toy_predictions):
        corpus = corpus_tokens(toy_dataset)
        idf = build_idf(toy_dataset)
        for level, expected in FROZEN_CORPUS_MEANS.items():
            mine = corpus_cider_d(toy_predictions, toy_dataset, level, idf)
            oracle = sum(
                cider_d_formula(
                    tokenize(toy_predictions[(i, level)]),
                    [tokenize(r) for r in toy_dataset[i]],
                    corpus)
                for i in toy_dataset) / 10
            assert abs(mine - oracle) < 1e-9
            assert mine == pytest.approx(expected, abs=1e-9)

    def test_huge_max_n_scales_score_and_runs_fast(self, toy_dataset,
                                                  toy_predictions):
        """Orders past the longest reference add 0 but still count in the
        mean over n, and are never interned."""
        longest = max(len(tokenize(r)) for refs in toy_dataset.values()
                      for r in refs)
        at_longest = corpus_cider_d(toy_predictions, toy_dataset, BlurLevel.MB1,
                                    build_idf(toy_dataset, longest),
                                    CiderConfig(max_n=longest))
        for max_n in (longest + 1, 10**9):
            start = time.perf_counter()
            score = corpus_cider_d(toy_predictions, toy_dataset, BlurLevel.MB1,
                                   build_idf(toy_dataset, max_n),
                                   CiderConfig(max_n=max_n))
            assert time.perf_counter() - start < 1.0
            assert abs(score * max_n - at_longest * longest) < 1e-9

    def test_missing_prediction_names_image(self, toy_dataset, toy_predictions):
        partial = {pair: caption for pair, caption in toy_predictions.items()
                   if pair != ("img05", BlurLevel.MB2)}
        with pytest.raises(ValueError, match="img05"):
            corpus_cider_d(partial, toy_dataset, BlurLevel.MB2,
                           build_idf(toy_dataset))

    def test_idf_table_scores_only_the_orders_it_counted(self, toy_dataset,
                                                         toy_predictions):
        """A table counted for n = 1 would give orders 2..4 the unseen idf
        ln N; it refuses them instead. A smaller max_n reads the table's
        first orders, which do not depend on how many it counted."""
        unigram = build_idf(toy_dataset, 1)
        assert (unigram.max_n, build_idf(toy_dataset).max_n) == (1, 4)
        with pytest.raises(ValueError, match="^idf table has max_n 1, not 4$"):
            corpus_cider_d(toy_predictions, toy_dataset, BlurLevel.MB0,
                           unigram, CiderConfig(max_n=4))
        with pytest.raises(ValueError, match="^idf table has max_n 1, not 2$"):
            cider_d(["a"], [["a"]], unigram, CiderConfig(max_n=2))
        one = CiderConfig(max_n=1)
        assert corpus_cider_d(toy_predictions, toy_dataset, BlurLevel.MB0,
                              build_idf(toy_dataset, 4), one) == corpus_cider_d(
            toy_predictions, toy_dataset, BlurLevel.MB0, unigram, one)


# Few distinct words, so n-grams repeat within and across texts (clipping),
# and texts down to empty, shorter than max_n.
_TEXT = st.lists(st.sampled_from(["a", "b", "dog", "runs"]), max_size=7)
_OTHER_TEXT = st.lists(st.sampled_from(["a", "dog", "owl", "sits"]), max_size=7)


def _images(text):
    """(candidate, references) per image."""
    return st.lists(st.tuples(text, st.lists(text, min_size=1, max_size=3)),
                    min_size=1, max_size=5)


def _dataset(refs_per_image):
    return tiny_dataset([[" ".join(r) for r in refs] for refs in refs_per_image])


class TestKernelMatchesFormula:
    @given(_images(_TEXT), st.one_of(st.none(), _images(_OTHER_TEXT)),
           st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_scores_match_direct_formula(self, scored, idf_images, max_n):
        """Per-image and corpus scores against `cider_d_formula`; the idf
        corpus is either the scored one or a different one, whose lookups
        miss and fall back to ln(corpus_size)."""
        cfg = CiderConfig(max_n=max_n)
        ds = _dataset([refs for _, refs in scored])
        corpus = [refs for _, refs in (idf_images or scored)]
        idf = build_idf(_dataset(corpus), max_n)
        per_image = []
        for candidate, refs in scored:
            score = cider_d(candidate, refs, idf, cfg)
            oracle = cider_d_formula(candidate, refs, corpus, max_n)
            assert abs(score - oracle) < 1e-9
            per_image.append(score)
        preds = {(i, BlurLevel.MB2): " ".join(candidate)
                 for i, (candidate, _) in zip(ds, scored)}
        mean = corpus_cider_d(preds, ds, BlurLevel.MB2, idf, cfg)
        assert mean == sum(per_image) / len(per_image)

    def test_scoring_makes_no_per_ngram_calls(self, toy_dataset,
                                              toy_predictions, monkeypatch):
        def per_ngram(*args):
            raise AssertionError("per-n-gram call on the scoring path")

        monkeypatch.setattr(blurbench.cider, "ngram_counts", per_ngram)
        mean = corpus_cider_d(toy_predictions, toy_dataset, BlurLevel.MB0,
                              build_idf(toy_dataset))
        assert mean == pytest.approx(FROZEN_CORPUS_MEANS[BlurLevel.MB0],
                                     abs=1e-9)

    def test_block_boundaries_do_not_change_scores(self, toy_dataset,
                                                   toy_predictions, monkeypatch):
        idf = build_idf(toy_dataset)
        whole = corpus_cider_d(toy_predictions, toy_dataset, BlurLevel.MB1, idf)
        monkeypatch.setattr(blurbench.cider, "_BLOCK_IMAGES", 3)
        assert corpus_cider_d(toy_predictions, toy_dataset,
                              BlurLevel.MB1, idf) == whole


class TestCiderConfig:
    def test_defaults(self):
        cfg = CiderConfig()
        assert (cfg.max_n, cfg.sigma, cfg.scale) == (4, 6.0, 10.0)

    def test_value_semantics_and_one_home_of_the_defaults(self):
        """A named tuple: built by position or keyword, equal to and hashed
        as the plain tuple of its fields, read-only. The CLI settings and
        `build_idf` take their defaults from `CiderConfig()`."""
        cfg = CiderConfig(4, sigma=6.0)
        assert cfg == CiderConfig() == (4, 6.0, 10.0)
        assert hash(cfg) == hash((4, 6.0, 10.0))
        assert repr(cfg) == "CiderConfig(max_n=4, sigma=6.0, scale=10.0)"
        with pytest.raises(AttributeError):
            cfg.sigma = 1.0
        assert {name: cli._SETTINGS[name][1] for name in cfg._fields} == \
            cfg._asdict()
        assert inspect.signature(build_idf).parameters["max_n"].default == 4

    @pytest.mark.parametrize("kwargs", [
        {"max_n": 0}, {"sigma": 0.0}, {"sigma": -1.0}, {"scale": 0.0},
        {"sigma": math.nan}, {"sigma": math.inf}, {"scale": math.nan},
        {"scale": math.inf}, {"sigma": 1e-162}, {"scale": 2e291},
    ])
    def test_invalid_rejected(self, kwargs):
        """By every construction path: the constructor, `_make` and
        `_replace`."""
        values = {**CiderConfig()._asdict(), **kwargs}
        for build in (lambda: CiderConfig(**kwargs),
                      lambda: CiderConfig._make(values.values()),
                      lambda: CiderConfig()._replace(**kwargs)):
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("kwargs,oracle_checks", [
        ({"sigma": 1.2e-162}, 0), ({"sigma": 1e-160}, 3), ({"sigma": 1e300}, 0),
        ({"scale": 1e291}, 3)])
    def test_extreme_accepted_settings_score_finite_silently(
            self, toy_dataset, toy_predictions, kwargs, oracle_checks):
        """Finite scores and no numpy warning; the oracle's `sigma ** 2`
        overflows or underflows at the other two sigmas."""
        cfg = CiderConfig(**kwargs)
        corpus = corpus_tokens(toy_dataset)
        idf = build_idf(toy_dataset)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for level in BlurLevel:
                assert math.isfinite(corpus_cider_d(toy_predictions, toy_dataset,
                                                    level, idf, cfg))
            for i in list(toy_dataset)[:oracle_checks]:
                candidate = tokenize(toy_predictions[(i, BlurLevel.MB1)])
                refs = [tokenize(r) for r in toy_dataset[i]]
                oracle = cider_d_formula(candidate, refs, corpus,
                                         sigma=cfg.sigma, scale=cfg.scale)
                assert cider_d(candidate, refs, idf, cfg) == pytest.approx(
                    oracle, rel=1e-9, abs=1e-9)
