"""CIDEr-D scoring against the direct-formula reference."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurbench.cider import (
    CiderConfig,
    IdfTable,
    build_idf,
    cider_d,
    corpus_cider_d,
    length_penalty,
    ngram_counts,
    tokenize,
)
from blurbench.imaging import BlurLevel
from blurbench.ingest import Dataset
from oracles import cider_d_formula, document_frequency

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
    return [[tokenize(r) for r in dataset.references[i]]
            for i in dataset.image_ids()]


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
    images = [(f"i{k}", f"i{k}.ppm") for k in range(len(captions_per_image))]
    refs = {f"i{k}": caps for k, caps in enumerate(captions_per_image)}
    return Dataset(images, refs)


class TestBuildIdf:
    def test_shared_ngram_has_zero_idf(self):
        ds = tiny_dataset([["a cat sits"], ["a cat sleeps"]])
        idf = build_idf(ds)
        assert idf.df[("a", "cat")] == 2
        assert idf.idf(("a", "cat")) == 0.0

    def test_unique_ngram_idf_is_ln2(self):
        ds = tiny_dataset([["a cat sits"], ["a dog runs"]])
        idf = build_idf(ds)
        assert idf.idf(("cat",)) == pytest.approx(math.log(2))

    def test_unseen_ngram_gets_full_weight(self):
        ds = tiny_dataset([["a cat"], ["a dog"]])
        assert build_idf(ds).idf(("zebra",)) == pytest.approx(math.log(2))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_idf(Dataset([], {}))

    def test_toy_corpus_matches_recount(self, toy_dataset):
        idf = build_idf(toy_dataset)
        recount = document_frequency(corpus_tokens(toy_dataset))
        assert idf.df == recount
        assert idf.corpus_size == 10

    def test_df_bounds_validated(self):
        with pytest.raises(ValueError):
            IdfTable(2, {("x",): 3})


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
        refs = [tokenize(r) for r in toy_dataset.references["img00"]]
        score = cider_d(tokenize("zebras juggle purple xylophones"), refs, idf)
        assert score == 0.0

    def test_empty_reference_list_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            cider_d(["a"], [], build_idf(toy_dataset))

    def test_empty_candidate_scores_zero_not_nan(self, toy_dataset):
        idf = build_idf(toy_dataset)
        refs = [tokenize(r) for r in toy_dataset.references["img00"]]
        assert cider_d([], refs, idf) == 0.0

    def test_matches_oracle_on_all_toy_candidates(self, toy_dataset,
                                                  toy_predictions):
        idf = build_idf(toy_dataset)
        corpus = corpus_tokens(toy_dataset)
        for (image_id, level), caption in toy_predictions.candidates.items():
            candidate = tokenize(caption)
            refs = [tokenize(r) for r in toy_dataset.references[image_id]]
            mine = cider_d(candidate, refs, idf)
            oracle = cider_d_formula(candidate, refs, corpus)
            assert abs(mine - oracle) < 1e-9, (image_id, level)

    def test_frozen_values(self, toy_dataset, toy_predictions):
        idf = build_idf(toy_dataset)
        for (image_id, level), expected in FROZEN_SCORES.items():
            candidate = tokenize(toy_predictions.caption_for(image_id, level))
            refs = [tokenize(r) for r in toy_dataset.references[image_id]]
            assert cider_d(candidate, refs, idf) == pytest.approx(
                expected, abs=1e-9)

    def test_reference_order_irrelevant(self, toy_dataset, toy_predictions):
        idf = build_idf(toy_dataset)
        candidate = tokenize(toy_predictions.caption_for("img04", BlurLevel.MB1))
        refs = [tokenize(r) for r in toy_dataset.references["img04"]]
        assert cider_d(candidate, refs, idf) == \
            cider_d(candidate, list(reversed(refs)), idf)

    def test_duplicated_reference_only_reaverages(self, toy_dataset,
                                                  toy_predictions):
        idf = build_idf(toy_dataset)
        corpus = corpus_tokens(toy_dataset)
        candidate = tokenize(toy_predictions.caption_for("img06", BlurLevel.MB0))
        refs = [tokenize(r) for r in toy_dataset.references["img06"]]
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
        weight = idf.idf(("dog",))
        assert min(4 * weight, 1 * weight) * weight == weight * weight
        score = cider_d(tokenize("dog dog dog dog"), [ref], idf)
        # only the unigram share can be nonzero; reconstruct it by hand
        ref_norm = math.sqrt(sum(w * w for w in (
            idf.idf(g) for g in ngram_counts(ref)[1])))
        expected = 10.0 / 4.0 * (weight * weight) / (4 * weight * ref_norm)
        assert score == pytest.approx(expected, abs=1e-12)
        # stuffing more copies cannot raise the score: the numerator is
        # capped while the candidate norm keeps growing
        worse = cider_d(tokenize("dog dog dog dog dog dog"), [ref], idf)
        assert worse < score

    def test_score_range_property(self, toy_dataset):
        idf = build_idf(toy_dataset)
        refs = [tokenize(r) for r in toy_dataset.references["img02"]]
        for text in ("a", "a kitchen", "white cabinets and a stove in a kitchen",
                     "entirely unrelated words", ""):
            score = cider_d(tokenize(text), refs, idf)
            assert 0.0 <= score <= 10.0

    @given(st.lists(st.lists(_WORDS, min_size=1, max_size=8),
                    min_size=1, max_size=4),
           st.lists(_WORDS, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_score_range_random(self, ref_token_lists, candidate):
        images = [("i0", "i0.ppm"), ("i1", "i1.ppm")]
        refs = {"i0": [" ".join(toks) for toks in ref_token_lists],
                "i1": ["completely different text here"]}
        idf = build_idf(Dataset(images, refs))
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
        from blurbench.ingest import PredictionSet
        preds = PredictionSet({
            (i, BlurLevel.MB0): ds.references[i][0] for i in ds.image_ids()})
        assert corpus_cider_d(preds, ds, BlurLevel.MB0) == pytest.approx(
            10.0, abs=1e-9)

    def test_disjoint_candidates_score_zero(self, toy_dataset):
        from blurbench.ingest import PredictionSet
        preds = PredictionSet({
            (i, BlurLevel.MB0): "qqq www eee" for i in toy_dataset.image_ids()})
        assert corpus_cider_d(preds, toy_dataset, BlurLevel.MB0) == 0.0

    def test_toy_corpus_means_match_oracle(self, toy_dataset, toy_predictions):
        corpus = corpus_tokens(toy_dataset)
        for level, expected in FROZEN_CORPUS_MEANS.items():
            mine = corpus_cider_d(toy_predictions, toy_dataset, level)
            oracle = sum(
                cider_d_formula(
                    tokenize(toy_predictions.caption_for(i, level)),
                    [tokenize(r) for r in toy_dataset.references[i]],
                    corpus)
                for i in toy_dataset.image_ids()) / 10
            assert abs(mine - oracle) < 1e-9
            assert mine == pytest.approx(expected, abs=1e-9)

    def test_missing_prediction_names_image(self, toy_dataset, toy_predictions):
        from blurbench.ingest import PredictionSet
        partial = PredictionSet({
            pair: caption
            for pair, caption in toy_predictions.candidates.items()
            if pair != ("img05", BlurLevel.MB2)})
        with pytest.raises(ValueError, match="img05"):
            corpus_cider_d(partial, toy_dataset, BlurLevel.MB2)


class TestCiderConfig:
    def test_defaults(self):
        cfg = CiderConfig()
        assert (cfg.max_n, cfg.sigma, cfg.scale) == (4, 6.0, 10.0)

    @pytest.mark.parametrize("kwargs", [
        {"max_n": 0}, {"sigma": 0.0}, {"sigma": -1.0}, {"scale": 0.0},
        {"sigma": math.nan}, {"sigma": math.inf}, {"scale": math.nan},
        {"scale": math.inf},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CiderConfig(**kwargs)
