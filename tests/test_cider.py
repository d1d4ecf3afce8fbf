"""CIDEr-D scoring against the direct-formula reference."""

import inspect
import math
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blurbench.cider
from blurbench import cli
from blurbench.cider import (
    CiderConfig,
    _find,
    _int_type,
    _intern,
    build_idf,
    check_coverage,
    cider_d,
    corpus_cider_d,
    length_penalty,
    ngram_counts,
    tokenize,
)
from blurbench.imaging import BlurLevel
from blurbench.ingest import parse_captions, parse_predictions
from conftest import DATA_DIR
from oracles import (cider_d_formula, document_frequency, idf_of,
                     intern_reference, tokens)

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


def seeded_split(seed, n_images, vocabulary=2000):
    """`n_images` images of 5 captions each, 8-14 words drawn with Zipf
    weights from `vocabulary` three-syllable words."""
    rng = np.random.default_rng(seed)
    syllables = [c + v for c in "bcdfghklmnprstvwz" for v in "aeiou"]
    words = sorted({"".join(rng.choice(syllables, size=3))
                    for _ in range(vocabulary)})
    weights = 1.0 / np.arange(1, len(words) + 1) ** 1.1
    weights /= weights.sum()

    def caption():
        size = int(rng.integers(8, 15))
        return " ".join(rng.choice(words, size=size, p=weights))

    return {f"img{i}": [caption() for _ in range(5)] for i in range(n_images)}


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
            idf_of(build_idf(toy_dataset, CiderConfig(max_n=1)), ("on", "a"))

    def test_toy_corpus_matches_recount(self, toy_dataset):
        """idf = ln(N / df) with df recounted by the oracle for every
        n-gram of the corpus, and ln N for n-grams the corpus lacks."""
        idf = build_idf(toy_dataset)
        recount = document_frequency(corpus_tokens(toy_dataset))
        assert (len(idf.split), idf.cfg) == (10, CiderConfig())
        for gram, df in recount.items():
            assert idf_of(idf, gram) == pytest.approx(math.log(10 / df),
                                                  abs=1e-12), gram
        for gram in [("zebra",), ("a", "zebra"), ("kitchen", "a"),
                     ("a", "a", "a", "a")]:
            assert gram not in recount
            assert idf_of(idf, gram) == pytest.approx(math.log(10), abs=1e-12)

    def test_peak_of_a_1000_image_split(self):
        """`build_idf` holds one string per distinct token and one n-gram
        order's arrays at a time, each stored int32 and gathered with intp
        indices: on 1 000 images (about 55 000 token occurrences) it peaks
        near 76 bytes per occurrence, 73 with int32 indices. With int64
        arrays it peaked near 108, and holding every token string and all
        four orders at once near 177."""
        split = seeded_split(7, 1000)
        occurrences = sum(len(tokenize(c)) for refs in split.values()
                          for c in refs)
        build_idf(split)  # numpy's lazy imports and caches are not counted
        tracemalloc.start()
        try:
            build_idf(split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 95 * occurrences, peak / occurrences


_TOKEN = st.one_of(st.sampled_from(["a", "b", "ab", "a b", "", "\udcff", "é"]),
                   st.text(max_size=3))


class TestIntern:
    @given(st.lists(st.lists(_TOKEN, max_size=8), max_size=6),
           st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_order_by_order(self, texts, max_n):
        """Same vocabulary, sizes and per-order (text, ids, keys) arrays as
        `intern_reference`, with repeated and odd tokens, empty texts and
        max_n past the longest text. Each array is int32 unless its bound
        reaches the int32 limit, here lowered to show the int64 side: the
        number of occurrences plus texts, or for the keys of an order n > 1
        the number of (n-1)-grams times the vocabulary size."""
        want_vocab, want_sizes, want_orders = intern_reference(texts, max_n)
        index = sum(map(len, texts)) + len(texts)
        for limit in (2 ** 31, index, 0):
            def expected_type(bound):
                return np.int32 if bound < limit else np.int64

            with mock.patch.object(blurbench.cider, "_INT32_LIMIT", limit):
                vocab, sizes, orders = _intern(iter(texts), max_n)
                orders = list(orders)
            assert vocab == want_vocab
            assert sizes.dtype == expected_type(index)
            assert sizes.tolist() == want_sizes.tolist()
            assert len(orders) == len(want_orders)
            for n, (got, want) in enumerate(zip(orders, want_orders), 1):
                key_bound = (index if n == 1
                             else len(orders[n - 2][2]) * len(vocab))
                for array, expected, bound in zip(got, want,
                                                  (index, index, key_bound)):
                    assert array.dtype == expected_type(bound)
                    assert array.tolist() == expected.tolist()

    def test_reading_holds_each_distinct_token_once(self):
        """While `_intern` reads its texts it holds a number per token
        occurrence and one string per distinct token: on 1 000 images,
        near 13 bytes per occurrence. Holding every token string it read
        took near 65."""
        captions = [c for refs in seeded_split(7, 1000).values() for c in refs]
        occurrences = sum(len(tokenize(c)) for c in captions)
        held = []

        def tokenized():
            yield from map(tokenize, captions)
            held.append(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            _intern(tokenized(), 4)
        finally:
            tracemalloc.stop()
        assert held[0] < 32 * occurrences, held[0] / occurrences


class TestFind:
    @given(st.lists(st.integers(0, 40), max_size=12, unique=True).map(sorted),
           st.lists(st.integers(-3, 45), max_size=12),
           st.sampled_from([np.int32, np.int64]))
    @example([], [-1, 0, 7], np.int32)
    @example([2, 5, 9], [-1, 1, 2, 2, 9, 10, 9], np.int64)
    @settings(max_examples=300, deadline=None)
    def test_matches_a_linear_scan(self, table, keys, dtype):
        """The index where the sorted table holds each key, else -1: with an
        empty table, keys below the first entry and past the last, -1 keys
        and repeated keys, table and keys both int32 or both int64."""
        found = _find(np.array(table, dtype), np.array(keys, dtype))
        assert found.tolist() == [table.index(k) if k in table else -1
                                  for k in keys]


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

    def test_int32_lengths_square_without_wrapping(self):
        """A gap of 50 000 tokens squares past 2**31."""
        short, long = np.zeros(1, np.int32), np.full(1, 50_000, np.int32)
        assert length_penalty(long, short, 1e4)[0] == pytest.approx(
            math.exp(-12.5), rel=1e-12)


class TestCorpusCiderD:
    def test_identical_candidates_score_ten(self):
        ds = tiny_dataset([["a black dog runs fast"],
                           ["purple trains hum at night"],
                           ["seven owls watch green rivers"]])
        preds = {(i, BlurLevel.MB0): ds[i][0] for i in ds}
        assert corpus_cider_d(preds, BlurLevel.MB0,
                              build_idf(ds)) == pytest.approx(10.0, abs=1e-9)

    def test_disjoint_candidates_score_zero(self, toy_dataset):
        preds = {(i, BlurLevel.MB0): "qqq www eee" for i in toy_dataset}
        assert corpus_cider_d(preds, BlurLevel.MB0,
                              build_idf(toy_dataset)) == 0.0

    def test_toy_corpus_means_match_oracle(self, toy_dataset, toy_predictions):
        corpus = corpus_tokens(toy_dataset)
        idf = build_idf(toy_dataset)
        for level, expected in FROZEN_CORPUS_MEANS.items():
            mine = corpus_cider_d(toy_predictions, level, idf)
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
        at_longest = corpus_cider_d(
            toy_predictions, BlurLevel.MB1,
            build_idf(toy_dataset, CiderConfig(max_n=longest)))
        for max_n in (longest + 1, 10**9):
            start = time.perf_counter()
            score = corpus_cider_d(
                toy_predictions, BlurLevel.MB1,
                build_idf(toy_dataset, CiderConfig(max_n=max_n)))
            assert time.perf_counter() - start < 1.0
            assert abs(score * max_n - at_longest * longest) < 1e-9

    def test_empty_split_rejected(self):
        """An empty split has no mean: `build_idf` refuses it under every
        config, so no table `corpus_cider_d` reads holds one."""
        for cfg in (CiderConfig(), CiderConfig(max_n=1, scale=1.0)):
            with pytest.raises(ValueError, match="^empty dataset$"):
                build_idf({}, cfg)

    def test_mean_is_a_correctly_rounded_sum(self, monkeypatch):
        """1 + 2**-53 + 2**-106 rounds to 1 + 2**-52, which a sum that
        rounds after each add, or a compensated one, gives as 1.0."""
        per_image = [1.0, 2 ** -53, 2 ** -106]
        monkeypatch.setattr(blurbench.cider, "_score_block",
                            lambda *args: np.array(per_image))
        split = tiny_dataset([["a"], ["b"], ["c"]])
        preds = {(i, BlurLevel.MB0): "a" for i in split}
        mean = corpus_cider_d(preds, BlurLevel.MB0, build_idf(split))
        assert mean == math.fsum(per_image) / 3 == 0.3333333333333334

    def test_peak_of_a_1000_image_block(self):
        """A block's texts stream into `_intern` and its n-gram orders
        through the idf lookup one at a time, and each order's arrays are
        freed before the next is computed: on 1 000 images (about 66 000
        token occurrences, references and candidates) a score peaks near
        107 bytes per occurrence. Holding one order's arrays while the next
        was computed peaked near 124, and holding every token list and all
        four orders at once near 195."""
        split = seeded_split(7, 1000)
        preds = {(i, BlurLevel.MB0): " ".join(refs[0].split()[::-1])
                 for i, refs in split.items()}
        occurrences = sum(len(tokenize(c)) for refs in split.values()
                          for c in [*refs, refs[0]])
        idf = build_idf(split)
        corpus_cider_d(preds, BlurLevel.MB0, idf)  # warm-up, not counted
        tracemalloc.start()
        try:
            corpus_cider_d(preds, BlurLevel.MB0, idf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 115 * occurrences, peak / occurrences

    def test_missing_prediction_names_image(self, toy_dataset, toy_predictions):
        partial = {pair: caption for pair, caption in toy_predictions.items()
                   if pair != ("img05", BlurLevel.MB2)}
        with pytest.raises(ValueError, match="img05"):
            corpus_cider_d(partial, BlurLevel.MB2, build_idf(toy_dataset))

    def test_many_missing_predictions_listed_on_one_short_line(
            self, toy_dataset, toy_predictions):
        """`check_coverage`, which `corpus_cider_d` calls, lists the first 5
        images without a prediction and the count of the rest."""
        error = ("missing predictions at MB2 for images: ['img00', 'img01', "
                 "'img02', 'img04', 'img05'] and 4 more")
        kept = {pair: caption for pair, caption in toy_predictions.items()
                if pair[1] is not BlurLevel.MB2 or pair[0] == "img03"}
        with pytest.raises(ValueError) as info:
            check_coverage(kept, toy_dataset, BlurLevel.MB2)
        assert str(info.value) == error
        with pytest.raises(ValueError) as info:
            corpus_cider_d(kept, BlurLevel.MB2, build_idf(toy_dataset))
        assert str(info.value) == error
        check_coverage(kept, toy_dataset, BlurLevel.MB1)

    def test_unigram_table_scores_with_its_own_max_n(self, toy_dataset,
                                                     toy_predictions):
        """A table built for max_n = 1 scores unigrams only, divided by 1:
        per image and in the corpus mean, as the formula with max_n = 1."""
        unigram = build_idf(toy_dataset, CiderConfig(max_n=1))
        corpus = corpus_tokens(toy_dataset)
        oracle = []
        for i in toy_dataset:
            candidate = tokenize(toy_predictions[(i, BlurLevel.MB0)])
            refs = [tokenize(r) for r in toy_dataset[i]]
            oracle.append(cider_d_formula(candidate, refs, corpus, max_n=1))
            assert abs(cider_d(candidate, refs, unigram) - oracle[-1]) < 1e-9
        assert abs(corpus_cider_d(toy_predictions, BlurLevel.MB0, unigram)
                   - math.fsum(oracle) / len(oracle)) < 1e-9

    def test_subset_table_scores_the_subset_with_its_own_idf(
            self, toy_dataset, toy_predictions):
        """A table built from a subset scores that subset, with idf counted
        over the subset's own references."""
        subset = {i: toy_dataset[i] for i in list(toy_dataset)[::3]}
        corpus = corpus_tokens(subset)
        oracle = math.fsum(
            cider_d_formula(tokenize(toy_predictions[(i, BlurLevel.MB0)]),
                            [tokenize(r) for r in subset[i]], corpus)
            for i in subset) / len(subset)
        mean = corpus_cider_d(toy_predictions, BlurLevel.MB0, build_idf(subset))
        assert abs(mean - oracle) < 1e-9
        assert abs(mean - corpus_cider_d(toy_predictions, BlurLevel.MB0,
                                         build_idf(toy_dataset))) > 1e-3


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
        """Per-image scores against `cider_d_formula`; the idf corpus is
        either the scored one or a different one, whose lookups miss and
        fall back to ln N. The corpus score of the scored split is the
        mean of its per-image scores under its own table."""
        cfg = CiderConfig(max_n=max_n)
        ds = _dataset([refs for _, refs in scored])
        corpus = [refs for _, refs in (idf_images or scored)]
        idf = build_idf(_dataset(corpus), cfg)
        own = idf if idf_images is None else build_idf(ds, cfg)
        per_image = []
        for candidate, refs in scored:
            score = cider_d(candidate, refs, idf)
            oracle = cider_d_formula(candidate, refs, corpus, max_n)
            assert abs(score - oracle) < 1e-9
            per_image.append(cider_d(candidate, refs, own))
        preds = {(i, BlurLevel.MB2): " ".join(candidate)
                 for i, (candidate, _) in zip(ds, scored)}
        mean = corpus_cider_d(preds, BlurLevel.MB2, own)
        assert mean == math.fsum(per_image) / len(per_image)

    def test_scoring_makes_no_per_ngram_calls(self, toy_dataset,
                                              toy_predictions, monkeypatch):
        def per_ngram(*args):
            raise AssertionError("per-n-gram call on the scoring path")

        monkeypatch.setattr(blurbench.cider, "ngram_counts", per_ngram)
        mean = corpus_cider_d(toy_predictions, BlurLevel.MB0,
                              build_idf(toy_dataset))
        assert mean == pytest.approx(FROZEN_CORPUS_MEANS[BlurLevel.MB0],
                                     abs=1e-9)

    def test_block_boundaries_do_not_change_scores(self, monkeypatch):
        """An n-gram's id is the rank of its token tuple, so each text's
        rows, and every sum over them, come in the same order whatever
        block its image falls in: the corpus score is the same float."""
        for name in ("toy", "odd"):
            split = parse_captions(
                (DATA_DIR / f"{name}_captions.json").read_bytes())
            preds = parse_predictions(
                (DATA_DIR / f"{name}_predictions.json").read_bytes())
            idf = build_idf(split)
            for level in BlurLevel:
                scores = set()
                for size in (1, 3, 7, 1000, len(split)):
                    monkeypatch.setattr(blurbench.cider, "_BLOCK_IMAGES", size)
                    scores.add(corpus_cider_d(preds, level, idf))
                assert len(scores) == 1, (name, level, scores)


class TestIntegerWidth:
    def test_int32_holds_bounds_below_2_to_the_31(self):
        assert _int_type(2 ** 31 - 1) is np.int32
        assert _int_type(2 ** 31) is np.int64

    def test_split_past_int32_scores_as_with_int64_arrays(self, monkeypatch):
        """65 536 images, two of each caption, over 65 792 tokens: the
        (image, n-gram) pairs, the keys of orders 2 and 3 and the rows of a
        block holding every reference pass 2**31, so those arrays are int64
        and the rest int32, and scores and idf are the floats that all-int64
        arrays give. Arrays that meet in a binary search share a dtype, so
        numpy copies neither."""
        find = blurbench.cider._find

        def same_dtype_find(table, keys):
            assert table.dtype == keys.dtype
            return find(table, keys)

        monkeypatch.setattr(blurbench.cider, "_find", same_dtype_find)
        split = tiny_dataset([[f"z{i // 2 % 256} b{i // 2} c{i // 2}"]
                              for i in range(2 ** 16)])
        refs = [tokenize(refs[0]) for refs in split.values()]
        candidate = ["z0", "b0", "c0", "z1"]
        results = []
        for limit in (2 ** 31, 0):
            monkeypatch.setattr(blurbench.cider, "_INT32_LIMIT", limit)
            idf = build_idf(split)
            results.append(([k.dtype for k in idf._keys],
                            cider_d(candidate, refs, idf),
                            idf_of(idf, ("z0", "b0"))))
        assert results[0][0] == [np.int32, np.int64, np.int64]
        assert results[1][0] == [np.int64] * 3
        assert results[0][1:] == results[1][1:]
        assert results[0][2] == math.log(2 ** 15)


class TestCiderConfig:
    def test_defaults(self):
        cfg = CiderConfig()
        assert (cfg.max_n, cfg.sigma, cfg.scale) == (4, 6.0, 10.0)

    def test_value_semantics_and_one_home_of_the_defaults(self):
        """A named tuple: built by position or keyword, equal to and hashed
        as the plain tuple of its fields, read-only. The CLI settings and
        `build_idf` take their defaults from `CiderConfig()`, and
        `build_idf` is the one scoring function that takes a config."""
        cfg = CiderConfig(4, sigma=6.0)
        assert cfg == CiderConfig() == (4, 6.0, 10.0)
        assert hash(cfg) == hash((4, 6.0, 10.0))
        assert repr(cfg) == "CiderConfig(max_n=4, sigma=6.0, scale=10.0)"
        with pytest.raises(AttributeError):
            cfg.sigma = 1.0
        assert {name: cli._SETTINGS[name][1] for name in cfg._fields} == \
            cfg._asdict()
        assert inspect.signature(build_idf).parameters["cfg"].default == cfg
        for scorer in (corpus_cider_d, cider_d):
            assert "cfg" not in inspect.signature(scorer).parameters

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
        idf = build_idf(toy_dataset, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for level in BlurLevel:
                assert math.isfinite(corpus_cider_d(toy_predictions, level, idf))
            for i in list(toy_dataset)[:oracle_checks]:
                candidate = tokenize(toy_predictions[(i, BlurLevel.MB1)])
                refs = [tokenize(r) for r in toy_dataset[i]]
                oracle = cider_d_formula(candidate, refs, corpus,
                                         sigma=cfg.sigma, scale=cfg.scale)
                assert cider_d(candidate, refs, idf) == pytest.approx(
                    oracle, rel=1e-9, abs=1e-9)
