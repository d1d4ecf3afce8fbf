"""Consensus-based caption scoring (CIDEr-D).

Candidate and reference captions are compared as idf-weighted n-gram
vectors for n = 1..4. Per reference, the candidate's weights are clipped
to that reference's weights before the dot product (so stuffing a
frequent n-gram cannot inflate the score), the cosine similarity is
multiplied by a Gaussian penalty on the token-length difference, and the
result is averaged over references, then over n, then scaled by 10.
Scores therefore live in [0, 10].

Document frequencies count images, not captions: an n-gram's df is the
number of images whose reference set contains it at least once, and
idf(g) = ln(corpus_size / max(1, df(g))), so unseen n-grams fall back to
the full ln(corpus_size) weight instead of dividing by zero.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .imaging import BlurLevel
from .ingest import Dataset, PredictionSet

TokenSeq = list[str]
NGram = tuple[str, ...]

_NON_TOKEN = re.compile(r"[^a-z0-9]+")


def tokenize(text: str) -> TokenSeq:
    """Lowercase, replace every character outside [a-z0-9] by a space, split."""
    return [t for t in _NON_TOKEN.split(text.lower()) if t]


def ngram_counts(tokens: Sequence[str], max_n: int = 4) -> dict[int, Counter]:
    """Occurrence counts of contiguous n-grams for n = 1..max_n."""
    return {
        n: Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
        for n in range(1, max_n + 1)
    }


@dataclass(frozen=True)
class CiderConfig:
    max_n: int = 4
    sigma: float = 6.0
    scale: float = 10.0

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError("max_n must be >= 1")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")


DEFAULT_CONFIG = CiderConfig()


@dataclass
class IdfTable:
    """Per-image document frequencies over a reference corpus."""

    corpus_size: int
    df: dict[NGram, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.corpus_size < 1:
            raise ValueError("corpus_size must be >= 1")
        bad = {g: n for g, n in self.df.items()
               if n < 1 or n > self.corpus_size}
        if bad:
            raise ValueError(f"document frequencies out of range: {bad}")

    def idf(self, gram: NGram) -> float:
        return math.log(self.corpus_size / max(1, self.df.get(gram, 0)))


def build_idf(ds: Dataset, max_n: int = 4) -> IdfTable:
    """df(g) = number of images with g in at least one reference caption."""
    if not ds.images:
        raise ValueError("empty dataset")
    df: dict[NGram, int] = {}
    for image_id in ds.image_ids():
        grams: set[NGram] = set()
        for caption in ds.references[image_id]:
            for counter in ngram_counts(tokenize(caption), max_n).values():
                grams.update(counter)
        for gram in grams:
            df[gram] = df.get(gram, 0) + 1
    return IdfTable(len(ds.images), df)


def length_penalty(candidate_len: int, ref_len: int, sigma: float) -> float:
    """Gaussian penalty on the token-count difference, 1 at equal lengths."""
    delta = candidate_len - ref_len
    return math.exp(-(delta * delta) / (2.0 * sigma * sigma))


def _weighted_vectors(counts: dict[int, Counter], idf: IdfTable):
    """tf*idf weight vector and its Euclidean norm, per n."""
    vectors: dict[int, dict[NGram, float]] = {}
    norms: dict[int, float] = {}
    for n, counter in counts.items():
        vec = {g: tf * idf.idf(g) for g, tf in counter.items()}
        vectors[n] = vec
        norms[n] = math.sqrt(sum(w * w for w in vec.values()))
    return vectors, norms


def cider_d(candidate: Sequence[str], refs: Sequence[Sequence[str]],
            idf: IdfTable, cfg: CiderConfig = DEFAULT_CONFIG) -> float:
    """Score one tokenized candidate against its tokenized references."""
    if not refs:
        raise ValueError("empty reference list")
    cand_vecs, cand_norms = _weighted_vectors(
        ngram_counts(candidate, cfg.max_n), idf)
    totals = [0.0] * cfg.max_n
    for ref in refs:
        ref_vecs, ref_norms = _weighted_vectors(
            ngram_counts(ref, cfg.max_n), idf)
        penalty = length_penalty(len(candidate), len(ref), cfg.sigma)
        for n in range(1, cfg.max_n + 1):
            if cand_norms[n] == 0.0 or ref_norms[n] == 0.0:
                continue  # zero-norm side contributes nothing, never NaN
            dot = 0.0
            for gram, weight in cand_vecs[n].items():
                ref_weight = ref_vecs[n].get(gram, 0.0)
                dot += min(weight, ref_weight) * ref_weight
            totals[n - 1] += dot / (cand_norms[n] * ref_norms[n]) * penalty
    mean_over_refs_and_n = sum(t / len(refs) for t in totals) / cfg.max_n
    return cfg.scale * mean_over_refs_and_n


def corpus_cider_d(preds: PredictionSet, ds: Dataset, level: BlurLevel,
                   cfg: CiderConfig = DEFAULT_CONFIG,
                   idf: IdfTable | None = None) -> float:
    """Mean per-image score at one blur level.

    The idf table comes from the dataset's own references unless an
    explicit one is passed (e.g. to reuse across levels). Every dataset
    image must have a candidate at `level`.
    """
    if idf is None:
        idf = build_idf(ds, cfg.max_n)
    missing = [i for i in ds.image_ids()
               if (i, level) not in preds.candidates]
    if missing:
        raise ValueError(
            f"missing predictions at {level.name} for images: {missing}")
    scores = [
        cider_d(
            tokenize(preds.caption_for(image_id, level)),
            [tokenize(r) for r in ds.references[image_id]],
            idf, cfg)
        for image_id in ds.image_ids()
    ]
    return sum(scores) / len(scores)
