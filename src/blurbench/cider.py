"""Consensus-based caption scoring (CIDEr-D).

Candidate and reference captions are compared as idf-weighted n-gram
vectors for n = 1..4. Per reference, the candidate's weights are clipped
to that reference's weights before the dot product (so stuffing a
frequent n-gram cannot inflate the score), the cosine similarity is
multiplied by a Gaussian penalty on the token-length difference, and the
result is averaged over references, then over n, then scaled by 10.
Scores therefore live in [0, 10]. An order n longer than the longest text
has no n-grams and adds 0, so such orders are never interned, while the
mean still divides by max_n: for every max_n M at or above the longest
reference's length L, score(M) * M == score(L) * L, and a huge max_n
costs no more time than L.

Tokens are the runs of [a-z0-9] in the lowercased text: every other
character, non-ASCII letters and digits included, separates tokens, so
"Café №9" gives ["caf", "9"].

Document frequencies count images, not captions: an n-gram's df is the
number of images whose reference set contains it at least once, and
idf(g) = ln(corpus_size / max(1, df(g))), so unseen n-grams fall back to
the full ln(corpus_size) weight instead of dividing by zero.

Scoring is vectorized over a block of images. Every n-gram occurrence
gets an integer id (`_intern`), occurrences collapse into distinct
(text, n-gram, tf) rows, and norms, clipped dot products and the means
over references are numpy segment sums over those rows. An `IdfTable`
is compiled the same way, so idf lookups are binary searches into
sorted n-gram keys.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence

from . import _lazy_import
from .imaging import BlurLevel
from .ingest import Split

np = _lazy_import("numpy")

#: `tokenize`'s byte table: the bytes of [a-z0-9] kept, all others spaces
_SEPARATORS = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789"
                    else 32 for b in range(256))

#: Images per scoring block in `corpus_cider_d`; bounds the size of the
#: interned arrays, and so peak memory, whatever the split size.
_BLOCK_IMAGES = 1000


def tokenize(text: str) -> list[str]:
    """Lowercase, replace every character outside [a-z0-9] by a space, split."""
    # non-ASCII UTF-8 bytes are >= 0x80, so separators; surrogatepass takes
    # the lone surrogates that a JSON escape can give
    return (text.lower().encode("utf-8", "surrogatepass")
            .translate(_SEPARATORS).decode("ascii").split())


def ngram_counts(tokens: Sequence[str], max_n: int = 4) -> dict[int, Counter]:
    """Occurrence counts of contiguous n-grams for n = 1..max_n."""
    return {
        n: Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
        for n in range(1, max_n + 1)
    }


class CiderConfig(namedtuple("CiderConfig", "max_n sigma scale")):
    __slots__ = ()

    def __new__(cls, max_n: int = 4, sigma: float = 6.0, scale: float = 10.0):
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        if not 0.0 < sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if 2.0 * sigma * sigma == 0.0:  # 0 / 0 at equal lengths
            raise ValueError("sigma is too small: 2 * sigma**2 underflows to 0")
        if not 0.0 < scale < math.inf:
            raise ValueError("scale must be positive and finite")
        if scale > 1e291:  # fewer than 2**53 such scores sum finite
            raise ValueError("scale must be at most 1e291")
        return super().__new__(cls, max_n, sigma, scale)

    _make = classmethod(lambda cls, values: cls(*values))  # checks _replace too


def _intern(texts: Iterable[Sequence[str]], max_n: int):
    """Integer ids of every n-gram occurrence in `texts`, for n = 1 up to
    max_n or the longest text's length, whichever is smaller.

    A token's id is its rank in the sorted vocabulary. An n-gram (n > 1)
    has the key (id of its (n-1)-gram prefix) * len(vocabulary) + (id of
    its last token), and its id is the rank of that key among the
    distinct keys, so ids depend on the set of n-grams, not on text order.

    Returns the vocabulary, the token count of each text, and per n the
    arrays (text of each occurrence, n-gram id of each occurrence,
    n-gram key of each id). Keys stay below len(tokens) ** 2, so int64
    holds them for any corpus that fits in memory.
    """
    lengths: list[int] = []
    flat: list[str] = []
    for text in texts:
        lengths.append(len(text))
        flat += text
    vocab = sorted(set(flat))
    index = dict(zip(vocab, range(len(vocab))))
    tokens = np.fromiter(map(index.__getitem__, flat), dtype=np.int64,
                         count=len(flat))
    sizes = np.array(lengths, dtype=np.int64)

    text = np.repeat(np.arange(len(sizes)), sizes)
    # tokens from each position to the end of its text
    left = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(tokens))
    start = np.arange(len(tokens))
    ids = tokens
    orders = [(text, ids, np.arange(len(vocab)))]
    for n in range(2, min(max_n, max(lengths, default=0)) + 1):
        keep = left[start] >= n
        start = start[keep]
        keys, ids = np.unique(ids[keep] * len(vocab) + tokens[start + n - 1],
                              return_inverse=True)
        orders.append((text[start], ids, keys))
    return vocab, sizes, orders


class IdfTable:
    """Per-image document frequencies over a reference corpus, compiled.

    The table keeps the corpus vocabulary and, per n, the sorted n-gram
    keys that `_intern` gives the corpus, each with its idf. `build_idf`
    compiles the arrays: `counts[n - 1][j]` is the number of corpus images
    containing the n-gram of key `keys[n - 1][j]`. The table counted the
    orders n = 1..max_n, so it scores no larger max_n.
    """

    def __init__(self, corpus_size: int, max_n: int, vocab: list[str],
                 keys: list[np.ndarray], counts: list[np.ndarray]):
        self.corpus_size = corpus_size
        self.max_n = max_n
        self._vocab = {token: i for i, token in enumerate(vocab)}
        self._keys = keys
        self._idf = [np.log(corpus_size / np.maximum(c, 1)) for c in counts]
        self._unseen = math.log(corpus_size)

    def _lookup(self, vocab: list[str],
                keys: list[np.ndarray]) -> list[np.ndarray]:
        """idf of each n-gram interned by `_intern` (its vocabulary and its
        keys per n), ln(corpus_size) where the table lacks the n-gram."""
        size = len(self._vocab)
        token_ids = np.array([self._vocab.get(t, -1) for t in vocab],
                             dtype=np.int64)
        ids = token_ids
        result = []
        for n, local in enumerate(keys, start=1):
            table = (self._keys[n - 1] if n <= len(self._keys)
                     else np.empty(0, dtype=np.int64))
            if n > 1:
                prefix = ids[local // len(vocab)]
                token = token_ids[local % len(vocab)]
                key = np.where((prefix >= 0) & (token >= 0),
                               prefix * size + token, -1)
                at = np.searchsorted(table, key)
                found = at < len(table)
                found[found] = table[at[found]] == key[found]
                ids = np.where(found, at, -1)
            idf = np.full(len(local), self._unseen)
            if len(table):
                idf[ids >= 0] = self._idf[n - 1][ids[ids >= 0]]
            result.append(idf)
        return result


def build_idf(split: Split, max_n: int = CiderConfig().max_n) -> IdfTable:
    """df(g) = number of images with g in at least one reference caption."""
    if not split:
        raise ValueError("empty dataset")
    image_of_text = np.repeat(np.arange(len(split)),
                              [len(refs) for refs in split.values()])
    vocab, _, orders = _intern(
        (tokenize(c) for refs in split.values() for c in refs), max_n)
    counts = []
    for text, ids, keys in orders:
        width = max(len(keys), 1)
        # counts keep np.unique on its sort path, faster here than hashing
        pairs, _ = np.unique(image_of_text[text] * width + ids,
                             return_counts=True)
        counts.append(np.bincount(pairs % width, minlength=len(keys)))
    return IdfTable(len(split), max_n, vocab, [k for _, _, k in orders],
                    counts)


def length_penalty(candidate_len, ref_len, sigma: float):
    """Gaussian penalty on the token-count difference, 1 at equal lengths;
    elementwise on arrays of lengths."""
    delta = candidate_len - ref_len
    with np.errstate(over="ignore"):  # a tiny sigma gives exp(-inf) == 0
        return np.exp(-(delta * delta) / (2.0 * sigma * sigma))


def _score_block(candidates: list[Sequence[str]],
                 refs: list[Sequence[Sequence[str]]],
                 idf: IdfTable, cfg: CiderConfig) -> np.ndarray:
    """Score of candidates[i] against refs[i], for every i."""
    if cfg.max_n > idf.max_n:
        raise ValueError(f"idf table has max_n {idf.max_n}, not {cfg.max_n}")
    n_images = len(candidates)
    per_image = np.array([len(r) for r in refs], dtype=np.int64)
    image_of_ref = np.repeat(np.arange(n_images), per_image)
    n_refs = len(image_of_ref)
    vocab, lengths, orders = _intern(
        [*candidates, *(r for image_refs in refs for r in image_refs)], cfg.max_n)
    penalty = length_penalty(lengths[image_of_ref], lengths[n_images:], cfg.sigma)

    totals = np.zeros(n_images)
    weights = idf._lookup(vocab, [k for _, _, k in orders])
    for (text, ids, keys), idf_of_gram in zip(orders, weights):
        width = max(len(keys), 1)
        rows, tf = np.unique(text * width + ids, return_counts=True)
        row_text, row_gram = np.divmod(rows, width)  # distinct (text, n-gram)
        weight = tf * idf_of_gram[row_gram]
        norm = np.sqrt(np.bincount(row_text, weight * weight,
                                   minlength=len(lengths)))
        # candidate rows come first, keyed image * width + n-gram
        split = np.searchsorted(row_text, n_images)
        ref = row_text[split:] - n_images
        want = image_of_ref[ref] * width + row_gram[split:]
        at = np.searchsorted(rows[:split], want)
        found = at < split
        found[found] = rows[at[found]] == want[found]
        cand_weight = np.zeros(len(want))
        cand_weight[found] = weight[at[found]]
        ref_weight = weight[split:]
        dot = np.bincount(ref, np.minimum(cand_weight, ref_weight) * ref_weight,
                          minlength=n_refs)
        cand_norm, ref_norm = norm[image_of_ref], norm[n_images:]
        nonzero = (cand_norm > 0.0) & (ref_norm > 0.0)  # else 0, never NaN
        similarity = np.zeros(n_refs)
        similarity[nonzero] = (dot[nonzero]
                               / (cand_norm[nonzero] * ref_norm[nonzero])
                               * penalty[nonzero])
        totals += (np.bincount(image_of_ref, similarity, minlength=n_images)
                   / per_image)
    return cfg.scale * (totals / cfg.max_n)


def cider_d(candidate: Sequence[str], refs: Sequence[Sequence[str]],
            idf: IdfTable, cfg: CiderConfig = CiderConfig()) -> float:
    """Score one tokenized candidate against its tokenized references."""
    if not refs:
        raise ValueError("empty reference list")
    return float(_score_block([candidate], [refs], idf, cfg)[0])


def corpus_cider_d(preds: dict[tuple[str, BlurLevel], str], split: Split,
                   level: BlurLevel, idf: IdfTable,
                   cfg: CiderConfig = CiderConfig()) -> float:
    """Mean per-image score at one blur level.

    The caller passes the idf table: `build_idf` of the split itself, or
    of the larger split it was cut from. `preds` maps (image id, level) to
    a caption, as `parse_predictions` returns it; every image of the split
    must have a candidate at `level`.
    """
    missing = [i for i in split if (i, level) not in preds]
    if missing:
        raise ValueError(
            f"missing predictions at {level.name} for images: {missing}")
    image_ids = list(split)
    scores: list[float] = []
    for start in range(0, len(image_ids), _BLOCK_IMAGES):
        block = image_ids[start:start + _BLOCK_IMAGES]
        scores += _score_block(
            [tokenize(preds[(i, level)]) for i in block],
            [[tokenize(r) for r in split[i]] for i in block],
            idf, cfg).tolist()
    return sum(scores) / len(scores)
