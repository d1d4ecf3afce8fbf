"""Consensus-based caption scoring (CIDEr-D).

Candidate and reference captions are compared as idf-weighted n-gram
vectors for n = 1..4. Per reference, the candidate's weights are clipped
to that reference's weights before the dot product (so stuffing a
frequent n-gram cannot inflate the score), the cosine similarity is
multiplied by a Gaussian penalty on the token-length difference, and the
result is averaged over references, then over n, then multiplied by
`scale` (10 by default), so scores live in [0, scale]. An order n longer
than the longest text has no n-grams and adds 0, so such orders are never
interned, while the mean still divides by max_n: for every max_n M at or
above the longest reference's length L, score(M) * M == score(L) * L,
and a huge max_n costs no more time than L.

Tokens are the runs of [a-z0-9] in the lowercased text: every other
character, non-ASCII letters and digits included, separates tokens, so
"Café №9" gives ["caf", "9"].

Document frequencies count images, not captions: an n-gram's df is the
number of images whose reference set contains it at least once. Over a
split of N images idf(g) = ln(N / df(g)), and an n-gram the split lacks
takes the full ln N weight.

Scoring is vectorized over a block of images. Every n-gram occurrence
gets an integer id (`_intern`), occurrences collapse into distinct
(text, n-gram, tf) rows, and norms, clipped dot products and the means
over references are numpy segment sums over those rows. An `IdfTable` is
compiled the same way, so idf lookups are binary searches into sorted
n-gram keys. `_intern` reads texts as `tokenize` streams them, keeps one
string per distinct token and gives one order at a time: `build_idf`
counts each order in turn, and a block scores each as the idf lookup
passes it on, so neither holds the token lists or all orders at once. A
corpus score is the mean of its per-image scores, summed by `math.fsum`,
so it is the same float on every Python version.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain, count

from . import _id_list, _lazy_import
from .imaging import BlurLevel
from .ingest import Split

np = _lazy_import("numpy")

#: `tokenize`'s byte table: the bytes of [a-z0-9] kept, all others spaces
_SEPARATORS = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789"
                    else 32 for b in range(256))

#: Images per scoring block in `corpus_cider_d`; bounds a block's arrays,
#: but `build_idf` interns the whole split, so its peak grows with the split.
_BLOCK_IMAGES = 1000

#: An integer array is int32 while a bound on its values is below this
_INT32_LIMIT = 2 ** 31


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


def _int_type(bound: int):
    """A stored array's type: int32 if it holds -1 to `bound`, else int64.
    Cast to a product's type before multiplying, so none wraps, and a
    gather's index to intp, or numpy converts it on every gather."""
    return np.int32 if bound < _INT32_LIMIT else np.int64


def _intern(texts: Iterable[Sequence[str]], max_n: int):
    """Integer ids of every n-gram occurrence in `texts`, for n = 1 up to
    max_n or the longest text's length, whichever is smaller.

    A token's id is its rank in the sorted vocabulary. An n-gram (n > 1)
    has the key (id of its (n-1)-gram prefix) * len(vocabulary) + (id of
    its last token), and its id is the rank of that key among the
    distinct keys, so ids depend on the set of n-grams, not on text order.

    Returns the vocabulary, the token count of each text, and an iterator
    that computes, per n in turn, the arrays (text of each occurrence, n-gram
    id of each occurrence, n-gram key of each id). The counts and arrays
    are of `_int_type(occurrences + texts)`, but an order n > 1's keys of
    `_int_type(number of (n-1)-grams * len(vocabulary))`.
    """
    lengths: list[int] = []
    flat: list[int] = []
    # each distinct token, held once, numbered in the order first seen
    first = defaultdict(count().__next__)
    for text in texts:
        lengths.append(len(text))
        flat += map(first.__getitem__, text)
    vocab = sorted(first)
    index = _int_type(len(flat) + len(lengths))
    # a token's rank in `vocab` is the argsort of the numbers in that order
    seen = np.fromiter(map(first.__getitem__, vocab), index, len(vocab))
    tokens = np.argsort(seen).astype(index)[np.fromiter(flat, np.intp, len(flat))]
    sizes = np.array(lengths, dtype=index)

    def orders():
        text = np.repeat(np.arange(len(sizes), dtype=index), sizes)
        keys = np.arange(len(vocab), dtype=index)
        yield text, tokens, keys
        # tokens from each position to the end of its text
        start = np.arange(len(tokens))
        left = np.repeat(np.cumsum(sizes, dtype=index), sizes)
        left -= start.astype(index)
        ids = tokens
        for n in range(2, min(max_n, max(lengths, default=0)) + 1):
            keep = left[start] >= n
            start = start[keep]
            key = _int_type(len(keys) * len(vocab))
            keys, ids = np.unique(ids[keep].astype(key) * len(vocab)
                                  + tokens[start + n - 1].astype(key),
                                  return_inverse=True)
            ids = ids.astype(index)
            yield text[start], ids, keys

    return vocab, sizes, orders()


def _find(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of each key in the sorted array `table`, -1 where absent."""
    if not len(table):
        return np.full(len(keys), -1)
    at = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return np.where(table[at] == keys, at, -1)


class IdfTable:
    """`split` (held, not copied) compiled for `cfg`: every score read from
    the table uses its idf and `cfg`, and `corpus_cider_d` scores `split`.

    The table keeps the split's vocabulary and, per n, the sorted n-gram
    keys that `_intern` gives the split, each with its idf. `build_idf`
    compiles the arrays: `counts[n - 1][j]`, at least 1, is the number of
    images containing the n-gram of key `keys[n - 1][j]`.
    """

    def __init__(self, split: Split, cfg: CiderConfig, vocab: list[str],
                 keys: list[np.ndarray], counts: list[np.ndarray]):
        self.split = split
        self.cfg = cfg
        self._vocab = {token: i for i, token in enumerate(vocab)}
        self._keys = keys
        self._idf = [np.log(len(split) / c) for c in counts]
        self._unseen = math.log(len(split))

    def _lookup(self, vocab: list[str], orders: Iterable[tuple]):
        """Each of `_intern`'s `orders` over `vocab`, with the idf of each of
        its n-grams: ln N where the split of N images lacks the n-gram."""
        size = len(self._vocab)
        token_ids = np.array([self._vocab.get(t, -1) for t in vocab],
                             dtype=_int_type(size))
        ids = token_ids.astype(np.intp)
        for n, order in enumerate(orders, start=1):
            local = order[2]
            table = (self._keys[n - 1] if n <= len(self._keys)
                     else np.empty(0, dtype=np.int64))
            if n > 1:
                prefix = ids[(local // len(vocab)).astype(np.intp)]
                token = token_ids[(local % len(vocab)).astype(np.intp)]
                wanted = prefix.astype(table.dtype) * size + token
                wanted[token < 0] = -1
                ids = _find(table, wanted)
            yield order, (np.where(ids >= 0, self._idf[n - 1][ids], self._unseen)
                          if len(table) else np.full(len(local), self._unseen))


def build_idf(split: Split, cfg: CiderConfig = CiderConfig()) -> IdfTable:
    """`split` compiled for `cfg`; df(g) = images with g in a reference."""
    if not split:
        raise ValueError("empty dataset")
    image_of_text = np.repeat(np.arange(len(split)),
                              [len(refs) for refs in split.values()])
    vocab, _, orders = _intern(
        (tokenize(c) for refs in split.values() for c in refs), cfg.max_n)
    keys, counts = [], []
    for text, ids, order_keys in orders:
        width = max(len(order_keys), 1)
        pair = _int_type(len(split) * width)
        # counts keep np.unique on its sort path, faster here than hashing
        pairs, _ = np.unique(
            image_of_text[text.astype(np.intp)].astype(pair) * width + ids,
            return_counts=True)
        keys.append(order_keys)
        counts.append(np.bincount(pairs % width, minlength=len(order_keys)))
        del text, ids, pairs  # not held while the next order is computed
    return IdfTable(split, cfg, vocab, keys, counts)


def length_penalty(candidate_len, ref_len, sigma: float):
    """Gaussian penalty on the token-count difference, 1 at equal lengths;
    elementwise on arrays of lengths."""
    delta = np.subtract(candidate_len, ref_len, dtype=np.float64)
    with np.errstate(over="ignore"):  # a tiny sigma gives exp(-inf) == 0
        return np.exp(-(delta * delta) / (2.0 * sigma * sigma))


def _score_block(texts: Iterable[Sequence[str]], per_image: Sequence[int],
                 idf: IdfTable) -> np.ndarray:
    """Each image's score: `texts` gives the candidates, then the references,
    in image order, and `per_image` each image's number of references."""
    cfg = idf.cfg
    n_images = len(per_image)
    image_of_ref = np.repeat(np.arange(n_images), per_image)
    n_refs = len(image_of_ref)
    vocab, lengths, orders = _intern(texts, cfg.max_n)
    penalty = length_penalty(lengths[image_of_ref], lengths[n_images:], cfg.sigma)

    totals = np.zeros(n_images)
    for (text, ids, keys), idf_of_gram in idf._lookup(vocab, orders):
        width = max(len(keys), 1)
        row = _int_type(len(lengths) * width)
        rows, tf = np.unique(text.astype(row) * width + ids, return_counts=True)
        row_text, row_gram = np.divmod(rows, width)  # distinct (text, n-gram)
        weight = tf * idf_of_gram[row_gram.astype(np.intp)]
        norm = np.sqrt(np.bincount(row_text, weight * weight,
                                   minlength=len(lengths)))
        # candidate rows come first, keyed image * width + n-gram
        split = np.searchsorted(row_text, n_images)
        ref = (row_text[split:] - n_images).astype(np.intp)
        want = image_of_ref[ref].astype(row) * width + row_gram[split:]
        at = _find(rows[:split], want)
        cand_weight = np.where(at >= 0, weight[at], 0.0)
        ref_weight = weight[split:]
        dot = np.bincount(ref, np.minimum(cand_weight, ref_weight) * ref_weight,
                          minlength=n_refs)
        cand_norm, ref_norm = norm[image_of_ref], norm[n_images:]
        nonzero = (cand_norm > 0.0) & (ref_norm > 0.0)  # else 0, never NaN
        similarity = np.divide(dot, cand_norm * ref_norm, where=nonzero,
                               out=np.zeros(n_refs))
        similarity *= penalty
        totals += (np.bincount(image_of_ref, similarity, minlength=n_images)
                   / per_image)
        del idf_of_gram, rows, tf, row_text, row_gram, weight, ref, want, at
        del cand_weight, ref_weight  # freed before the next order comes
    return cfg.scale * (totals / cfg.max_n)


def cider_d(candidate: Sequence[str], refs: Sequence[Sequence[str]],
            idf: IdfTable) -> float:
    """Score one tokenized candidate against its tokenized references."""
    if not refs:
        raise ValueError("empty reference list")
    return float(_score_block([candidate, *refs], [len(refs)], idf)[0])


def check_coverage(preds: dict[tuple[str, BlurLevel], str], split: Split,
                   level: BlurLevel) -> None:
    """Fail unless every image of `split` has a prediction at `level`."""
    missing = [i for i in split if (i, level) not in preds]
    if missing:
        raise ValueError(f"missing predictions at {level.name} for images: "
                         f"{_id_list(missing)}")


def corpus_cider_d(preds: dict[tuple[str, BlurLevel], str], level: BlurLevel,
                   idf: IdfTable) -> float:
    """Mean per-image score of `idf.split` at one blur level. `preds` maps
    (image id, level) to a caption, as `parse_predictions` returns it."""
    check_coverage(preds, idf.split, level)
    image_ids = list(idf.split)
    scores: list[float] = []
    for start in range(0, len(image_ids), _BLOCK_IMAGES):
        block = image_ids[start:start + _BLOCK_IMAGES]
        scores += _score_block(
            chain((tokenize(preds[(i, level)]) for i in block),
                  (tokenize(r) for i in block for r in idf.split[i])),
            [len(idf.split[i]) for i in block], idf).tolist()
    return math.fsum(scores) / len(scores)
