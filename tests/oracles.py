"""Independent reference implementations used as test oracles.

Nothing in here imports from blurbench: these are deliberately separate
code paths (different data structures, different summation order) so that
agreement with the library is meaningful evidence, not tautology. Two
exceptions are no oracles. `idf_of` reads one n-gram's idf out of a
compiled `blurbench.cider.IdfTable`, so that tests can compare it with one.
`intern_reference` is an earlier `blurbench.cider._intern`, kept so that
tests can show that the current one gives the same arrays.
"""

import hashlib
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# Box-filter references
# ---------------------------------------------------------------------------

def reflect(i: int, n: int) -> int:
    """Mirror an out-of-range coordinate without repeating the edge sample."""
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - 2 - i
    return i


def blur_loops(samples, kw: int, kh: int):
    """Naive O(w*h*kw*kh) box filter over a (h, w, c) nested-list raster.

    Exact integer window sums, divide by tap count with round-half-up.
    Only usable on small rasters; the vectorized `blur_windows` covers the
    rest. The window's anchor, on the output sample, is (kw // 2, kh // 2).
    """
    h = len(samples)
    w = len(samples[0])
    c = len(samples[0][0])
    ax, ay = kw // 2, kh // 2
    taps = kw * kh
    out = [[[0] * c for _ in range(w)] for _ in range(h)]
    for y in range(h):
        for x in range(w):
            for ch in range(c):
                acc = 0
                for j in range(kh):
                    for i in range(kw):
                        yy = reflect(y - ay + j, h)
                        xx = reflect(x - ax + i, w)
                        acc += samples[yy][xx][ch]
                out[y][x][ch] = (2 * acc + taps) // (2 * taps)
    return out


def blur_windows(arr: np.ndarray, kw: int, kh: int) -> np.ndarray:
    """Direct window summation: every output is an independent sum.

    Builds the mirrored border with explicit index arrays and sums each
    kh*kw window separately via a strided view, so it shares no machinery
    with a shifted-add fast path. The window's anchor, on the output
    sample, is (kw // 2, kh // 2).
    """
    h, w, _ = arr.shape
    ax, ay = kw // 2, kh // 2

    ys = np.arange(-ay, h + (kh - 1 - ay))
    ys = np.where(ys < 0, -ys, ys)
    ys = np.where(ys >= h, 2 * h - 2 - ys, ys)
    xs = np.arange(-ax, w + (kw - 1 - ax))
    xs = np.where(xs < 0, -xs, xs)
    xs = np.where(xs >= w, 2 * w - 2 - xs, xs)

    padded = arr[ys][:, xs].astype(np.int64)
    windows = sliding_window_view(padded, (kh, kw), axis=(0, 1))
    sums = windows.sum(axis=(-2, -1))
    taps = kw * kh
    return ((2 * sums + taps) // (2 * taps)).astype(np.uint8)


# ---------------------------------------------------------------------------
# Netpbm header token reference: a byte-at-a-time scan
# ---------------------------------------------------------------------------

def pnm_token(data: bytes, pos: int):
    """(token, end) of the next header token at or after `pos`, skipping
    whitespace and comments ('#' up to a CR or LF), or None at the end."""
    space = b" \t\r\n\x0b\x0c"
    while pos < len(data):
        if data[pos] in space:
            pos += 1
        elif data[pos] == ord("#"):
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos] not in space:
        pos += 1
    return (data[start:pos], pos) if pos > start else None


# ---------------------------------------------------------------------------
# CIDEr-D direct-formula reference
# ---------------------------------------------------------------------------

def tokens(text: str) -> list[str]:
    """The maximal runs of a-z and 0-9 in text.lower(), one character at
    a time."""
    result, run = [], ""
    for ch in text.lower():
        if "a" <= ch <= "z" or "0" <= ch <= "9":
            run += ch
        elif run:
            result.append(run)
            run = ""
    return result + [run] if run else result


def ngram_list(tokens, n: int):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def document_frequency(corpus_refs, max_n: int = 4) -> dict:
    """Brute-force recount: df(g) = number of images with g in any reference.

    `corpus_refs` is a list with one entry per image, each entry a list of
    token lists.
    """
    df: dict = {}
    for refs in corpus_refs:
        seen = set()
        for ref in refs:
            for n in range(1, max_n + 1):
                seen.update(ngram_list(ref, n))
        for g in seen:
            df[g] = df.get(g, 0) + 1
    return df


def intern_reference(texts, max_n: int):
    """`blurbench.cider._intern` as it was before it kept one string per
    distinct token and gave the orders one at a time: every token string
    and every order's arrays held at once, the orders returned as a list. Same ids, keys and arrays, by definition:
    a token's id is its rank in the sorted vocabulary, an n-gram's key is
    (prefix id) * len(vocabulary) + (last token id), and its id the rank
    of that key among the distinct keys."""
    lengths = []
    flat = []
    for text in texts:
        lengths.append(len(text))
        flat += text
    vocab = sorted(set(flat))
    index = dict(zip(vocab, range(len(vocab))))
    tokens = np.fromiter(map(index.__getitem__, flat), dtype=np.int64,
                         count=len(flat))
    sizes = np.array(lengths, dtype=np.int64)

    text = np.repeat(np.arange(len(sizes)), sizes)
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


def idf_of(table, gram) -> float:
    """The idf `table` gives the n-gram `gram`, ln(corpus_size) where the
    table's corpus lacks it; a ValueError for a gram longer than the
    orders the table counted, which it cannot look up."""
    from blurbench.cider import _intern

    if not 1 <= len(gram) <= table.cfg.max_n:
        raise ValueError(f"a {len(gram)}-gram, but the table counted "
                         f"n = 1..{table.cfg.max_n}")
    vocab, _, orders = _intern([gram], len(gram))
    return float([*table._lookup(vocab, orders)][-1][1][0])


def per_reference_similarities(candidate, ref, df, num_images,
                               max_n: int = 4, sigma: float = 6.0):
    """Clipped cosine similarity per n, times the length penalty."""

    def idf(gram):
        return math.log(num_images / max(1, df.get(gram, 0)))

    def weights(tokens, n):
        counts: dict = {}
        for g in ngram_list(tokens, n):
            counts[g] = counts.get(g, 0) + 1
        return {g: c * idf(g) for g, c in counts.items()}

    penalty = math.exp(-((len(candidate) - len(ref)) ** 2) / (2.0 * sigma ** 2))
    sims = []
    for n in range(1, max_n + 1):
        cv = weights(candidate, n)
        rv = weights(ref, n)
        dot = math.fsum(
            min(cv.get(g, 0.0), rv.get(g, 0.0)) * rv.get(g, 0.0)
            for g in set(cv) | set(rv)
        )
        cn = math.sqrt(math.fsum(v * v for v in cv.values()))
        rn = math.sqrt(math.fsum(v * v for v in rv.values()))
        if cn == 0.0 or rn == 0.0:
            sims.append(0.0)
        else:
            sims.append(dot / (cn * rn) * penalty)
    return sims


def cider_d_formula(candidate, refs, corpus_refs,
                    max_n: int = 4, sigma: float = 6.0,
                    scale: float = 10.0) -> float:
    """Evaluate the metric definition literally, recounting df from scratch."""
    df = document_frequency(corpus_refs, max_n)
    num_images = len(corpus_refs)
    per_ref = [
        per_reference_similarities(candidate, ref, df, num_images, max_n, sigma)
        for ref in refs
    ]
    per_n = [
        math.fsum(sims[n] for sims in per_ref) / len(refs)
        for n in range(max_n)
    ]
    return scale * math.fsum(per_n) / max_n


# ---------------------------------------------------------------------------
# Schedule draw reference: float CDF walk
# ---------------------------------------------------------------------------

def draw53(seed: int, sample_key: str, stage: str = "") -> int:
    """Top 53 bits of BLAKE2b-64(key=seed's 8 bytes, person=stage, data=key)."""
    digest = hashlib.blake2b(
        sample_key.encode("utf-8"), digest_size=8,
        key=seed.to_bytes(8, "big"), person=stage.encode("utf-8"),
    ).digest()
    return int.from_bytes(digest, "big") >> 11


def level_by_float_walk(probs, draw: int) -> int:
    """Index of the level a 53-bit draw picks, by walking the float CDF.

    u = draw * 2**-53; the first level whose running float sum c has
    u <= c wins, so ties go to the lower level. When the running sum
    ends below u (a float shortfall at the top of the CDF), the highest
    level with positive probability is taken.
    """
    u = draw * 2.0 ** -53
    cumulative = 0.0
    for index, p in enumerate(probs):
        cumulative += p
        if u <= cumulative:
            return index
    return max(index for index, p in enumerate(probs) if p > 0.0)
