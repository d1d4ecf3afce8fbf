"""Box-filter motion blur and minimal raster I/O.

Blur intensity levels MB0..MB3 map to normalized box kernels of tap size
(1,1), (6,1), (18,6) and (45,12): a wide, short box approximates global
horizontal motion smear. Convolution is exact integer arithmetic (window
sums by shifted adds in the narrowest dtype that holds them, round-half-up
on the mean), so results are deterministic across platforms and
bit-comparable against a naive reference.

A raster is the `uint8` array shaped (height, width, 1 or 3 channels),
row-major, that `load_image` returns; its MB0 variant is that same array.
A `BlurKernel` stores only its tap sizes. All functions are pure; no
function writes to a raster it is given, so rasters are safe to share
across threads.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import IntEnum

from . import _lazy_import

np = _lazy_import("numpy")

_WHITESPACE = b" \t\r\n\x0b\x0c"
#: Input bytes per blur band: small enough that a band's window sums stay
#: in a 2 MB L2 and reuse the allocator's pages (1 MiB bands of 640x480 RGB
#: fault in 3.7 MB of fresh column sums per call and blur at half speed).
_BAND_BYTES = 128 << 10
#: Least rows per band, in kernel heights, so the `kh - 1` extra rows a
#: band reads stay a minor share on wide rasters.
_BAND_FLOOR = 4


class BlurLevel(IntEnum):
    """Additional blur intensity, ordered none < low < medium < high."""

    MB0 = 0
    MB1 = 1
    MB2 = 2
    MB3 = 3


LEVEL_BY_NAME = {level.name: level for level in BlurLevel}
#: Box kernel (width, height) per level.
TAP_SIZES: dict[BlurLevel, tuple[int, int]] = {
    BlurLevel.MB0: (1, 1),
    BlurLevel.MB1: (6, 1),
    BlurLevel.MB2: (18, 6),
    BlurLevel.MB3: (45, 12),
}


class BlurKernel(namedtuple("BlurKernel", "tap_width tap_height")):
    """Normalized box kernel: every tap weighs 1/(tap_width*tap_height).
    Its anchor, the tap on the output pixel, is at each tap size // 2."""

    __slots__ = ()

    def __new__(cls, tap_width: int, tap_height: int):
        if tap_width < 1 or tap_height < 1:
            raise ValueError("kernel taps must be >= 1")
        return super().__new__(cls, tap_width, tap_height)

    _make = classmethod(lambda cls, values: cls(*values))  # checks _replace too


def make_kernel(level: BlurLevel) -> BlurKernel:
    """Box kernel of a blur level's tap sizes."""
    return BlurKernel(*TAP_SIZES[BlurLevel(level)])


def _window_sums(arr: np.ndarray, size: int, axis: int, bound: int):
    """Exact sums of every contiguous `size` window along `axis` of `arr`,
    whose samples are at most `bound`: each shifted add is in
    `np.min_scalar_type` of the largest sum it can produce.

    Sums of windows of length 1, 2, 4, ... take one shifted add each; a
    `size` window is the windows of the set bits of `size` laid end to end.
    """
    def span(a, start, stop):
        return a[(slice(None),) * axis + (slice(start, stop),)]

    count = arr.shape[axis] - size + 1
    run, width = arr, 1  # run: sums of every `width` window
    total, offset = None, 0
    while True:
        if size & width:
            part = span(run, offset, offset + count)
            total = part if total is None else np.add(
                total, part, dtype=np.min_scalar_type((offset + width) * bound))
            offset += width
        if offset == size:
            return total
        n = run.shape[axis] - width
        run = np.add(span(run, 0, n), span(run, width, n + width),
                     dtype=np.min_scalar_type(2 * width * bound))
        width *= 2


def apply_blur(samples: np.ndarray, kernel: BlurKernel) -> np.ndarray:
    """Convolve with a normalized box kernel.

    Each output sample is the rounded mean (round-half-up) of the kernel
    window placed so the anchor sits on the output pixel. Borders are
    mirrored without repeating the edge pixel. A 1x1 kernel is the
    identity and returns `samples` itself.

    Exact window sums run along rows (bound 255), then columns (bound
    `kw*255`), each shifted add in the narrowest unsigned dtype holding its
    sums (MB3's 2- and 4-row column runs uint16, its 8-row run uint32).
    One cast, where needed, widens them for the in-place rounding, bound
    `taps*255 + taps//2`: `(s + taps//2) // taps` == `(2*s + taps) // (2*taps)`.

    Output rows are blurred in horizontal bands of about `_BAND_BYTES` of
    input and at least `_BAND_FLOOR * kh` rows, each written into one
    preallocated output, so peak memory is input + output + O(band)
    whatever the height. A band reads its rows plus the `kh - 1` rows its
    windows reach and mirrors only where it meets the top or bottom edge.
    A band and its mirrored border are laid out by slice copies in one
    buffer that every band of the call reuses, so the peak is still
    input + output + one band. As a band holds at least `kh` rows, each
    mirror stays inside its own slice. 640x480 RGB takes 7 bands, 320x240
    RGB one.
    """
    kw, kh = kernel.tap_width, kernel.tap_height
    if kw == kh == 1:
        return samples
    h, w, c = samples.shape
    if kw > w or kh > h:
        raise ValueError(f"kernel {kw}x{kh} larger than image {w}x{h}")
    ax, ay = kw // 2, kh // 2
    taps = kw * kh
    out = np.empty(samples.shape, dtype=np.uint8)
    band_rows = max(_BAND_FLOOR * kh, _BAND_BYTES // (w * c))
    bands = max(1, h // band_rows)
    buf = np.empty((-(-h // bands) + kh - 1, w + kw - 1, c), dtype=np.uint8)
    for k in range(bands):
        r0, r1 = k * h // bands, (k + 1) * h // bands
        lo, hi = r0 - ay, r1 + kh - 1 - ay
        # band rows [top, end) hold source rows; each mirror is written
        # through a reversed view of its target, so no slice stop is < 0
        n = hi - lo
        band, top, end = buf[:n], max(-lo, 0), n - max(hi - h, 0)
        part = samples[max(lo, 0):min(hi, h)]
        band[top:end, ax:ax + w] = part
        band[top:end, :ax][:, ::-1] = part[:, 1:ax + 1]
        band[top:end, ax + w:][:, ::-1] = part[:, w - kw + ax:w - 1]
        band[:top][::-1] = band[top + 1:2 * top + 1]
        band[end:][::-1] = band[2 * end - n - 1:end - 1]
        # with kw == 1 the row sums are `band` itself, used up here as the
        # next band overwrites `buf`; kh > 1 then, so `sums` is never `buf`
        sums = _window_sums(_window_sums(band, kw, 1, 255), kh, 0, kw * 255)
        sums = sums.astype(np.min_scalar_type(taps * 255 + taps // 2),
                           copy=False)
        sums += taps // 2
        np.floor_divide(sums, taps, out=out[r0:r1], casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# PGM (P5) / PPM (P6), binary, maxval 255
# ---------------------------------------------------------------------------

_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}
#: A header token follows blanks (whitespace but line ends) at the start,
#: or else a line end and blanks; a comment ('#' to a line end) holds no
#: token. Only single bytes repeat, so no state stacks up per comment.
_HEADER_TOKEN = re.compile(
    rb"(?:[%(blank)s]*|.*?[\r\n][%(blank)s]*)([^%(space)s#][^%(space)s]*)"
    % {b"blank": re.escape(_WHITESPACE.translate(None, b"\r\n")),
       b"space": re.escape(_WHITESPACE)}, re.DOTALL)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comments."""
    match = _HEADER_TOKEN.match(data, pos)
    if match is None:
        raise ValueError("truncated header")
    return match[1], match.end()


def _int_token(data: bytes, pos: int) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise ValueError(f"expected integer header token, got {token!r}")
    return int(token), pos


def load_image(data: bytes) -> np.ndarray:
    """Decode binary PGM/PPM bytes (or any bytes-like object) into a
    read-only raster that views `data`, or one copy of it if not `bytes`."""
    data = bytes(data)
    magic, pos = _next_token(data, 0)
    if magic not in _MAGIC_CHANNELS:
        raise ValueError(f"bad magic {magic!r}; expected P5 or P6")
    width, pos = _int_token(data, pos)
    height, pos = _int_token(data, pos)
    maxval, pos = _int_token(data, pos)
    if width < 1 or height < 1:
        raise ValueError("non-positive dimensions")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}; only 255")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ValueError("missing delimiter after maxval")
    payload_size = len(data) - pos - 1
    channels = _MAGIC_CHANNELS[magic]
    expected = width * height * channels
    if payload_size < expected:
        if expected >= 10**30:  # by its digit count: `str` may refuse it
            from decimal import Decimal
            expected = f"a number of {Decimal(expected).adjusted() + 1} digits"
        raise ValueError(
            f"truncated payload: {payload_size} bytes, expected {expected}")
    if payload_size > expected:
        raise ValueError(
            f"trailing data: {payload_size} bytes, expected {expected}")
    samples = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos + 1)
    return samples.reshape(height, width, channels)


def save_image(samples: np.ndarray) -> bytes:
    """Encode as binary PGM (1 channel) or PPM (3 channels).

    Emits the canonical header "P5|P6\\n<w> <h>\\n255\\n", so save/load
    round-trips are byte-identical. Contiguous samples are copied once,
    straight into the result.
    """
    height, width, channels = samples.shape
    magic = b"P5" if channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    return b"".join((header, np.ascontiguousarray(samples)))
