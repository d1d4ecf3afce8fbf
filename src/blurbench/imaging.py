"""Box-filter motion blur and minimal raster I/O.

Blur intensity levels MB0..MB3 map to normalized box kernels of tap size
(1,1), (6,1), (18,6) and (45,12): a wide, short box approximates global
horizontal motion smear. Convolution is exact integer arithmetic (window
sums by shifted adds in the narrowest dtype that holds them, round-half-up
on the mean), so results are deterministic across platforms and
bit-comparable against a naive reference.

An `Image` stores only its samples and a `BlurKernel` only its tap sizes.
All functions are pure; Image instances are treated as immutable and are
safe to share across threads.
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


LEVEL_BY_NAME = {level.name: level.value for level in BlurLevel}
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


class Image:
    """8-bit raster, samples shaped (height, width, channels), row-major."""

    __slots__ = ("samples",)

    def __init__(self, samples: np.ndarray):
        self.samples = np.asarray(samples)
        if self.samples.dtype != np.uint8:
            raise ValueError("samples must be uint8")
        if self.samples.ndim != 3 or self.channels not in (1, 3):
            raise ValueError(f"samples shape {self.samples.shape} is not "
                             "(height, width, 1 or 3 channels)")
        if self.samples.size == 0:
            raise ValueError("image dimensions must be positive")

    height = property(lambda self: self.samples.shape[0])
    width = property(lambda self: self.samples.shape[1])
    channels = property(lambda self: self.samples.shape[2])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return np.array_equal(self.samples, other.samples)


def make_kernel(level: BlurLevel) -> BlurKernel:
    """Box kernel of a blur level's tap sizes."""
    return BlurKernel(*TAP_SIZES[BlurLevel(level)])


def _window_sums(arr: np.ndarray, size: int, axis: int, dtype):
    """Exact sums of every contiguous `size` window along `axis`, in `dtype`.

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
            total = part if total is None else np.add(total, part, dtype=dtype)
            offset += width
        if offset == size:
            return total.astype(dtype, copy=False)
        n = run.shape[axis] - width
        run = np.add(span(run, 0, n), span(run, width, n + width), dtype=dtype)
        width *= 2


def _accumulators(kw: int, taps: int) -> tuple[np.dtype, np.dtype]:
    """Narrowest dtypes for the row sums and for column sums + rounding."""
    return (np.min_scalar_type(kw * 255),
            np.min_scalar_type(taps * 255 + taps // 2))


def apply_blur(img: Image, kernel: BlurKernel) -> Image:
    """Convolve with a normalized box kernel.

    Each output sample is the rounded mean (round-half-up) of the kernel
    window placed so the anchor sits on the output pixel. Borders are
    mirrored without repeating the edge pixel. A 1x1 kernel is the
    identity and returns `img` itself.

    Exact window sums run along rows, then columns, each pass in the
    narrowest unsigned dtype holding its bound: `kw*255` for rows
    (uint16 up to kw = 257), `taps*255 + taps//2` for columns and the
    rounding `(s + taps//2) // taps` == `(2*s + taps) // (2*taps)`.

    Output rows are blurred in horizontal bands of about `_BAND_BYTES` of
    input and at least `_BAND_FLOOR * kh` rows, each written into one
    preallocated output, so peak memory is input + output + O(band)
    whatever the height. A band reads its rows plus the `kh - 1` rows its
    windows reach and mirrors only where it meets the top or bottom edge.
    As a band holds at least `kh` rows, each mirror stays inside its own
    slice. 640x480 RGB takes 7 bands, 320x240 RGB one.
    """
    kw, kh = kernel.tap_width, kernel.tap_height
    if kw == kh == 1:
        return img
    h = img.height
    if kw > img.width or kh > h:
        raise ValueError(
            f"kernel {kw}x{kh} larger than image {img.width}x{h}")
    ax, ay = kw // 2, kh // 2
    x_pad = (ax, kw - 1 - ax)
    taps = kw * kh
    rows, cols = _accumulators(kw, taps)
    out = np.empty(img.samples.shape, dtype=np.uint8)
    band_rows = max(_BAND_FLOOR * kh,
                    _BAND_BYTES // (img.width * img.channels))
    bands = max(1, h // band_rows)
    for k in range(bands):
        r0, r1 = k * h // bands, (k + 1) * h // bands
        lo, hi = r0 - ay, r1 + kh - 1 - ay
        pad = ((max(-lo, 0), max(hi - h, 0)), x_pad, (0, 0))
        padded = np.pad(img.samples[max(lo, 0):min(hi, h)], pad,
                        mode="reflect")
        sums = _window_sums(_window_sums(padded, kw, 1, rows), kh, 0, cols)
        np.floor_divide(sums + taps // 2, taps, out=out[r0:r1],
                        casting="unsafe")
    return Image(out)


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


def load_image(data: bytes) -> Image:
    """Decode binary PGM/PPM bytes (or any bytes-like object)."""
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
        raise ValueError(
            f"truncated payload: {payload_size} bytes, expected {expected}")
    if payload_size > expected:
        raise ValueError(
            f"trailing data: {payload_size} bytes, expected {expected}")
    samples = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos + 1)
    return Image(samples.reshape(height, width, channels).copy())


def save_image(img: Image) -> bytes:
    """Encode as binary PGM (1 channel) or PPM (3 channels).

    Emits the canonical header "P5|P6\\n<w> <h>\\n255\\n", so save/load
    round-trips are byte-identical. Contiguous samples are copied once,
    straight into the result.
    """
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return b"".join((header, np.ascontiguousarray(img.samples)))
