"""Box-filter motion blur and minimal raster I/O.

Blur intensity levels MB0..MB3 map to normalized box kernels of tap size
(1,1), (6,1), (18,6) and (45,12): a wide, short box approximates global
horizontal motion smear. Convolution runs in exact integer arithmetic
(sliding window sums, round-half-up on the mean) so results are
deterministic across platforms and bit-comparable against a naive
reference.

All functions are pure; Image instances are treated as immutable and are
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_WHITESPACE = b" \t\r\n\x0b\x0c"


class FormatError(ValueError):
    """Malformed or unsupported raster bytes."""


class DimensionError(ValueError):
    """Kernel does not fit inside the image."""


class BlurLevel(IntEnum):
    """Additional blur intensity, ordered none < low < medium < high."""

    MB0 = 0
    MB1 = 1
    MB2 = 2
    MB3 = 3


#: Box kernel (width, height) per level.
TAP_SIZES: dict[BlurLevel, tuple[int, int]] = {
    BlurLevel.MB0: (1, 1),
    BlurLevel.MB1: (6, 1),
    BlurLevel.MB2: (18, 6),
    BlurLevel.MB3: (45, 12),
}


@dataclass(frozen=True)
class BlurKernel:
    """Normalized box kernel: every tap weighs 1/(tap_width*tap_height)."""

    tap_width: int
    tap_height: int
    anchor_x: int
    anchor_y: int

    def __post_init__(self):
        if self.tap_width < 1 or self.tap_height < 1:
            raise ValueError("kernel taps must be >= 1")
        if not 0 <= self.anchor_x < self.tap_width:
            raise ValueError("anchor_x outside kernel")
        if not 0 <= self.anchor_y < self.tap_height:
            raise ValueError("anchor_y outside kernel")


@dataclass(eq=False)
class Image:
    """8-bit raster, samples shaped (height, width, channels), row-major."""

    width: int
    height: int
    channels: int
    samples: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        self.samples = np.asarray(self.samples)
        if self.samples.dtype != np.uint8:
            raise ValueError("samples must be uint8")
        expected = (self.height, self.width, self.channels)
        if self.samples.shape != expected:
            raise ValueError(
                f"samples shape {self.samples.shape} != {expected}"
            )

    @classmethod
    def from_flat(cls, width: int, height: int, channels: int,
                  data: bytes | bytearray | np.ndarray) -> "Image":
        """Build from row-major channel-interleaved samples."""
        flat = np.frombuffer(bytes(data), dtype=np.uint8) \
            if isinstance(data, (bytes, bytearray)) \
            else np.asarray(data, dtype=np.uint8).ravel()
        if flat.size != width * height * channels:
            raise ValueError("sample count does not match dimensions")
        return cls(width, height, channels,
                   flat.reshape(height, width, channels).copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return (self.width == other.width
                and self.height == other.height
                and self.channels == other.channels
                and np.array_equal(self.samples, other.samples))


def make_kernel(level: BlurLevel) -> BlurKernel:
    """Box kernel for a blur level; anchor at floor(tap/2) on each axis."""
    kw, kh = TAP_SIZES[BlurLevel(level)]
    return BlurKernel(kw, kh, kw // 2, kh // 2)


def _sliding_sums(arr: np.ndarray, size: int, axis: int) -> np.ndarray:
    """Exact integer sums of every contiguous `size` window along `axis`."""
    csum = np.cumsum(arr, axis=axis, dtype=np.int64)
    zshape = list(csum.shape)
    zshape[axis] = 1
    prefix = np.concatenate(
        [np.zeros(zshape, dtype=np.int64), csum], axis=axis)
    total = arr.shape[axis]

    def span(start, stop):
        idx = [slice(None)] * arr.ndim
        idx[axis] = slice(start, stop)
        return prefix[tuple(idx)]

    return span(size, total + 1) - span(0, total + 1 - size)


def apply_blur(img: Image, kernel: BlurKernel) -> Image:
    """Convolve with a normalized box kernel.

    Each output sample is the rounded mean (round-half-up) of the kernel
    window placed so the anchor sits on the output pixel. Borders are
    mirrored without repeating the edge pixel. The whole computation is
    integer-exact, so output is bit-identical to a naive per-pixel window
    sum. A 1x1 kernel is the identity and returns `img` itself.
    """
    kw, kh = kernel.tap_width, kernel.tap_height
    if kw == kh == 1:
        return img
    if kw > img.width or kh > img.height:
        raise DimensionError(
            f"kernel {kw}x{kh} larger than image {img.width}x{img.height}")
    pad = ((kernel.anchor_y, kh - 1 - kernel.anchor_y),
           (kernel.anchor_x, kw - 1 - kernel.anchor_x),
           (0, 0))
    padded = np.pad(img.samples, pad, mode="reflect")
    sums = _sliding_sums(padded, kw, axis=1)
    sums = _sliding_sums(sums, kh, axis=0)
    taps = kw * kh
    rounded = ((2 * sums + taps) // (2 * taps)).astype(np.uint8)
    return Image(img.width, img.height, img.channels, rounded)


def blur_variants(img: Image) -> dict[BlurLevel, Image]:
    """All four blur variants of an image; the MB0 entry is the input itself.

    The image must be at least 45x12 so the strongest kernel fits.
    """
    max_kw, max_kh = TAP_SIZES[BlurLevel.MB3]
    if img.width < max_kw or img.height < max_kh:
        raise DimensionError(
            f"image {img.width}x{img.height} smaller than {max_kw}x{max_kh}")
    return {level: apply_blur(img, make_kernel(level)) for level in BlurLevel}


# ---------------------------------------------------------------------------
# PGM (P5) / PPM (P6), binary, maxval 255
# ---------------------------------------------------------------------------

_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}
_FORMAT_MAGIC = {"pgm": b"P5", "ppm": b"P6"}


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        ch = data[pos]
        if ch in _WHITESPACE:
            pos += 1
        elif ch == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise FormatError("truncated header")
    return data[start:pos], pos


def _int_token(data: bytes, pos: int) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise FormatError(f"expected integer header token, got {token!r}")
    return int(token), pos


def load_image(data: bytes, format: str | None = None) -> Image:
    """Decode binary PGM/PPM bytes.

    `format` ("pgm"/"ppm"), when given, must match the file's magic.
    """
    magic, pos = _next_token(data, 0)
    if magic not in _MAGIC_CHANNELS:
        raise FormatError(f"bad magic {magic!r}; expected P5 or P6")
    if format is not None:
        want = _FORMAT_MAGIC.get(format.lower())
        if want is None:
            raise FormatError(f"unknown format {format!r}")
        if want != magic:
            raise FormatError(f"magic {magic!r} does not match {format}")
    width, pos = _int_token(data, pos)
    height, pos = _int_token(data, pos)
    maxval, pos = _int_token(data, pos)
    if width < 1 or height < 1:
        raise FormatError("non-positive dimensions")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; only 255")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError("missing delimiter after maxval")
    payload = data[pos + 1:]
    channels = _MAGIC_CHANNELS[magic]
    expected = width * height * channels
    if len(payload) < expected:
        raise FormatError(
            f"truncated payload: {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise FormatError(
            f"trailing data: {len(payload)} bytes, expected {expected}")
    return Image.from_flat(width, height, channels, payload)


def save_image(img: Image, format: str | None = None) -> bytes:
    """Encode as binary PGM (1 channel) or PPM (3 channels).

    Emits the canonical header "P5|P6\\n<w> <h>\\n255\\n", so save/load
    round-trips are byte-identical.
    """
    if format is None:
        format = "pgm" if img.channels == 1 else "ppm"
    magic = _FORMAT_MAGIC.get(format.lower())
    if magic is None:
        raise FormatError(f"unknown format {format!r}")
    if _MAGIC_CHANNELS[magic] != img.channels:
        raise FormatError(
            f"{format} requires {_MAGIC_CHANNELS[magic]} channels, "
            f"image has {img.channels}")
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + img.samples.tobytes()
