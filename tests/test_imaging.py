"""Box-filter convolution and netpbm raster I/O."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blurbench import imaging
from blurbench.imaging import (
    BlurKernel,
    BlurLevel,
    TAP_SIZES,
    _window_sums,
    apply_blur,
    load_image,
    make_kernel,
    save_image,
)
from conftest import random_image
from oracles import blur_loops, blur_windows, pnm_token


class TestMakeKernel:
    def test_tap_sizes(self):
        assert (TAP_SIZES[BlurLevel.MB0], TAP_SIZES[BlurLevel.MB1],
                TAP_SIZES[BlurLevel.MB2], TAP_SIZES[BlurLevel.MB3]) == \
            ((1, 1), (6, 1), (18, 6), (45, 12))

    def test_mb1_kernel(self):
        k = make_kernel(BlurLevel.MB1)
        assert (k.tap_width, k.tap_height) == (6, 1)

    def test_mb0_is_identity_kernel(self):
        k = make_kernel(BlurLevel.MB0)
        assert (k.tap_width, k.tap_height) == (1, 1)

    def test_mb3_kernel(self):
        k = make_kernel(BlurLevel.MB3)
        assert (k.tap_width, k.tap_height) == (45, 12)

    def test_level_ordering(self):
        assert BlurLevel.MB0 < BlurLevel.MB1 < BlurLevel.MB2 < BlurLevel.MB3

    @pytest.mark.parametrize("build", [
        lambda width, height: BlurKernel(width, height),
        lambda width, height: BlurKernel(tap_height=height, tap_width=width),
        lambda width, height: BlurKernel._make((width, height)),
        lambda width, height: BlurKernel(1, 1)._replace(tap_width=width,
                                                        tap_height=height),
    ], ids=["positional", "keyword", "_make", "_replace"])
    def test_kernel_is_a_checked_named_tuple(self, build):
        kernel = build(6, 1)
        assert kernel == make_kernel(BlurLevel.MB1) == (6, 1)
        assert hash(kernel) == hash((6, 1))
        with pytest.raises(AttributeError):
            kernel.tap_width = 2
        for taps in ((0, 1), (1, 0), (-3, 4)):
            with pytest.raises(ValueError, match="^kernel taps must be >= 1$"):
                build(*taps)

    @pytest.mark.parametrize("level", list(BlurLevel)[1:],
                             ids=lambda level: level.name)
    def test_impulse_lights_centre_anchored_window(self, level):
        """A single 255 pixel changes exactly the outputs whose window,
        anchored at tap (kw // 2, kh // 2) as in the oracles, holds it.

        Every window of the background, which repeats with the kernel's
        period, sums to (taps - 1) // 2, just short of rounding up, so
        any sample the impulse raises makes its window's output 1 higher.
        """
        kw, kh = TAP_SIZES[level]
        y, x = np.indices((3 * kh, 3 * kw))
        background = ((y % kh) * kw + x % kw < (kw * kh - 1) // 2)
        background = background.astype(np.uint8)[..., None]
        impulse = background.copy()
        py, px = kh + 1, kw + 2  # off the period's centre, clear of edges
        impulse[py, px] = 255
        kernel = make_kernel(level)
        lit = (apply_blur(impulse, kernel)
               != apply_blur(background, kernel))[..., 0]
        ax, ay = kw // 2, kh // 2
        window = np.zeros(lit.shape, dtype=bool)
        window[py - (kh - 1 - ay):py + ay + 1,
               px - (kw - 1 - ax):px + ax + 1] = True
        assert np.array_equal(lit, window)


class TestApplyBlur:
    def test_single_row_frozen(self):
        # expected values computed with the naive loop reference
        img = np.array([0, 0, 0, 6, 0, 0, 0], dtype=np.uint8).reshape(1, 7, 1)
        out = apply_blur(img, make_kernel(BlurLevel.MB1))
        assert out.ravel().tolist() == [1, 1, 1, 1, 1, 1, 1]
        loops = blur_loops(img.tolist(), 6, 1)
        assert out.tolist() == loops

    def test_constant_image_unchanged(self):
        img = np.full((64, 64, 3), 128, dtype=np.uint8)
        for level in BlurLevel:
            assert np.array_equal(apply_blur(img, make_kernel(level)), img)

    @pytest.mark.parametrize("width,height,channels", [
        (24, 8, 1), (18, 6, 3), (30, 12, 3), (64, 64, 1),
    ])
    def test_matches_loop_reference(self, width, height, channels):
        rng = np.random.default_rng(width * 1000 + height * 10 + channels)
        img = random_image(rng, width, height, channels)
        for level in (BlurLevel.MB1, BlurLevel.MB2):
            kernel = make_kernel(level)
            if kernel.tap_width > width or kernel.tap_height > height:
                continue
            fast = apply_blur(img, kernel)
            loops = blur_loops(img.tolist(), kernel.tap_width,
                               kernel.tap_height)
            assert fast.tolist() == loops, level.name

    def test_random_64x64_mb2_matches_reference(self):
        rng = np.random.default_rng(7)
        img = random_image(rng, 64, 64, 3)
        kernel = make_kernel(BlurLevel.MB2)
        fast = apply_blur(img, kernel)
        reference = blur_windows(img, 18, 6)
        assert np.array_equal(fast, reference)

    def test_matches_window_reference_all_levels(self):
        rng = np.random.default_rng(11)
        for width, height, channels in [(45, 12, 1), (80, 50, 3), (128, 128, 3)]:
            img = random_image(rng, width, height, channels)
            for level in BlurLevel:
                kernel = make_kernel(level)
                fast = apply_blur(img, kernel)
                reference = blur_windows(img, kernel.tap_width,
                                         kernel.tap_height)
                assert np.array_equal(fast, reference), level.name

    def test_identity_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        img = random_image(rng, 10, 9, 3)
        assert apply_blur(img, make_kernel(BlurLevel.MB0)) is img

    def test_output_within_input_range(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(40, 201, size=(20, 50, 3), dtype=np.uint8)
        for level in (BlurLevel.MB1, BlurLevel.MB2):
            out = apply_blur(arr, make_kernel(level))
            assert out.min() >= arr.min()
            assert out.max() <= arr.max()

    def test_channel_separability(self):
        rng = np.random.default_rng(9)
        img = random_image(rng, 40, 20, 3)
        kernel = make_kernel(BlurLevel.MB2)
        interleaved = apply_blur(img, kernel)
        for channel in range(3):
            mono = img[:, :, [channel]].copy()
            blurred = apply_blur(mono, kernel)
            assert np.array_equal(blurred[:, :, 0], interleaved[:, :, channel])

    def test_kernel_larger_than_image_raises(self):
        img = np.zeros((8, 16, 1), dtype=np.uint8)
        with pytest.raises(ValueError,
                           match="^kernel 45x12 larger than image 16x8$"):
            apply_blur(img, make_kernel(BlurLevel.MB3))
        with pytest.raises(ValueError,  # 18 wide > 16
                           match="^kernel 18x6 larger than image 16x8$"):
            apply_blur(img, make_kernel(BlurLevel.MB2))


class TestBlurVariants:
    """The variants `blur` writes: `apply_blur` with each level's kernel."""

    def test_four_variants_mb0_is_input(self):
        rng = np.random.default_rng(21)
        img = random_image(rng, 64, 64, 3)
        variants = {level: apply_blur(img, make_kernel(level))
                    for level in BlurLevel}
        assert variants[BlurLevel.MB0] is img
        for level in (BlurLevel.MB1, BlurLevel.MB2, BlurLevel.MB3):
            kw, kh = TAP_SIZES[level]
            assert np.array_equal(variants[level], blur_windows(img, kw, kh))

    def test_constant_image_all_variants_equal_input(self):
        img = np.full((12, 45, 3), 70, dtype=np.uint8)
        for level in BlurLevel:
            assert np.array_equal(apply_blur(img, make_kernel(level)), img)


class TestNetpbm:
    def test_ppm_example(self):
        data = b"P6 2 2 255 " + bytes(range(12))
        img = load_image(data)
        assert img.shape == (2, 2, 3)
        assert img.ravel().tolist() == list(range(12))

    def test_truncated_payload(self):
        with pytest.raises(ValueError, match="truncated"):
            load_image(b"P6 2 2 255 " + bytes(11))

    def test_size_past_the_digit_limit_shown_by_its_digit_count(self):
        """A payload size longer than Python writes as text is given by its
        digit count, as is any past 30 digits; shorter ones are written."""
        header = b"P6 %s %s 255 " % (b"1" * 3000, b"2" * 3000)
        with pytest.raises(ValueError, match="^truncated payload: 6 bytes, "
                           "expected a number of 5999 digits$"):
            load_image(header + bytes(6))
        with pytest.raises(ValueError, match="^truncated payload: 6 bytes, "
                           "expected a number of 31 digits$"):
            load_image(b"P5 %d 1 255 " % 10**30 + bytes(6))
        with pytest.raises(ValueError, match="^truncated payload: 6 bytes, "
                           f"expected {10**30 - 1}$"):
            load_image(b"P5 %d 1 255 " % (10**30 - 1) + bytes(6))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            load_image(b"P6 2 2 255 " + bytes(13))

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            load_image(b"P7 2 2 255 " + bytes(12))

    def test_bad_maxval(self):
        with pytest.raises(ValueError, match="maxval"):
            load_image(b"P6 2 2 254 " + bytes(12))

    @pytest.mark.parametrize("data,message", [
        (b"P5 2", "truncated header"),
        (b"P5 0 1 255\n", "non-positive dimensions"),
        (b"P5 1 1 255", "missing delimiter after maxval")])
    def test_bad_header_rejected(self, data, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_image(data)

    def test_header_comments_accepted(self):
        data = b"P5\n# made by hand\n3 1\n255\n" + bytes([9, 8, 7])
        img = load_image(data)
        assert img.ravel().tolist() == [9, 8, 7]

    @given(st.binary(max_size=24).map(
               lambda raw: bytes(b" \t\r\n\x0b\x0c#P5x"[b % 10] for b in raw)),
           st.integers(0, 24))
    @example(b"P5#x 1", 0)
    @example(b"P5 #c", 2)
    @example(b"#c\r\x0b\x0cP6 #\n", 0)
    @example(b" \n#a#b\n\n# x\rx#", 0)
    @settings(max_examples=300, deadline=None)
    def test_header_tokens_match_byte_scan(self, data, pos):
        """A token may hold '#' but not start with one; a comment runs to a
        CR or LF, and a header that ends inside one has no next token."""
        pos = min(pos, len(data))
        expected = pnm_token(data, pos)
        if expected is None:
            with pytest.raises(ValueError, match="^truncated header$"):
                imaging._next_token(data, pos)
        else:
            assert imaging._next_token(data, pos) == expected

    def test_many_header_comments_scan_in_constant_memory(self):
        """A regex that repeats a group per comment keeps backtracking state
        for each one, about 400 bytes a line; the scan keeps none."""
        data = b"P5\n" + b"# c\n" * 100_000 + b"1 1\n255\n" + bytes([7])
        tracemalloc.start()
        try:
            img = load_image(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.ravel().tolist() == [7]
        assert peak < 100_000

    def test_payload_is_a_read_only_view(self):
        """A raster views the bytes it was parsed from; a mutable input is
        copied once, so a later write to it changes no raster."""
        data = bytearray(b"P5 2 1 255\n" + bytes([4, 5]))
        img = load_image(data)
        assert img.ravel().tolist() == [4, 5]
        assert not img.flags.writeable
        assert not np.shares_memory(img, np.frombuffer(data, dtype=np.uint8))
        data[-1] = 9
        assert img.ravel().tolist() == [4, 5]

    def test_any_bytes_like_input(self):
        data = b"P6 2 1 255\n" + bytes(range(6))
        image = load_image(data)
        for other in (bytearray(data), memoryview(data)):
            assert np.array_equal(load_image(other), image)
        with pytest.raises(ValueError, match="magic"):
            load_image(bytearray(b"P7 2 1 255\n" + bytes(6)))

    def test_save_load_canonical_identity(self):
        rng = np.random.default_rng(2)
        for channels in (1, 3):
            img = random_image(rng, 6, 4, channels)
            data = save_image(img)
            assert np.array_equal(load_image(data), img)
            assert save_image(load_image(data)) == data

    def test_non_contiguous_samples_encode_as_their_values(self):
        rng = np.random.default_rng(4)
        wide = random_image(rng, 10, 5, 3)
        for samples in (wide[:, ::2], wide[::-1, 1:6], wide[:, :, 1:2]):
            assert not samples.flags.c_contiguous
            h, w, c = samples.shape
            magic = b"P5" if c == 1 else b"P6"
            assert save_image(samples) == (b"%s\n%d %d\n255\n" % (magic, w, h)
                                       + samples.tobytes())

    @given(width=st.integers(1, 12), height=st.integers(1, 12),
           channels=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, width, height, channels, seed):
        rng = np.random.default_rng(seed)
        img = random_image(rng, width, height, channels)
        assert np.array_equal(load_image(save_image(img)), img)


class TestBlurProperties:
    @given(value=st.integers(0, 255), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_constant_preservation_property(self, value, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(45, 70))
        height = int(rng.integers(12, 30))
        img = np.full((height, width, 1), value, dtype=np.uint8)
        for level in BlurLevel:
            assert np.array_equal(apply_blur(img, make_kernel(level)), img)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fast_path_equals_naive_property(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(18, 40))
        height = int(rng.integers(6, 20))
        img = random_image(rng, width, height, 1)
        kernel = make_kernel(BlurLevel.MB2)
        fast = apply_blur(img, kernel)
        loops = blur_loops(img.tolist(), 18, 6)
        assert fast.tolist() == loops


class TestAccumulatorBounds:
    """Each shifted add of the window sums runs in the narrowest unsigned
    dtype that holds its largest sum."""

    @pytest.mark.parametrize("size,bound,dtype", [
        (257, 255, np.uint16),            # 257*255 = 65535
        (258, 255, np.uint32),
        (2, 32767, np.uint16),            # 65534
        (2, 32768, np.uint32),            # 65536
        (2, 2**31 - 1, np.uint32),        # 2**32 - 2
        (2, 2**31, np.uint64),            # 2**32
    ])
    def test_sums_of_bound_fill_take_the_narrowest_dtype(self, size, bound,
                                                          dtype):
        """Samples all at `bound` sum to exactly `size * bound` in each
        window, in the narrowest dtype of that sum, along either axis."""
        arr = np.full((size + 1, 3), bound, dtype=np.min_scalar_type(bound))
        for sums in (_window_sums(arr, size, 0, bound),
                     _window_sums(arr.T, size, 1, bound).T):
            assert sums.dtype == dtype and sums.shape == (2, 3)
            assert (sums == size * bound).all()

    @pytest.mark.parametrize("kw,kh,width,height", [
        (257, 1, 257, 2), (258, 1, 260, 3), (300, 1, 300, 4),
        (300, 2, 301, 5), (1, 257, 3, 257), (45, 12, 45, 12),
    ])
    def test_past_narrow_bounds_matches_oracle(self, kw, kh, width, height):
        rng = np.random.default_rng(kw * kh + width)
        full = np.full((height, width, 3), 255, dtype=np.uint8)
        noisy = random_image(rng, width, height, 3)
        for img in (full, noisy):
            out = apply_blur(img, BlurKernel(kw, kh))
            assert np.array_equal(out, blur_windows(img, kw, kh))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_kernel_matches_oracle_property(self, data):
        width = data.draw(st.integers(1, 64), label="width")
        height = data.draw(st.integers(1, 24), label="height")
        channels = data.draw(st.sampled_from([1, 3]), label="channels")
        kw = data.draw(st.integers(1, width), label="kw")
        kh = data.draw(st.integers(1, height), label="kh")
        fill = data.draw(st.sampled_from(["random", 255, 0]), label="fill")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        if fill == "random":
            img = random_image(np.random.default_rng(seed),
                               width, height, channels)
        else:
            img = np.full((height, width, channels), fill, dtype=np.uint8)
        out = apply_blur(img, BlurKernel(kw, kh))
        assert np.array_equal(out, blur_windows(img, kw, kh))


@st.composite
def band_cases(draw):
    """(width, height, channels, kw, kh, rows, floor, seed): a raster, a
    kernel that fits it, and a band budget of `rows` rows (0: one byte)
    with a floor of `floor` kernel heights."""
    width = draw(st.integers(1, 24), label="width")
    height = draw(st.integers(1, 41), label="height")
    return (width, height,
            draw(st.sampled_from([1, 3]), label="channels"),
            draw(st.integers(1, width), label="kw"),
            draw(st.integers(1, height), label="kh"),
            draw(st.sampled_from([0, 1, 2, 3, 5]), label="rows"),
            draw(st.sampled_from([1, 2, 4]), label="floor"),
            draw(st.integers(0, 2**32 - 1), label="seed"))


class TestBlurBands:
    """`apply_blur` blurs in row bands of about `_BAND_BYTES` of input and
    at least `_BAND_FLOOR` kernel heights."""

    @given(case=band_cases())
    # kw == width == 3: the right mirror reads column 1 only, the last
    # column before the edge; a reversed slice of it stops at column 0
    @example(case=(3, 5, 1, 3, 1, 5, 4, 0))
    @example(case=(3, 4, 3, 3, 2, 5, 4, 1))
    # kh == height, one band that mirrors at both edges; at 3 rows a
    # reversed slice of the bottom mirror stops at the band's first
    # source row
    @example(case=(4, 6, 1, 2, 6, 5, 4, 2))
    @example(case=(4, 3, 3, 4, 3, 5, 4, 3))
    # a last band of exactly kh rows: its bottom mirror reaches as far
    # up the band as a band of at least kh rows allows
    @example(case=(5, 6, 1, 1, 3, 3, 1, 4))
    @example(case=(2, 9, 3, 2, 3, 3, 1, 5))
    # a one-byte budget with a floor of 1: every band is exactly kh rows
    @example(case=(7, 8, 1, 5, 2, 0, 1, 6))
    @example(case=(4, 9, 3, 4, 3, 0, 1, 7))
    @settings(max_examples=300, deadline=None)
    def test_band_seams_match_oracle_property(self, case):
        width, height, channels, kw, kh, rows, floor, seed = case
        img = random_image(np.random.default_rng(seed),
                           width, height, channels)
        kernel = BlurKernel(kw, kh)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(imaging, "_BAND_BYTES",
                       max(1, rows * width * channels))
            mp.setattr(imaging, "_BAND_FLOOR", floor)
            out = apply_blur(img, kernel)
        assert np.array_equal(out, blur_windows(img, kw, kh))
        if width * height * kw * kh <= 4096:
            assert out.tolist() == blur_loops(img.tolist(), kw, kh)

    @pytest.mark.parametrize("level", ["MB1", "MB2", "MB3"])
    def test_peak_grows_with_output_only(self, level):
        """Quadrupling the height adds the output rows, not padded copies
        and window sums of the whole raster, nor a band buffer per band."""
        width, channels = 1000, 3
        kernel = make_kernel(BlurLevel[level])
        peaks = []
        for height in (1400, 5600):
            img = random_image(np.random.default_rng(height),
                               width, height, channels)
            tracemalloc.start()
            try:
                apply_blur(img, kernel)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra_output = (5600 - 1400) * width * channels
        assert peaks[1] - peaks[0] <= 1.25 * extra_output

    def test_mb3_640x480_rgb_window_sums_stay_band_sized(self):
        """One band over the whole raster would hold its uint32 column sums,
        4 bytes per sample, beside the output; bands hold far less."""
        img = random_image(np.random.default_rng(7), 640, 480, 3)
        tracemalloc.start()
        try:
            out = apply_blur(img, make_kernel(BlurLevel.MB3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 4 * img.nbytes
