"""Box-filter convolution and netpbm raster I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurbench.imaging import (
    BlurLevel,
    DimensionError,
    FormatError,
    Image,
    TAP_SIZES,
    apply_blur,
    blur_variants,
    load_image,
    make_kernel,
    save_image,
)
from conftest import random_image
from oracles import blur_loops, blur_windows


class TestMakeKernel:
    def test_tap_sizes(self):
        assert (TAP_SIZES[BlurLevel.MB0], TAP_SIZES[BlurLevel.MB1],
                TAP_SIZES[BlurLevel.MB2], TAP_SIZES[BlurLevel.MB3]) == \
            ((1, 1), (6, 1), (18, 6), (45, 12))

    def test_mb1_kernel(self):
        k = make_kernel(BlurLevel.MB1)
        assert (k.tap_width, k.tap_height) == (6, 1)
        assert (k.anchor_x, k.anchor_y) == (3, 0)

    def test_mb0_is_identity_kernel(self):
        k = make_kernel(BlurLevel.MB0)
        assert (k.tap_width, k.tap_height) == (1, 1)

    def test_mb3_kernel(self):
        k = make_kernel(BlurLevel.MB3)
        assert (k.tap_width, k.tap_height) == (45, 12)
        assert (k.anchor_x, k.anchor_y) == (22, 6)

    def test_level_ordering(self):
        assert BlurLevel.MB0 < BlurLevel.MB1 < BlurLevel.MB2 < BlurLevel.MB3


class TestApplyBlur:
    def test_single_row_frozen(self):
        # expected values computed with the naive loop reference
        img = Image.from_flat(7, 1, 1, bytes([0, 0, 0, 6, 0, 0, 0]))
        out = apply_blur(img, make_kernel(BlurLevel.MB1))
        assert out.samples.ravel().tolist() == [1, 1, 1, 1, 1, 1, 1]
        loops = blur_loops(img.samples.tolist(), 6, 1)
        assert out.samples.tolist() == loops

    def test_constant_image_unchanged(self):
        img = Image(64, 64, 3, np.full((64, 64, 3), 128, dtype=np.uint8))
        for level in BlurLevel:
            assert apply_blur(img, make_kernel(level)) == img

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
            loops = blur_loops(img.samples.tolist(),
                               kernel.tap_width, kernel.tap_height)
            assert fast.samples.tolist() == loops, level.name

    def test_random_64x64_mb2_matches_reference(self):
        rng = np.random.default_rng(7)
        img = random_image(rng, 64, 64, 3)
        kernel = make_kernel(BlurLevel.MB2)
        fast = apply_blur(img, kernel)
        reference = blur_windows(img.samples, 18, 6)
        assert np.array_equal(fast.samples, reference)

    def test_matches_window_reference_all_levels(self):
        rng = np.random.default_rng(11)
        for width, height, channels in [(45, 12, 1), (80, 50, 3), (128, 128, 3)]:
            img = random_image(rng, width, height, channels)
            for level in BlurLevel:
                kernel = make_kernel(level)
                fast = apply_blur(img, kernel)
                reference = blur_windows(img.samples, kernel.tap_width,
                                         kernel.tap_height)
                assert np.array_equal(fast.samples, reference), level.name

    def test_identity_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        img = random_image(rng, 10, 9, 3)
        assert apply_blur(img, make_kernel(BlurLevel.MB0)) == img

    def test_output_within_input_range(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(40, 201, size=(20, 50, 3), dtype=np.uint8)
        img = Image(50, 20, 3, arr)
        for level in (BlurLevel.MB1, BlurLevel.MB2):
            out = apply_blur(img, make_kernel(level))
            assert out.samples.min() >= arr.min()
            assert out.samples.max() <= arr.max()

    def test_channel_separability(self):
        rng = np.random.default_rng(9)
        img = random_image(rng, 40, 20, 3)
        kernel = make_kernel(BlurLevel.MB2)
        interleaved = apply_blur(img, kernel)
        for channel in range(3):
            mono = Image(40, 20, 1, img.samples[:, :, [channel]].copy())
            blurred = apply_blur(mono, kernel)
            assert np.array_equal(blurred.samples[:, :, 0],
                                  interleaved.samples[:, :, channel])

    def test_kernel_larger_than_image_raises(self):
        img = Image(16, 8, 1, np.zeros((8, 16, 1), dtype=np.uint8))
        with pytest.raises(DimensionError):
            apply_blur(img, make_kernel(BlurLevel.MB3))
        with pytest.raises(DimensionError):
            apply_blur(img, make_kernel(BlurLevel.MB2))  # 18 wide > 16


class TestBlurVariants:
    def test_four_variants_mb0_is_input(self):
        rng = np.random.default_rng(21)
        img = random_image(rng, 64, 64, 3)
        variants = blur_variants(img)
        assert set(variants) == set(BlurLevel)
        assert variants[BlurLevel.MB0] is img
        assert variants[BlurLevel.MB1] == apply_blur(img, make_kernel(BlurLevel.MB1))

    def test_too_small_image_rejected(self):
        img = Image(32, 8, 1, np.zeros((8, 32, 1), dtype=np.uint8))
        with pytest.raises(DimensionError):
            blur_variants(img)

    def test_constant_image_all_variants_equal_input(self):
        img = Image(45, 12, 3, np.full((12, 45, 3), 70, dtype=np.uint8))
        for variant in blur_variants(img).values():
            assert variant == img


class TestImageType:
    def test_sample_shape_enforced(self):
        with pytest.raises(ValueError):
            Image(3, 2, 1, np.zeros((2, 3, 3), dtype=np.uint8))

    def test_dtype_enforced(self):
        with pytest.raises(ValueError):
            Image(3, 2, 1, np.zeros((2, 3, 1), dtype=np.int32))

    def test_channel_count_enforced(self):
        with pytest.raises(ValueError):
            Image(3, 2, 2, np.zeros((2, 3, 2), dtype=np.uint8))

    def test_from_flat_length_check(self):
        with pytest.raises(ValueError):
            Image.from_flat(2, 2, 3, bytes(11))


class TestNetpbm:
    def test_ppm_example(self):
        data = b"P6 2 2 255 " + bytes(range(12))
        img = load_image(data)
        assert (img.width, img.height, img.channels) == (2, 2, 3)
        assert img.samples.ravel().tolist() == list(range(12))

    def test_truncated_payload(self):
        with pytest.raises(FormatError, match="truncated"):
            load_image(b"P6 2 2 255 " + bytes(11))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FormatError, match="trailing"):
            load_image(b"P6 2 2 255 " + bytes(13))

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            load_image(b"P7 2 2 255 " + bytes(12))

    def test_bad_maxval(self):
        with pytest.raises(FormatError, match="maxval"):
            load_image(b"P6 2 2 254 " + bytes(12))

    def test_header_comments_accepted(self):
        data = b"P5\n# made by hand\n3 1\n255\n" + bytes([9, 8, 7])
        img = load_image(data)
        assert img.samples.ravel().tolist() == [9, 8, 7]

    def test_format_mismatch(self):
        data = b"P6 1 1 255 " + bytes(3)
        with pytest.raises(FormatError):
            load_image(data, format="pgm")
        assert load_image(data, format="ppm").channels == 3

    def test_save_channel_mismatch(self):
        img = Image(1, 1, 1, np.zeros((1, 1, 1), dtype=np.uint8))
        with pytest.raises(FormatError):
            save_image(img, format="ppm")

    def test_save_load_canonical_identity(self):
        rng = np.random.default_rng(2)
        for channels in (1, 3):
            img = random_image(rng, 6, 4, channels)
            data = save_image(img)
            assert load_image(data) == img
            assert save_image(load_image(data)) == data

    @given(width=st.integers(1, 12), height=st.integers(1, 12),
           channels=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, width, height, channels, seed):
        rng = np.random.default_rng(seed)
        img = random_image(rng, width, height, channels)
        assert load_image(save_image(img)) == img


class TestBlurProperties:
    @given(value=st.integers(0, 255), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_constant_preservation_property(self, value, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(45, 70))
        height = int(rng.integers(12, 30))
        img = Image(width, height, 1,
                    np.full((height, width, 1), value, dtype=np.uint8))
        for variant in blur_variants(img).values():
            assert variant == img

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fast_path_equals_naive_property(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(18, 40))
        height = int(rng.integers(6, 20))
        img = random_image(rng, width, height, 1)
        kernel = make_kernel(BlurLevel.MB2)
        fast = apply_blur(img, kernel)
        loops = blur_loops(img.samples.tolist(), 18, 6)
        assert fast.samples.tolist() == loops
