import math

import numpy as np
import pytest

from deepbrainnet.dataio import GrayImage
from deepbrainnet.imaging import (
    AugmentDraw,
    AugmentParams,
    CannyParams,
    ClaheParams,
    apply_augmentation,
    augment,
    auto_crop_margins,
    box_blur,
    canny,
    clahe,
    draw_augmentation,
    equalize_histogram,
    resize_bilinear,
)
from deepbrainnet.rng import Prng


def random_image(rng, w, h, lo=0, hi=255):
    return GrayImage(w, h, [lo + rng.below(hi - lo + 1) for _ in range(w * h)])


# ---------------------------------------------------------------------------
# resize
# ---------------------------------------------------------------------------


def test_resize_constant_stays_constant():
    image = GrayImage(4, 4, [100] * 16)
    out = resize_bilinear(image, 2, 2)
    assert out.data.tolist() == [[100, 100], [100, 100]]


def test_resize_2x2_to_point():
    # direct bilinear evaluation at source point (0.5, 0.5):
    # 0.25*(0 + 100 + 0 + 100) = 50
    image = GrayImage(2, 2, [0, 100, 0, 100])
    assert resize_bilinear(image, 1, 1).data.tolist() == [[50]]


def test_resize_to_same_size_is_identity():
    rng = Prng(12)
    image = random_image(rng, 7, 5)
    assert resize_bilinear(image, 7, 5) == image


def test_resize_respects_input_range():
    rng = Prng(13)
    for _ in range(10):
        image = random_image(rng, 9, 6, lo=40, hi=200)
        out = resize_bilinear(image, 4, 11)
        assert out.data.min() >= image.data.min()
        assert out.data.max() <= image.data.max()


def test_resize_zero_dimension_rejected():
    with pytest.raises(ValueError):
        resize_bilinear(GrayImage(2, 2, [0] * 4), 0, 2)


# ---------------------------------------------------------------------------
# auto crop
# ---------------------------------------------------------------------------


def test_auto_crop_finds_bright_block():
    data = np.zeros((8, 8), dtype=np.uint8)
    data[3:5, 2:5] = [[200, 201, 202], [203, 204, 205]]
    data[1, 0] = 5  # at or below the threshold: background, outside the box
    cropped = auto_crop_margins(GrayImage(8, 8, data), 10)
    assert cropped.data.tolist() == [[200, 201, 202], [203, 204, 205]]


def test_auto_crop_all_background_rejected():
    with pytest.raises(ValueError):
        auto_crop_margins(GrayImage(4, 4, [5] * 16), 10)


def test_auto_crop_is_idempotent():
    rng = Prng(8)
    data = np.zeros((10, 12), dtype=np.uint8)
    data[2:7, 4:9] = 60 + rng.below(100)
    image = GrayImage(12, 10, data)
    cropped = auto_crop_margins(image, 10)
    assert (cropped.width, cropped.height) == (5, 5)
    assert auto_crop_margins(cropped, 10) == cropped


# ---------------------------------------------------------------------------
# box blur
# ---------------------------------------------------------------------------


def test_blur_constant_unchanged():
    image = GrayImage(5, 5, [77] * 25)
    assert box_blur(image, 3, 3) == image


def test_blur_center_spike():
    # each replicated 3x3 window of this image contains the center exactly
    # once, so the direct sum is 9/9 = 1 everywhere
    data = np.zeros((3, 3), dtype=np.uint8)
    data[1, 1] = 9
    out = box_blur(GrayImage(3, 3, data), 3, 3)
    assert out.data.tolist() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]


def test_blur_1x1_is_identity():
    rng = Prng(21)
    image = random_image(rng, 6, 6)
    assert box_blur(image, 1, 1) == image


def test_blur_even_kernel_rejected():
    with pytest.raises(ValueError):
        box_blur(GrayImage(3, 3, [0] * 9), 2, 3)


def test_blur_preserves_mean_with_constant_border():
    # with a constant border band at least as wide as the kernel radius, the
    # unrounded blur preserves the global mean exactly; rounding adds <= 0.5
    rng = Prng(22)
    for _ in range(10):
        data = np.full((12, 12), 90, dtype=np.uint8)
        inner = np.array(
            [[rng.below(256) for _ in range(8)] for _ in range(8)], dtype=np.uint8
        )
        data[2:10, 2:10] = inner
        image = GrayImage(12, 12, data)
        out = box_blur(image, 3, 3)
        assert abs(float(out.data.mean()) - float(image.data.mean())) <= 0.5


# ---------------------------------------------------------------------------
# histogram equalization
# ---------------------------------------------------------------------------


def test_equalize_four_level_example():
    # direct scaled-cdf evaluation with MN=4:
    # 255*(1/4)=63.75 -> 64, 255*(2/4)=127.5 -> 128,
    # 255*(3/4)=191.25 -> 191, 255*(4/4)=255
    out = equalize_histogram(GrayImage(2, 2, [0, 85, 170, 255]))
    assert out.data.ravel().tolist() == [64, 128, 191, 255]


def test_equalize_constant_maps_to_white():
    for value in (0, 1, 128, 254, 255):
        out = equalize_histogram(GrayImage(3, 2, [value] * 6))
        assert out.data.ravel().tolist() == [255] * 6


def test_equalize_mapping_is_monotone():
    rng = Prng(31)
    for _ in range(20):
        image = random_image(rng, 8, 8)
        out = equalize_histogram(image)
        pairs = sorted(zip(image.data.ravel(), out.data.ravel()))
        for (_, a), (_, b) in zip(pairs, pairs[1:]):
            assert a <= b


def test_equalize_idempotent_within_one_level():
    rng = Prng(32)
    for _ in range(20):
        image = random_image(rng, 10, 7)
        once = equalize_histogram(image)
        twice = equalize_histogram(once)
        drift = np.abs(once.data.astype(int) - twice.data.astype(int))
        assert drift.max() <= 1


# ---------------------------------------------------------------------------
# CLAHE
# ---------------------------------------------------------------------------


def test_clahe_limiting_case_equals_global_equalization():
    rng = Prng(41)
    params = ClaheParams(tiles_x=1, tiles_y=1, clip_limit=float("inf"))
    for _ in range(10):
        image = random_image(rng, 9, 13)
        assert clahe(image, params) == equalize_histogram(image)


def test_clahe_constant_image_stays_close():
    params = ClaheParams()  # 8x8 tiles, clip 2.0
    for value in range(0, 256, 5):
        image = GrayImage(32, 32, [value] * 1024)
        out = clahe(image, params)
        deviation = np.abs(out.data.astype(int) - value).max()
        assert deviation <= 2, f"value {value}: deviation {deviation}"


def test_clahe_output_dims_and_range():
    rng = Prng(42)
    image = random_image(rng, 24, 16)
    out = clahe(image, ClaheParams(tiles_x=4, tiles_y=2, clip_limit=3.0))
    assert (out.width, out.height) == (24, 16)


def test_clahe_rejects_more_tiles_than_pixels():
    with pytest.raises(ValueError):
        clahe(GrayImage(4, 4, [0] * 16), ClaheParams(tiles_x=8, tiles_y=1))


def test_clahe_params_validated():
    with pytest.raises(ValueError):
        ClaheParams(tiles_x=0)
    with pytest.raises(ValueError):
        ClaheParams(clip_limit=0.5)


# ---------------------------------------------------------------------------
# Canny
# ---------------------------------------------------------------------------


def reference_canny(image: GrayImage, params: CannyParams) -> np.ndarray:
    """Brute-force loop implementation with the same documented conventions."""
    radius = math.ceil(3.0 * params.gaussian_sigma)
    taps = [math.exp(-(i * i) / (2 * params.gaussian_sigma**2)) for i in range(-radius, radius + 1)]
    total = sum(taps)
    taps = [t / total for t in taps]
    h, w = image.height, image.width
    src = image.data.astype(float)

    def at(arr, y, x):
        return arr[min(max(y, 0), h - 1), min(max(x, 0), w - 1)]

    tmp = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            tmp[y, x] = sum(t * at(src, y, x + i - radius) for i, t in enumerate(taps))
    smooth = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            smooth[y, x] = sum(t * at(tmp, y + i - radius, x) for i, t in enumerate(taps))

    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            for j in range(3):
                for i in range(3):
                    gx[y, x] += kx[j][i] * at(smooth, y + j - 1, x + i - 1)
                    gy[y, x] += ky[j][i] * at(smooth, y + j - 1, x + i - 1)
    mag = np.hypot(gx, gy) / 4.0

    nms = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            angle = math.degrees(math.atan2(gy[y, x], gx[y, x])) % 180.0
            if angle < 22.5 or angle >= 157.5:
                dy, dx = 0, 1
            elif angle < 67.5:
                dy, dx = 1, 1
            elif angle < 112.5:
                dy, dx = 1, 0
            else:
                dy, dx = 1, -1

            def neighbor(sy, sx):
                ny, nx = y + sy, x + sx
                if 0 <= ny < h and 0 <= nx < w:
                    return mag[ny, nx]
                return 0.0

            if mag[y, x] >= neighbor(dy, dx) and mag[y, x] >= neighbor(-dy, -dx):
                nms[y, x] = mag[y, x]

    strong = nms >= params.high_threshold
    weak = nms >= params.low_threshold
    edges = strong.copy()
    stack = [(y, x) for y in range(h) for x in range(w) if strong[y, x]]
    while stack:
        y, x = stack.pop()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and weak[ny, nx] and not edges[ny, nx]:
                    edges[ny, nx] = True
                    stack.append((ny, nx))
    return edges.astype(np.uint8)


STEP_PARAMS = CannyParams(gaussian_sigma=1.0, low_threshold=50.0, high_threshold=150.0)


def vertical_step(size=20):
    data = np.zeros((size, size), dtype=np.uint8)
    data[:, size // 2 :] = 255
    return GrayImage(size, size, data)


def test_canny_constant_image_is_empty():
    out = canny(GrayImage(20, 20, [123] * 400), STEP_PARAMS)
    assert out.data.sum() == 0


def test_canny_vertical_step_is_thin_and_located():
    image = vertical_step(20)
    out = canny(image, STEP_PARAMS)
    columns = sorted(set(np.nonzero(out.data)[1].tolist()))
    assert columns, "no edge found"
    assert len(columns) <= 2
    assert set(columns) <= {9, 10}  # the two columns adjacent to the step
    rows = set(np.nonzero(out.data)[0].tolist())
    assert len(rows) == 20  # a full vertical line


def test_canny_matches_reference_implementation():
    rng = Prng(51)
    cases = [vertical_step(16)]
    for _ in range(3):
        cases.append(random_image(rng, 14, 14, lo=0, hi=255))
    params = CannyParams(gaussian_sigma=1.0, low_threshold=20.0, high_threshold=60.0)
    for image in cases:
        mine = canny(image, params).data
        ref = reference_canny(image, params)
        assert np.array_equal(mine, ref)


def test_canny_tighter_low_threshold_gives_subset():
    image = vertical_step(24)
    base = canny(image, CannyParams(1.0, 50.0, 150.0)).data
    strict = canny(image, CannyParams(1.0, 149.0, 150.0)).data
    assert np.all(strict <= base)


def test_canny_invariant_to_constant_shift():
    rng = Prng(52)
    image = random_image(rng, 16, 16, lo=0, hi=150)  # headroom for +50
    shifted = GrayImage(16, 16, image.data + 50)
    params = CannyParams(1.0, 20.0, 60.0)
    assert np.array_equal(canny(image, params).data, canny(shifted, params).data)


def test_canny_too_small_image_rejected():
    with pytest.raises(ValueError):
        canny(GrayImage(4, 4, [0] * 16), STEP_PARAMS)
    with pytest.raises(ValueError, match="Gaussian"):
        canny(GrayImage(6, 6, [0] * 36), CannyParams(1.4, 50, 150))  # kernel 11 > 6


def test_canny_params_validated():
    with pytest.raises(ValueError):
        CannyParams(1.0, 150.0, 150.0)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def test_augment_identity_params():
    rng = Prng(61)
    image = random_image(rng, 9, 9)
    out = augment(image, AugmentParams(0.0, False, False, 0.0, 0.0, 0.0, (1.0, 1.0)), seed=5)
    assert out == image


def test_forced_hflip_is_exact():
    rng = Prng(62)
    image = random_image(rng, 8, 6)
    out = apply_augmentation(image, AugmentDraw(hflip=True))
    assert np.array_equal(out.data, image.data[:, ::-1])


def test_forced_vflip_is_exact():
    rng = Prng(63)
    image = random_image(rng, 5, 7)
    out = apply_augmentation(image, AugmentDraw(vflip=True))
    assert np.array_equal(out.data, image.data[::-1, :])


def test_augment_same_seed_same_bytes():
    rng = Prng(64)
    image = random_image(rng, 16, 16)
    params = AugmentParams()
    a = augment(image, params, seed=99)
    b = augment(image, params, seed=99)
    assert a == b


def test_augment_different_seeds_usually_differ():
    rng = Prng(65)
    image = random_image(rng, 16, 16)
    params = AugmentParams()
    outputs = {augment(image, params, seed=s).tobytes() for s in range(6)}
    assert len(outputs) > 1


def test_draw_order_skips_disabled_categories():
    # identical rotation draw whether or not later categories are enabled
    full = draw_augmentation(AugmentParams(), seed=7)
    rotation_only = draw_augmentation(
        AugmentParams(30.0, False, False, 0.0, 0.0, 0.0, (1.0, 1.0)), seed=7
    )
    assert rotation_only.rotation_deg == full.rotation_deg
    assert rotation_only.brightness == 1.0 and rotation_only.zoom == 1.0


def test_brightness_multiplies_and_clamps():
    image = GrayImage(2, 1, [100, 200])
    out = apply_augmentation(image, AugmentDraw(brightness=1.5))
    assert out.data.ravel().tolist() == [150, 255]


def test_augment_params_validated():
    with pytest.raises(ValueError):
        AugmentParams(rotation_range=-1.0)
    with pytest.raises(ValueError):
        AugmentParams(brightness_range=(1.2, 0.8))
