import hashlib
import math

import numpy as np
import pytest

from deepbrainnet import imaging
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


def random_planes(seed, count, w, h, levels=256, lo=0):
    """(count, h, w) uint8 stack of values lo + below(levels)."""
    return (lo + Prng(seed).belows(np.full((count, h, w), levels))).astype(np.uint8)


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
# resize, crop and blur against the forms they were first written in
# ---------------------------------------------------------------------------


def _round_half_up_u8(values) -> np.ndarray:
    return np.clip(np.floor(np.asarray(values, dtype=np.float64) + 0.5), 0, 255).astype(np.uint8)


def reference_resize(image: GrayImage, new_w: int, new_h: int) -> np.ndarray:
    """Four corner gathers over the float image, then the blend along x and y."""
    src = image.data.astype(np.float64)
    xs = np.clip((np.arange(new_w) + 0.5) * (image.width / new_w) - 0.5, 0, image.width - 1)
    ys = np.clip((np.arange(new_h) + 0.5) * (image.height / new_h) - 0.5, 0, image.height - 1)
    x0, y0 = np.floor(xs).astype(int), np.floor(ys).astype(int)
    x1, y1 = np.minimum(x0 + 1, image.width - 1), np.minimum(y0 + 1, image.height - 1)
    fx, fy = xs - x0, (ys - y0)[:, None]
    top = (1 - fx) * src[np.ix_(y0, x0)] + fx * src[np.ix_(y0, x1)]
    bottom = (1 - fx) * src[np.ix_(y1, x0)] + fx * src[np.ix_(y1, x1)]
    return _round_half_up_u8((1 - fy) * top + fy * bottom)


def reference_box_blur(image: GrayImage, m: int, n: int) -> np.ndarray:
    """One float tap per window position over the edge-padded image."""
    padded = np.pad(image.data.astype(np.float64), ((n // 2, n // 2), (m // 2, m // 2)), mode="edge")
    total = np.zeros((image.height, image.width))
    for j in range(n):
        for i in range(m):
            total += padded[j : j + image.height, i : i + image.width]
    return _round_half_up_u8(total / (m * n))


def reference_crop(image: GrayImage, threshold: int) -> np.ndarray | None:
    """The bounding box of every bright pixel's coordinates; None with no bright pixel."""
    ys, xs = np.nonzero(image.data > threshold)
    if ys.size == 0:
        return None
    return image.data[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]


def _blocky_image(seed: int, w: int, h: int) -> GrayImage:
    """Noise in a random rectangle on a black background."""
    rng = Prng(seed)
    data = np.zeros((h, w), dtype=np.uint8)
    top, left = rng.below(h), rng.below(w)
    bottom, right = top + 1 + rng.below(h - top), left + 1 + rng.below(w - left)
    data[top:bottom, left:right] = random_planes(seed, 1, right - left, bottom - top)[0]
    return GrayImage(w, h, data)


@pytest.mark.parametrize("width,height", [(37, 29), (16, 61), (1, 9), (50, 50)])
def test_resize_matches_the_corner_gather_reference(width, height):
    image = GrayImage(width, height, random_planes(81, 1, width, height)[0])
    rng = Prng(82)
    targets = [(width, height), (2 * width + 3, height), (width, max(1, height // 3)),
               (max(1, width // 2), 2 * height), (224, 224), (1, 1)]
    targets += [(1 + rng.below(90), 1 + rng.below(90)) for _ in range(6)]
    for new_w, new_h in targets:
        got = resize_bilinear(image, new_w, new_h)
        assert (got.width, got.height) == (new_w, new_h)
        assert np.array_equal(got.data, reference_resize(image, new_w, new_h)), (new_w, new_h)


@pytest.mark.parametrize("m", [1, 3, 5, 9])
@pytest.mark.parametrize("n", [1, 3, 7, 9])
def test_box_blur_matches_the_float_tap_reference(m, n):
    for width, height in ((23, 17), (4, 12)):  # a kernel wider or taller than the image too
        image = GrayImage(width, height, random_planes(m * 10 + n, 1, width, height)[0])
        assert np.array_equal(box_blur(image, m, n).data, reference_box_blur(image, m, n))


@pytest.mark.parametrize("seed", range(6))
def test_auto_crop_matches_the_nonzero_reference(seed):
    image = _blocky_image(seed, 31, 22)
    for threshold in (0, 1, 30, 128, 254, 255):  # 255 crops everything away
        want = reference_crop(image, threshold)
        if want is None:
            with pytest.raises(ValueError, match="no pixel exceeds"):
                auto_crop_margins(image, threshold)
        else:
            assert np.array_equal(auto_crop_margins(image, threshold).data, want), threshold
    full = GrayImage(7, 5, np.full((5, 7), 9, dtype=np.uint8))
    assert auto_crop_margins(full, 8) == full  # every pixel bright: nothing cropped


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
    """One unclipped tile maps each level r to the scaled CDF, round(255 * cdf(r) / n)."""
    rng = Prng(41)
    params = ClaheParams(tiles_x=1, tiles_y=1, clip_limit=float("inf"))
    for _ in range(10):
        image = random_image(rng, 9, 13)
        cdf = np.cumsum(np.bincount(image.data.ravel(), minlength=256))
        scaled = np.floor(255.0 * cdf / image.data.size + 0.5).astype(np.uint8)
        assert np.array_equal(clahe(image, params).data, scaled[image.data])


def reference_clahe(image: GrayImage, params: ClaheParams) -> np.ndarray:
    """The tile-by-tile loop CLAHE was first written as, kept as the reference."""
    tx, ty = params.tiles_x, params.tiles_y
    bx = [(i * image.width) // tx for i in range(tx + 1)]
    by = [(j * image.height) // ty for j in range(ty + 1)]
    maps = np.empty((ty, tx, 256))
    for j in range(ty):
        for i in range(tx):
            tile = image.data[by[j] : by[j + 1], bx[i] : bx[i + 1]]
            hist = np.bincount(tile.ravel(), minlength=256).astype(np.float64)
            clip = params.clip_limit * tile.size / 256.0
            over = hist > clip
            excess = float((hist[over] - clip).sum())
            clipped = np.minimum(hist, clip)
            if excess > 0:
                below = ~over
                if below.any():
                    clipped[below] += excess / below.sum()
                else:
                    clipped += excess / 256.0
            maps[j, i] = 255.0 * np.cumsum(clipped) / tile.size

    def blend_axis(n, bounds):
        centers = np.array([(bounds[k] + bounds[k + 1] - 1) / 2.0 for k in range(len(bounds) - 1)])
        coords = np.arange(n, dtype=np.float64)
        lo = np.clip(np.searchsorted(centers, coords, side="right") - 1, 0, len(centers) - 1)
        hi = np.minimum(lo + 1, len(centers) - 1)
        span = centers[hi] - centers[lo]
        frac = np.where(span > 0, (coords - centers[lo]) / np.where(span > 0, span, 1), 0.0)
        return lo, hi, np.clip(frac, 0.0, 1.0)

    i0, i1, wx = blend_axis(image.width, bx)
    j0, j1, wy = blend_axis(image.height, by)
    v = image.data
    m00, m01 = maps[j0[:, None], i0, v], maps[j0[:, None], i1, v]
    m10, m11 = maps[j1[:, None], i0, v], maps[j1[:, None], i1, v]
    wyr = wy[:, None]
    blended = (1 - wyr) * ((1 - wx) * m00 + wx * m01) + wyr * ((1 - wx) * m10 + wx * m11)
    return np.clip(np.floor(blended + 0.5), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("clip_limit", [1.0, 2.3, 1000.0])
@pytest.mark.parametrize("tiles", [(8, 8), (3, 5), (1, 1)])
@pytest.mark.parametrize("width,height", [(37, 29), (33, 33)])
def test_clahe_matches_tile_loop_reference(width, height, tiles, clip_limit):
    params = ClaheParams(tiles_x=tiles[0], tiles_y=tiles[1], clip_limit=clip_limit)
    spread = random_planes(71, 1, width, height)[0]
    narrow = random_planes(72, 1, width, height, levels=12, lo=90)[0]  # bins far over the limit
    for data in (spread, narrow):
        image = GrayImage(width, height, data)
        assert np.array_equal(clahe(image, params).data, reference_clahe(image, params))


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


def reference_warp(image: np.ndarray, draw: AugmentDraw) -> np.ndarray:
    """The per-image warp augmentation was first written as, kept as the reference."""
    h, w = image.shape
    theta = math.radians(draw.rotation_deg)
    phi = math.radians(draw.shear_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shear = np.array([[1.0, math.tan(phi)], [0.0, 1.0]])
    zoom = np.array([[draw.zoom, 0.0], [0.0, draw.zoom]])
    flip = np.diag([-1.0 if draw.hflip else 1.0, -1.0 if draw.vflip else 1.0])
    inv = np.linalg.inv(rot @ shear @ zoom @ flip)
    shift = np.array([draw.shift_x_frac * w, draw.shift_y_frac * h])
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    dst_x, dst_y = np.meshgrid(np.arange(w), np.arange(h))
    src = inv @ np.stack([dst_x.ravel() - cx - shift[0], dst_y.ravel() - cy - shift[1]])
    sx, sy = src[0] + cx, src[1] + cy
    source = image.astype(np.float64)
    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    fx, fy = sx - x0, sy - y0
    total = np.zeros(sx.shape)
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            xi, yi = x0 + dx, y0 + dy
            inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            total += wx * wy * inside * source[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
    out = total.reshape(h, w) * draw.brightness
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


MIXED_PARAMS = (
    AugmentParams(),
    AugmentParams(0.0, False, False, 0.0, 0.0, 0.0, (1.0, 1.0)),  # every category off
    AugmentParams(45.0, True, True, 0.5, 0.3, 40.0, (0.5, 1.5)),
    AugmentParams(0.0, True, True, 0.0, 0.2, 0.0, (1.0, 1.0)),  # flips and shift only
    AugmentParams(180.0, False, True, 0.1, 0.0, 0.0, (1.0, 1.0)),
)


def mixed_draws(count):
    draws = [AugmentDraw(), AugmentDraw(hflip=True, vflip=True, zoom=0.6, brightness=2.0)]
    while len(draws) < count:
        draws.append(draw_augmentation(MIXED_PARAMS[len(draws) % len(MIXED_PARAMS)], len(draws)))
    return draws[:count]


@pytest.mark.parametrize("width,height,count", [(32, 32, 12), (37, 29, 12), (224, 224, 5)])
def test_batched_warp_matches_per_image_reference(width, height, count):
    images = random_planes(81, count, width, height)
    draws = mixed_draws(count)
    if width == 224:  # the stack spans several warp chunks
        assert count * width * height > imaging._WARP_CHUNK_PIXELS
    out = apply_augmentation(images, draws)
    assert out.shape == images.shape and out.dtype == np.uint8
    for image, draw, warped in zip(images, draws, out):
        assert np.array_equal(warped, reference_warp(image, draw))


def test_augment_batch_digest_is_pinned():
    images = random_planes(82, 6, 37, 29)
    out = augment(images, AugmentParams(), seeds=[11, 12, 13, 14, 15, 16])
    assert hashlib.sha256(out.tobytes()).hexdigest() == AUGMENT_DIGEST


# the per-image warp's result on this batch, before the warp was batched
AUGMENT_DIGEST = "8dae92464206811b09427dbf11702b3c54f0bbad0ef9b9222a0069469d61bb7c"


def test_augment_identity_params():
    images = random_planes(61, 2, 9, 9)
    out = augment(images, AugmentParams(0.0, False, False, 0.0, 0.0, 0.0, (1.0, 1.0)), seeds=[5, 6])
    assert np.array_equal(out, images)


def test_forced_hflip_is_exact():
    images = random_planes(62, 2, 8, 6)
    out = apply_augmentation(images, [AugmentDraw(hflip=True), AugmentDraw()])
    assert np.array_equal(out[0], images[0][:, ::-1])
    assert np.array_equal(out[1], images[1])


def test_forced_vflip_is_exact():
    images = random_planes(63, 1, 5, 7)
    out = apply_augmentation(images, [AugmentDraw(vflip=True)])
    assert np.array_equal(out[0], images[0][::-1, :])


def test_augment_same_seed_same_bytes():
    images = random_planes(64, 3, 16, 16)
    params = AugmentParams()
    assert np.array_equal(augment(images, params, [99, 7, 99]), augment(images, params, [99, 7, 99]))


def test_augment_image_result_ignores_its_batch():
    images = random_planes(66, 4, 16, 16)
    seeds = [3, 1, 4, 1]
    batch = augment(images, AugmentParams(), seeds)
    for i in range(4):
        assert np.array_equal(batch[i], augment(images[i : i + 1], AugmentParams(), seeds[i : i + 1])[0])


def test_augment_different_seeds_usually_differ():
    images = np.repeat(random_planes(65, 1, 16, 16), 6, axis=0)
    out = augment(images, AugmentParams(), seeds=range(6))
    assert len({plane.tobytes() for plane in out}) > 1


def test_augment_needs_one_draw_per_image():
    with pytest.raises(ValueError):
        apply_augmentation(random_planes(67, 2, 4, 4), [AugmentDraw()])


def test_draw_order_skips_disabled_categories():
    # identical rotation draw whether or not later categories are enabled
    full = draw_augmentation(AugmentParams(), seed=7)
    rotation_only = draw_augmentation(
        AugmentParams(30.0, False, False, 0.0, 0.0, 0.0, (1.0, 1.0)), seed=7
    )
    assert rotation_only.rotation_deg == full.rotation_deg
    assert rotation_only.brightness == 1.0 and rotation_only.zoom == 1.0


def test_brightness_multiplies_and_clamps():
    images = np.array([[[100, 200]]], dtype=np.uint8)
    out = apply_augmentation(images, [AugmentDraw(brightness=1.5)])
    assert out.ravel().tolist() == [150, 255]


def test_augment_params_validated():
    for field, value in (
        ("rotation_range", -1.0),
        ("brightness_range", (1.2, 0.8)),
        ("zoom_range", 1.0),  # a scale of 1 - 1 = 0 is no zoom
        ("zoom_range", 1.5),
        ("shear_range", 90.0),  # no inverse
    ):
        with pytest.raises(ValueError, match=field):
            AugmentParams(**{field: value})
