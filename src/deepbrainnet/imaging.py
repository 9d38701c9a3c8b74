"""Per-image preprocessing and enhancement, batched augmentation, and edge detection.

Conventions used throughout, chosen once so outputs are bit-comparable across
implementations:

* every float-to-8-bit conversion rounds half-up (floor(x + 0.5)) and then
  clamps to [0, 255];
* bilinear resampling uses half-pixel centers: source = (dst + 0.5) * scale - 0.5,
  clamped to the source grid;
* spatial filters pad by edge replication.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataio import GrayImage
from .rng import Prng


# Augmentation warps a batch in chunks of whole images totalling at most this
# many pixels, and at least one image: 128 images at 32 px, 2 at 224 px.
# Warping a 32-image 224 px batch as one chunk ran about 1.5x slower than in
# chunks of one or two images: its float temporaries no longer fit the cache.
_WARP_CHUNK_PIXELS = 1 << 17


def _round_u8(values) -> np.ndarray:
    """Round half-up then clamp to the 8-bit range."""
    return np.clip(np.floor(np.asarray(values, dtype=np.float64) + 0.5), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentParams:
    """Ranges for one random augmentation draw. Zero / False disables a category."""

    rotation_range: float = 30.0  # degrees, sampled in [-r, +r]
    allow_hflip: bool = True
    allow_vflip: bool = False
    zoom_range: float = 0.1  # scale sampled in [1-z, 1+z]
    shift_range: float = 0.1  # fraction of each dimension
    shear_range: float = 10.0  # degrees
    brightness_range: tuple[float, float] = (0.9, 1.1)  # multiplicative factor

    def __post_init__(self):
        for name in ("rotation_range", "zoom_range", "shift_range", "shear_range"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.zoom_range >= 1:  # a scale of 1 - zoom_range <= 0 is no zoom
            raise ValueError(f"zoom_range must be < 1, got {self.zoom_range}")
        if self.shear_range >= 90:  # a 90 degree shear has no inverse
            raise ValueError(f"shear_range must be < 90 degrees, got {self.shear_range}")
        lo, hi = self.brightness_range
        if lo > hi or lo <= 0:
            raise ValueError(f"brightness_range must satisfy 0 < lo <= hi, got ({lo}, {hi})")


@dataclass(frozen=True)
class AugmentDraw:
    """One concrete sampled transform; shifts are fractions of the dimension."""

    rotation_deg: float = 0.0
    hflip: bool = False
    vflip: bool = False
    zoom: float = 1.0
    shift_x_frac: float = 0.0
    shift_y_frac: float = 0.0
    shear_deg: float = 0.0
    brightness: float = 1.0


@dataclass(frozen=True)
class ClaheParams:
    tiles_x: int = 8
    tiles_y: int = 8
    clip_limit: float = 2.0  # multiple of the uniform histogram bin height

    def __post_init__(self):
        if self.tiles_x < 1 or self.tiles_y < 1:
            raise ValueError("tiles_x and tiles_y must be >= 1")
        if self.clip_limit < 1:
            raise ValueError("clip_limit must be >= 1")


@dataclass(frozen=True)
class CannyParams:
    gaussian_sigma: float = 1.4
    low_threshold: float = 50.0  # 8-bit gradient-magnitude scale
    high_threshold: float = 150.0

    def __post_init__(self):
        if self.gaussian_sigma <= 0:
            raise ValueError("gaussian_sigma must be positive")
        if not 0 <= self.low_threshold < self.high_threshold:
            raise ValueError("thresholds must satisfy 0 <= low < high")


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def resize_bilinear(image: GrayImage, new_w: int, new_h: int) -> GrayImage:
    """Resample with bilinear interpolation under the half-pixel-center convention."""
    if new_w < 1 or new_h < 1:
        raise ValueError(f"target dimensions must be positive, got {new_w}x{new_h}")
    src = image.data.astype(np.float64)
    scale_x = image.width / new_w
    scale_y = image.height / new_h
    xs = np.clip((np.arange(new_w) + 0.5) * scale_x - 0.5, 0, image.width - 1)
    ys = np.clip((np.arange(new_h) + 0.5) * scale_y - 0.5, 0, image.height - 1)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, image.width - 1)
    y1 = np.minimum(y0 + 1, image.height - 1)
    fx = xs - x0
    fy = (ys - y0)[:, None]
    top = (1 - fx) * src[np.ix_(y0, x0)] + fx * src[np.ix_(y0, x1)]
    bottom = (1 - fx) * src[np.ix_(y1, x0)] + fx * src[np.ix_(y1, x1)]
    return GrayImage(new_w, new_h, _round_u8((1 - fy) * top + fy * bottom))


def auto_crop_margins(image: GrayImage, background_threshold: int) -> GrayImage:
    """Crop to the tight bounding box of pixels brighter than the threshold."""
    mask = image.data > background_threshold
    if not mask.any():
        raise ValueError(
            f"no pixel exceeds background threshold {background_threshold}; cannot crop"
        )
    ys, xs = np.nonzero(mask)
    sub = image.data[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
    return GrayImage(sub.shape[1], sub.shape[0], sub)


# ---------------------------------------------------------------------------
# Enhancement
# ---------------------------------------------------------------------------


def box_blur(image: GrayImage, m: int, n: int) -> GrayImage:
    """Unweighted m-wide by n-tall mean filter with edge replication.

    m and n must be odd so the window is centered on the output pixel.
    """
    if m < 1 or n < 1 or m % 2 == 0 or n % 2 == 0:
        raise ValueError(f"kernel dimensions must be odd and positive, got {m}x{n}")
    total = _correlate2d_replicate(image.data.astype(np.float64), np.ones((n, m)))
    return GrayImage(image.width, image.height, _round_u8(total / (m * n)))


def equalization_map(image: GrayImage) -> np.ndarray:
    """The 256-entry intensity mapping r -> round(255 * cdf(r))."""
    hist = np.bincount(image.data.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    return _round_u8(255.0 * cdf / image.data.size)


def equalize_histogram(image: GrayImage) -> GrayImage:
    """Global histogram equalization via the scaled cumulative distribution."""
    return GrayImage(image.width, image.height, equalization_map(image)[image.data])


def clahe(image: GrayImage, params: ClaheParams) -> GrayImage:
    """Contrast-limited adaptive histogram equalization.

    Per tile: the 256-bin histogram is clipped at clip_limit times the uniform
    bin height and the clipped excess is spread evenly (one pass, as floats)
    over the bins that were below the limit. Each tile's scaled-cdf mapping is
    then blended per pixel by bilinear interpolation between the four nearest
    tile centers. With one tile and an unbounded clip limit this reduces to
    plain histogram equalization.
    """
    tx, ty = params.tiles_x, params.tiles_y
    if image.width < tx or image.height < ty:
        raise ValueError(
            f"image {image.width}x{image.height} has fewer pixels per axis than "
            f"{tx}x{ty} tiles"
        )
    bx = [(i * image.width) // tx for i in range(tx + 1)]
    by = [(j * image.height) // ty for j in range(ty + 1)]

    # all tiles' histograms from one bincount over tile * 256 + level
    tile_row = np.repeat(np.arange(ty) * tx, np.diff(by))
    tile_col = np.repeat(np.arange(tx), np.diff(bx))
    tile_of = tile_row[:, None] + tile_col
    hist = np.bincount((tile_of * 256 + image.data).ravel(), minlength=tx * ty * 256)
    hist = hist.reshape(tx * ty, 256).astype(np.float64)
    npx = (np.diff(by)[:, None] * np.diff(bx)).reshape(-1, 1)
    clip = params.clip_limit * npx / 256.0
    over = hist > clip
    excess = np.where(over, hist - clip, 0.0).sum(axis=1, keepdims=True)
    n_below = np.count_nonzero(~over, axis=1, keepdims=True)
    share = np.where(n_below > 0, excess / np.maximum(n_below, 1), excess / 256.0)
    clipped = np.minimum(hist, clip)
    clipped += np.where((excess > 0) & (~over | (n_below == 0)), share, 0.0)
    maps = (255.0 * np.cumsum(clipped, axis=1) / npx).ravel()

    centers_x = np.array([(bx[i] + bx[i + 1] - 1) / 2.0 for i in range(tx)])
    centers_y = np.array([(by[j] + by[j + 1] - 1) / 2.0 for j in range(ty)])

    def blend_axis(coords, centers):
        lo = np.searchsorted(centers, coords, side="right") - 1
        lo = np.clip(lo, 0, len(centers) - 1)
        hi = np.minimum(lo + 1, len(centers) - 1)
        span = centers[hi] - centers[lo]
        frac = np.where(span > 0, (coords - centers[lo]) / np.where(span > 0, span, 1), 0.0)
        return lo, hi, np.clip(frac, 0.0, 1.0)

    i0, i1, wx = blend_axis(np.arange(image.width, dtype=np.float64), centers_x)
    j0, j1, wy = blend_axis(np.arange(image.height, dtype=np.float64), centers_y)

    level = image.data.astype(np.intp)
    rows0, rows1 = (j0 * tx)[:, None], (j1 * tx)[:, None]
    m00 = maps.take((rows0 + i0) * 256 + level)
    m01 = maps.take((rows0 + i1) * 256 + level)
    m10 = maps.take((rows1 + i0) * 256 + level)
    m11 = maps.take((rows1 + i1) * 256 + level)
    wxr = wx[None, :]
    wyr = wy[:, None]
    blended = (1 - wyr) * ((1 - wxr) * m00 + wxr * m01) + wyr * ((1 - wxr) * m10 + wxr * m11)
    return GrayImage(image.width, image.height, _round_u8(blended))


# ---------------------------------------------------------------------------
# Canny edge detection
# ---------------------------------------------------------------------------


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps of length 2*ceil(3*sigma) + 1."""
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _correlate2d_replicate(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    padded = np.pad(values, ((ry, ry), (rx, rx)), mode="edge")
    out = np.zeros_like(values, dtype=np.float64)
    h, w = values.shape
    for j in range(kh):
        for i in range(kw):
            if kernel[j, i] != 0.0:
                out += kernel[j, i] * padded[j : j + h, i : i + w]
    return out


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
_SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64)


def _shifted(values: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """values[y+dy, x+dx] with zeros outside the frame."""
    out = np.zeros_like(values)
    h, w = values.shape
    ys = slice(max(0, -dy), min(h, h - dy))
    xs = slice(max(0, -dx), min(w, w - dx))
    out[ys, xs] = values[
        max(0, dy) : min(h, h + dy), max(0, dx) : min(w, w + dx)
    ]
    return out


def canny(image: GrayImage, params: CannyParams) -> GrayImage:
    """Classic edge-detection pipeline producing a binary edge map: pixels 0 or 1.

    Stages: Gaussian smoothing, Sobel gradients (magnitude divided by 4 so a
    full-contrast step lands near the top of the 8-bit threshold scale),
    non-maximum suppression along one of four quantized gradient directions
    (ties kept, so an ideally symmetric step keeps a two-pixel line), double
    thresholding, and hysteresis growth from strong to weak pixels over
    8-connected neighborhoods.
    """
    if image.width < 5 or image.height < 5:
        raise ValueError("canny needs an image of at least 5x5")
    g = gaussian_kernel1d(params.gaussian_sigma)
    if min(image.width, image.height) < len(g):
        raise ValueError(
            f"image {image.width}x{image.height} too small for the "
            f"{len(g)}x{len(g)} Gaussian kernel (sigma={params.gaussian_sigma})"
        )
    smooth = _correlate2d_replicate(image.data.astype(np.float64), g[None, :])
    smooth = _correlate2d_replicate(smooth, g[:, None])
    gx = _correlate2d_replicate(smooth, _SOBEL_X)
    gy = _correlate2d_replicate(smooth, _SOBEL_Y)
    mag = np.hypot(gx, gy) / 4.0

    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    sector0 = (angle < 22.5) | (angle >= 157.5)  # horizontal gradient
    sector1 = (angle >= 22.5) & (angle < 67.5)  # down-right diagonal
    sector2 = (angle >= 67.5) & (angle < 112.5)  # vertical gradient
    sector3 = (angle >= 112.5) & (angle < 157.5)  # down-left diagonal

    keep = np.zeros_like(mag, dtype=bool)
    for sector, (dy, dx) in (
        (sector0, (0, 1)),
        (sector1, (1, 1)),
        (sector2, (1, 0)),
        (sector3, (1, -1)),
    ):
        fwd = _shifted(mag, dy, dx)
        back = _shifted(mag, -dy, -dx)
        keep |= sector & (mag >= fwd) & (mag >= back)
    suppressed = np.where(keep, mag, 0.0)

    strong = suppressed >= params.high_threshold
    weak = suppressed >= params.low_threshold

    edges = np.zeros_like(strong)
    queue = deque(zip(*np.nonzero(strong)))
    edges[strong] = True
    h, w = edges.shape
    while queue:
        y, x = queue.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and weak[ny, nx] and not edges[ny, nx]:
                    edges[ny, nx] = True
                    queue.append((ny, nx))
    return GrayImage(image.width, image.height, edges)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def draw_augmentation(params: AugmentParams, seed: int) -> AugmentDraw:
    """Sample one transform per enabled category, in a fixed documented order.

    Draw order: rotation, hflip coin, vflip coin, zoom, shift x, shift y,
    shear, brightness. Disabled categories consume no randomness.
    """
    rng = Prng(seed)
    rotation = rng.uniform_in(-params.rotation_range, params.rotation_range) if params.rotation_range > 0 else 0.0
    hflip = rng.coin() if params.allow_hflip else False
    vflip = rng.coin() if params.allow_vflip else False
    zoom = rng.uniform_in(1 - params.zoom_range, 1 + params.zoom_range) if params.zoom_range > 0 else 1.0
    if params.shift_range > 0:
        shift_x = rng.uniform_in(-params.shift_range, params.shift_range)
        shift_y = rng.uniform_in(-params.shift_range, params.shift_range)
    else:
        shift_x = shift_y = 0.0
    shear = rng.uniform_in(-params.shear_range, params.shear_range) if params.shear_range > 0 else 0.0
    lo, hi = params.brightness_range
    brightness = rng.uniform_in(lo, hi) if (lo, hi) != (1.0, 1.0) else 1.0
    return AugmentDraw(rotation, hflip, vflip, zoom, shift_x, shift_y, shear, brightness)


def apply_augmentation(images: np.ndarray, draws: Sequence[AugmentDraw]) -> np.ndarray:
    """Apply draws[i] to images[i] of a (B, H, W) uint8 stack; returns a new stack.

    Each transform is one affine resample, then brightness. The affine part
    composes rotation @ shear @ zoom @ flips about the image center plus a
    translation; sampling is bilinear with fill value 0 outside the source
    footprint. Brightness multiplies, rounds half-up, and clamps. The stack is
    warped in chunks of whole images of at most `_WARP_CHUNK_PIXELS` pixels
    (or one larger image); each image's result does not depend on the chunk.
    """
    n, h, w = images.shape
    if len(draws) != n:
        raise ValueError(f"{len(draws)} draws for {n} images")
    per_chunk = max(1, _WARP_CHUNK_PIXELS // (h * w))
    out = np.empty(images.shape, dtype=np.uint8)
    for start in range(0, n, per_chunk):
        stop = start + per_chunk
        out[start:stop] = _warp(images[start:stop], draws[start:stop])
    return out


def _warp(images: np.ndarray, draws: Sequence[AugmentDraw]) -> np.ndarray:
    """One chunk's transforms at once: stacked (B, 2, 2) matrices, flat corner gathers."""
    b, h, w = images.shape
    theta = [math.radians(d.rotation_deg) for d in draws]
    rot = np.array([[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]] for t in theta])
    shear = np.array([[[1.0, math.tan(math.radians(d.shear_deg))], [0.0, 1.0]] for d in draws])
    zoom = np.array([[[d.zoom, 0.0], [0.0, d.zoom]] for d in draws])
    flip = np.array(
        [[[-1.0 if d.hflip else 1.0, 0.0], [0.0, -1.0 if d.vflip else 1.0]] for d in draws]
    )
    inv = np.linalg.inv(rot @ shear @ zoom @ flip)
    shift_x = np.array([d.shift_x_frac for d in draws]) * w
    shift_y = np.array([d.shift_y_frac for d in draws]) * h

    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    dst_x, dst_y = np.meshgrid(np.arange(w), np.arange(h))
    rel = np.empty((b, 2, h * w))
    np.subtract(dst_x.ravel() - cx, shift_x[:, None], out=rel[:, 0])
    np.subtract(dst_y.ravel() - cy, shift_y[:, None], out=rel[:, 1])
    src = inv @ rel
    src[:, 0] += cx
    src[:, 1] += cy
    sx, sy = src[:, 0], src[:, 1]

    # Bilinear with fill 0. Each image gets a 2-pixel zero border and corner
    # coordinates are clamped into it, so a corner outside the image reads 0
    # and keeps the weight it had before clamping. The gathers read the
    # padded stack flat: image offset + row * padded width + column.
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    pw = w + 4
    padded = np.pad(images.astype(np.float64), ((0, 0), (2, 2), (2, 2))).ravel()
    corner = np.clip(y0, -2, h)
    corner *= pw
    corner += np.clip(x0, -2, w)
    corner += (np.arange(b) * ((h + 4) * pw) + 2 * pw + 2)[:, None]
    corner = corner.astype(np.intp)
    total = np.zeros(sx.shape)
    for dy, wy in ((0, 1 - fy), (pw, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            weight = wx * wy
            weight *= padded[dy + dx :].take(corner)
            total += weight
    total *= np.array([d.brightness for d in draws])[:, None]
    return _round_u8(total.reshape(b, h, w))


def augment(images: np.ndarray, params: AugmentParams, seeds: Sequence[int]) -> np.ndarray:
    """Random augmentation of a (B, H, W) uint8 stack, image i drawn from seeds[i].

    Deterministic for identical (image, params, seed): an image's result does
    not depend on the other images in the stack.
    """
    return apply_augmentation(images, [draw_augmentation(params, seed) for seed in seeds])
