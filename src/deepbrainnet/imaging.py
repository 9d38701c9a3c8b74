"""Per-image preprocessing, enhancement, augmentation, and edge detection.

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
from dataclasses import dataclass

import numpy as np

from .dataio import GrayImage
from .rng import Prng


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

    maps = np.empty((ty, tx, 256))
    for j in range(ty):
        for i in range(tx):
            tile = image.data[by[j] : by[j + 1], bx[i] : bx[i + 1]]
            hist = np.bincount(tile.ravel(), minlength=256).astype(np.float64)
            npx = tile.size
            clip = params.clip_limit * npx / 256.0
            over = hist > clip
            excess = float((hist[over] - clip).sum())
            clipped = np.minimum(hist, clip)
            if excess > 0:
                below = ~over
                if below.any():
                    clipped[below] += excess / below.sum()
                else:
                    clipped += excess / 256.0
            maps[j, i] = 255.0 * np.cumsum(clipped) / npx

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

    v = image.data
    rows0, rows1 = j0[:, None], j1[:, None]
    cols0, cols1 = i0[None, :], i1[None, :]
    m00 = maps[rows0, cols0, v]
    m01 = maps[rows0, cols1, v]
    m10 = maps[rows1, cols0, v]
    m11 = maps[rows1, cols1, v]
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


def apply_augmentation(image: GrayImage, draw: AugmentDraw) -> GrayImage:
    """Apply a sampled transform: one composed affine resample, then brightness.

    The affine part composes rotation @ shear @ zoom @ flips about the image
    center plus a translation; sampling is bilinear with fill value 0 outside
    the source footprint. Brightness multiplies, rounds half-up, and clamps.
    """
    theta = math.radians(draw.rotation_deg)
    phi = math.radians(draw.shear_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shear = np.array([[1.0, math.tan(phi)], [0.0, 1.0]])
    zoom = np.array([[draw.zoom, 0.0], [0.0, draw.zoom]])
    flip = np.diag([-1.0 if draw.hflip else 1.0, -1.0 if draw.vflip else 1.0])
    matrix = rot @ shear @ zoom @ flip
    shift = np.array([draw.shift_x_frac * image.width, draw.shift_y_frac * image.height])

    inv = np.linalg.inv(matrix)
    cx, cy = (image.width - 1) / 2.0, (image.height - 1) / 2.0
    dst_x, dst_y = np.meshgrid(np.arange(image.width), np.arange(image.height))
    rel = np.stack([dst_x.ravel() - cx - shift[0], dst_y.ravel() - cy - shift[1]])
    src = inv @ rel
    sx = src[0] + cx
    sy = src[1] + cy

    resampled = _bilinear_fill_zero(image.data.astype(np.float64), sx, sy)
    out = resampled.reshape(image.height, image.width) * draw.brightness
    return GrayImage(image.width, image.height, _round_u8(out))


def _bilinear_fill_zero(src: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Bilinear samples at float coordinates; out-of-bounds corners contribute 0."""
    h, w = src.shape
    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    fx = sx - x0
    fy = sy - y0
    total = np.zeros(sx.shape)
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            xi = x0 + dx
            yi = y0 + dy
            inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            weight = wx * wy * inside
            total += weight * src[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
    return total


def augment(image: GrayImage, params: AugmentParams, seed: int) -> GrayImage:
    """Random augmentation: deterministic for identical (image, params, seed)."""
    return apply_augmentation(image, draw_augmentation(params, seed))
