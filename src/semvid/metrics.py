"""Quality metrics: MSE / PSNR / MS-SSIM for images, EPE / PCK for 3D point
tracking, and average Jaccard for 2D boxes.

Conventions (documented here because the report files rely on them):

* samples are normalized to [0, 1], so PSNR uses a peak value of 1;
* identical frames get ``PSNR_CAP_DB`` instead of infinity so reports stay
  serializable;
* MS-SSIM uses the standard five published exponent weights, an 11x11
  Gaussian window (sigma 1.5), valid-window statistics, and box
  downsampling by 2 between scales; fewer scales renormalize the leading
  weights.  ``ms_ssim`` scores one frame pair, its channels blurred as one
  (C, H, W) stack of planes; ``ClipMsSsim`` scores many clips against one
  reference clip with the same arithmetic, keeping the reference's terms,
  so every frame gets ``ms_ssim``'s score bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.ndimage import correlate1d

from .video import Frame, box_downsample

PSNR_CAP_DB = 100.0

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
# the normalized 1D Gaussian window, applied along rows then columns
_KERNEL = np.exp(-0.5 * ((np.arange(SSIM_WINDOW) - SSIM_WINDOW // 2) / SSIM_SIGMA) ** 2)
_KERNEL /= _KERNEL.sum()


def _pair_arrays(x, y):
    a = x.data if isinstance(x, Frame) else np.asarray(x, dtype=np.float64)
    b = y.data if isinstance(y, Frame) else np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def mse(x, y) -> float:
    """Mean squared error between two equally sized frames."""
    a, b = _pair_arrays(x, y)
    return float(np.mean((a - b) ** 2))


def psnr(x, y) -> float:
    """Peak signal-to-noise ratio in dB for [0, 1] data; capped for identical
    inputs."""
    err = mse(x, y)
    if err == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / err), PSNR_CAP_DB)


def _blur(img: np.ndarray) -> np.ndarray:
    """Gaussian-window means over the valid windows of the last two axes.
    Only the rows the valid windows keep are blurred along the last axis;
    each row is blurred on its own, so that changes no value."""
    half = SSIM_WINDOW // 2
    rows = correlate1d(img, _KERNEL, axis=-2, mode="nearest")[..., half:-half, :]
    return correlate1d(rows, _KERNEL, axis=-1, mode="nearest")[..., half:-half]


def _reference_stats(a: np.ndarray):
    """The terms of SSIM that depend on the reference ``a`` alone: its
    blurred mean ``mu_a``, ``2 * mu_a``, ``mu_a**2`` and blurred variance."""
    mu_a = _blur(a)
    mu_a_sq = mu_a**2
    return mu_a, 2 * mu_a, mu_a_sq, _blur(a * a) - mu_a_sq


def _ssim_terms(a, stats, b):
    """Luminance and contrast-structure maps of ``b`` against ``a``, given
    ``_reference_stats(a)``; the terms of ``b`` are computed in place."""
    mu_a, two_mu_a, mu_a_sq, var_a = stats
    mu_b = _blur(b)
    mu_b_sq = mu_b**2
    var_b = _blur(b * b)
    var_b -= mu_b_sq
    cov = _blur(a * b)
    cov -= mu_a * mu_b
    lum = two_mu_a * mu_b
    lum += SSIM_K1**2
    den = mu_a_sq + mu_b_sq
    den += SSIM_K1**2
    lum /= den
    cs = np.multiply(cov, 2)
    cs += SSIM_K2**2
    np.add(var_a, var_b, out=den)
    den += SSIM_K2**2
    cs /= den
    return lum, cs


def ms_ssim_min_side(scales: int) -> int:
    """The fewest pixels per side that leave a full SSIM window at the
    coarsest of ``scales`` MS-SSIM levels."""
    return SSIM_WINDOW * 2 ** (scales - 1)


def _check_scales(shape, scales: int) -> None:
    """``scales`` must be a weight count and leave a full window at the
    coarsest level of frames whose first two axes are ``shape``."""
    if not 1 <= scales <= len(MS_SSIM_WEIGHTS):
        raise ValueError(f"scales must be in [1, {len(MS_SSIM_WEIGHTS)}]")
    min_dim = min(shape)
    needed = ms_ssim_min_side(scales)
    if min_dim < needed:
        raise ValueError(
            f"frames of min dimension {min_dim} are too small for {scales} "
            f"scales; need at least {needed} pixels per side"
        )


def _weights(scales: int) -> np.ndarray:
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    return weights / weights.sum()


def _frame_planes(frame) -> np.ndarray:
    """An (H, W) or (H, W, C) frame as one contiguous (C, H, W) stack of
    planes; an (H, W) frame has C = 1."""
    arr = np.asarray(frame, dtype=np.float64)
    return np.ascontiguousarray(arr[None] if arr.ndim == 2 else arr.transpose(2, 0, 1))


def _pyramid(planes: np.ndarray, scales: int):
    """The (C, H, W) planes at each of ``scales`` levels, each level
    ``box_downsample(plane, 2)`` of the one before.  One plane at a time:
    on an (H, W, C) stack the 2x2 cell sums run in another order, which can
    change a score's last bit."""
    for level in range(scales):
        yield planes
        if level < scales - 1:
            planes = np.stack([box_downsample(plane, 2) for plane in planes])


def _reference_levels(frame, scales: int) -> list:
    """Per scale, a reference frame's (C, H, W) planes and their
    ``_reference_stats``."""
    return [(a, _reference_stats(a)) for a in _pyramid(_frame_planes(frame), scales)]


def _frame_score(levels: list, frame, weights: np.ndarray) -> float:
    """MS-SSIM of ``frame`` against the reference frame whose
    ``_reference_levels`` are ``levels``: the mean over channels of the
    coarsest level's mean luminance and every level's mean
    contrast-structure, each clipped at 0 and weighted."""
    cs_terms = []
    for (a, stats), b in zip(levels, _pyramid(_frame_planes(frame), len(levels))):
        lum, cs = _ssim_terms(a, stats, b)
        cs_terms.append([max(float(plane.mean()), 0.0) for plane in cs])
    values = []
    for c, plane in enumerate(lum):
        score = max(float(plane.mean()), 0.0) ** weights[-1]
        for w, level in zip(weights[:-1], cs_terms[:-1]):
            score *= level[c] ** w
        # the coarsest level contributes both luminance and cs
        values.append(score * cs_terms[-1][c] ** weights[-1])
    return float(np.clip(np.mean(values), 0.0, 1.0))


def ms_ssim(x, y, scales: int) -> float:
    """Multi-scale structural similarity in [0, 1] of two (H, W) or
    (H, W, C) frames; 1.0 for identical inputs.

    ``scales`` must leave at least one full 11x11 window at the coarsest
    level, i.e. min(h, w) >= 11 * 2**(scales - 1).
    """
    a, b = _pair_arrays(x, y)
    if a.ndim not in (2, 3):
        raise ValueError(f"ms_ssim needs (H, W) or (H, W, C) frames, got shape {a.shape}")
    _check_scales(a.shape[:2], scales)
    return _frame_score(_reference_levels(a, scales), b, _weights(scales))


def _frame_shape(reference) -> tuple:
    """The one (H, W) or (H, W, C) shape of a reference clip's frames."""
    shapes = {np.shape(a) for a in reference}
    if len(shapes) != 1 or len(next(iter(shapes))) not in (2, 3):
        raise ValueError("a reference clip needs frames of one (H, W) or (H, W, C) shape, "
                         f"got {sorted(shapes)}")
    return shapes.pop()


def _check_clip(length: int, frame_shape: tuple, clip) -> None:
    """A clip scored against a reference clip needs as many frames, each of
    the reference's frame shape."""
    if len(clip) != length:
        raise ValueError(f"clip length mismatch: reference has {length} frames, "
                         f"clip has {len(clip)}")
    for b in clip:
        if np.shape(b) != frame_shape:
            raise ValueError(f"frame shape mismatch: {frame_shape} vs {np.shape(b)}")


class ClipMsSsim:
    """Frame-by-frame ``ms_ssim`` of clips against one reference clip, for
    scoring many: the reference's pyramid and the SSIM terms that depend on
    it alone are computed once and kept, for every clip scored against it.

    Clips are (T, H, W) or (T, H, W, C) arrays or sequences of (H, W) or
    (H, W, C) frames.  Clips are scored a frame at a time: a frame's arrays
    stay in a core's L2 cache, where whole-clip stacks did not and ran
    slower.  Each score is ``ms_ssim(reference[t], clip[t])`` bit for bit,
    from the same ``_frame_score``.
    """

    def __init__(self, reference, scales: int):
        self.frame_shape = _frame_shape(reference)
        _check_scales(self.frame_shape[:2], scales)
        self.weights = _weights(scales)
        self.frames = [_reference_levels(a, scales) for a in reference]

    def frame_scores(self, clip) -> list:
        """``ms_ssim(reference[t], clip[t])`` for every frame t."""
        _check_clip(len(self.frames), self.frame_shape, clip)
        return [_frame_score(levels, b, self.weights) for levels, b in zip(self.frames, clip)]


def _check_points(pred, gt):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError("point sets must have shape (n, 3)")
    if p.shape != g.shape:
        raise ValueError(f"cardinality mismatch: {p.shape[0]} vs {g.shape[0]}")
    if p.shape[0] < 1:
        raise ValueError("point sets must be non-empty")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(g))):
        raise ValueError("point coordinates must be finite")
    return p, g


def epe(pred, gt) -> float:
    """Mean Euclidean endpoint error between matched 3D points, in meters."""
    p, g = _check_points(pred, gt)
    return float(np.mean(np.linalg.norm(p - g, axis=1)))


def pck(pred, gt, tau: float) -> float:
    """Fraction of predicted points strictly within ``tau`` meters of truth."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    p, g = _check_points(pred, gt)
    dist = np.linalg.norm(p - g, axis=1)
    return float(np.mean(dist < tau))


def _check_boxes(pred, gt):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError("box sets must have shape (n, 4) as (xmin, ymin, xmax, ymax)")
    if p.shape != g.shape:
        raise ValueError(f"cardinality mismatch: {p.shape[0]} vs {g.shape[0]}")
    for name, arr in (("pred", p), ("gt", g)):
        if np.any(arr[:, 0] > arr[:, 2]) or np.any(arr[:, 1] > arr[:, 3]):
            raise ValueError(f"{name} boxes must satisfy min <= max per axis")
    return p, g


def average_jaccard(pred, gt) -> float:
    """Mean intersection-over-union of matched axis-aligned boxes."""
    p, g = _check_boxes(pred, gt)
    ix = np.maximum(
        0.0, np.minimum(p[:, 2], g[:, 2]) - np.maximum(p[:, 0], g[:, 0])
    )
    iy = np.maximum(
        0.0, np.minimum(p[:, 3], g[:, 3]) - np.maximum(p[:, 1], g[:, 1])
    )
    inter = ix * iy
    area_p = (p[:, 2] - p[:, 0]) * (p[:, 3] - p[:, 1])
    area_g = (g[:, 2] - g[:, 0]) * (g[:, 3] - g[:, 1])
    union = area_p + area_g - inter
    ious = np.zeros(len(p))
    positive = union > 0
    if not np.all(positive):
        warnings.warn("zero-area union encountered; those pairs contribute 0")
    ious[positive] = inter[positive] / union[positive]
    return float(ious.mean())
