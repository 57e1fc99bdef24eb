"""Software rasterizer for dynamic Gaussian scenes.

Gaussians are projected to 2D (with a small diagonal regularizer on the
projected covariance), globally sorted by camera depth, and alpha
composited front to back.  Per-pixel color and depth accumulate
T_i * alpha_i * (c_i | z_i) where T_i is the transmittance of everything in
front; residual transmittance is filled with the background color, and the
depth channel uses 0 as its no-surface sentinel.  Image sizes here are
small, so every Gaussian is evaluated on the full pixel grid; that keeps
the map smooth, which the fitter's gradients rely on.  Rendering, the
fitter's forward pass and track assignment all go through :func:`rasterize`,
which poses and projects all its timesteps in one batch and splats and
composites them one frame at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import GaussianScene, pose_pipeline, scene_params

COV_REG_PX2 = 0.3      # pixel^2 added to the projected covariance diagonal
ALPHA_MAX = 1.0 - 1e-4
MIN_DEPTH = 1e-9
MIN_HIT_WEIGHT = 1e-6


@dataclass(frozen=True)
class RenderResult:
    image: np.ndarray   # (h, w, 3) samples in [0, 1]
    depth: np.ndarray   # (h, w) accumulated T*alpha*z, 0 where nothing hits
    alpha: np.ndarray   # (h, w) accumulated opacity in [0, 1]


def project_points(mu_t: np.ndarray, cov_t: np.ndarray, cameras):
    """Vectorized projection of (F, G) means/covariances, row f through
    ``cameras[f]``.

    Returns (valid, x_cam, mu2d, j, cov2d); entries with non-positive depth
    are culled (valid=False) and their outputs are unspecified."""
    rot = np.stack([c.rotation for c in cameras])                 # (F, 3, 3)
    k = np.stack([c.intrinsics for c in cameras])
    fx, fy, cx, cy = (k[:, r, c, None] for r, c in ((0, 0), (1, 1), (0, 2), (1, 2)))
    x_cam = mu_t @ rot.swapaxes(1, 2) + np.stack([c.translation for c in cameras])[:, None]
    z = x_cam[..., 2]
    valid = z > MIN_DEPTH
    zs = np.where(valid, z, 1.0)
    mu2d = np.stack([fx * x_cam[..., 0] / zs + cx, fy * x_cam[..., 1] / zs + cy], axis=-1)
    j = np.zeros((*z.shape, 2, 3))
    j[..., 0, 0] = fx / zs
    j[..., 1, 1] = fy / zs
    j[..., 0, 2] = -fx * x_cam[..., 0] / zs**2
    j[..., 1, 2] = -fy * x_cam[..., 1] / zs**2
    m = j @ rot[:, None]
    cov2d = np.einsum("fgij,fgjk,fglk->fgil", m, cov_t, m) + COV_REG_PX2 * np.eye(2)
    return valid, x_cam, mu2d, j, cov2d


def _inverse_2x2(mat: np.ndarray):
    a = mat[..., 0, 0]
    b = mat[..., 0, 1]
    c = mat[..., 1, 0]
    d = mat[..., 1, 1]
    det = a * d - b * c
    inv = np.empty_like(mat)
    inv[..., 0, 0] = d / det
    inv[..., 0, 1] = -b / det
    inv[..., 1, 0] = -c / det
    inv[..., 1, 1] = a / det
    return inv, det


def pixel_grid(width: int, height: int):
    """The pixel coordinates as a pair of 1-D arrays, x (width,) and y (height,)."""
    return np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64)


def quad_form(dx: np.ndarray, dy: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """d^T inv d per (g, h, w) offset d = (dx, dy), with the 2x2 product
    written out, as a new array; dx and dy broadcast to (g, h, w)."""
    a, b, c, d = (inv[:, i, j, None, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    qf, tail = a * dx + b * dy, c * dx + d * dy
    return np.add(np.multiply(qf, dx, out=qf), np.multiply(tail, dy, out=tail), out=qf)


def splat_alphas(mu2d: np.ndarray, cov2d: np.ndarray, opacities: np.ndarray, points):
    """Per-Gaussian alpha maps o * exp(-0.5 * d^T cov2d^-1 d) at the sample
    ``points``, a pair of 1-D x and y coordinates (:func:`pixel_grid`),
    clipped just below 1 so transmittance never hits zero exactly.  Returns
    the (g, h, w) alphas, the separable offsets d = (dx, dy) from each
    center, dx (g, 1, w) and dy (g, h, 1), and cov2d^-1."""
    inv, _ = _inverse_2x2(cov2d)
    dx = points[0][None, None, :] - mu2d[:, 0, None, None]
    dy = points[1][None, :, None] - mu2d[:, 1, None, None]
    alphas = quad_form(dx, dy, -0.5 * inv)  # scaling by a power of two rounds exactly
    np.multiply(np.exp(alphas, out=alphas), opacities[:, None, None], out=alphas)
    return np.minimum(alphas, ALPHA_MAX, out=alphas), dx, dy, inv


def composite(alphas_sorted: np.ndarray, colors_sorted: np.ndarray,
              z_sorted: np.ndarray, background: np.ndarray):
    """Front-to-back compositing of already depth-sorted alpha maps.

    Returns (image (3,h,w), depth (h,w), transmittance_excl (g,h,w),
    final_transmittance (h,w), weights transmittance_excl * alphas
    (g,h,w)).  With no splats the image is the background, the depth 0 and
    the final transmittance 1."""
    n, h, w = alphas_sorted.shape
    trans = np.empty((n + 1, h, w))
    trans[0] = 1.0
    for i in range(n):  # the running product, as cumprod forms it
        np.multiply(trans[i], 1.0 - alphas_sorted[i], out=trans[i + 1])
    t_excl, t_final = trans[:-1], trans[-1]
    weights = t_excl * alphas_sorted
    flat = weights.reshape(n, h * w)
    image = (colors_sorted.T @ flat).reshape(3, h, w) + t_final * background[:, None, None]
    depth = (z_sorted @ flat).reshape(h, w)
    return image, depth, t_excl, t_final, weights


def rasterize(params: dict, cameras, ts, background: np.ndarray, points) -> dict:
    """The one forward pass over the timesteps ``ts``, frame f seen by
    ``cameras[f]`` at the (w,) x and (h,) y coordinates ``points[f]``: pose
    and project every frame in one batch, then depth sort, splat and
    composite each frame on its own (one frame's (G, h, w) maps stay in
    cache).  ``params`` holds the scene arrays under :data:`PARAM_KEYS`.
    Returns the batched pose and projection arrays, and under ``frames``
    one new dict per frame: ``order``, the (G, h, w) ``alphas``,
    ``t_excl`` and ``weights`` (t_excl * alphas), ``dx`` (G, 1, w), ``dy``
    (G, h, 1), ``inv``, ``image``, ``depth`` and ``t_final``: everything
    the fitter's backward pass needs."""
    pp = pose_pipeline(params, ts)
    valid, x_cam, mu2d, j, cov2d = project_points(pp["mu_t"], pp["cov"], cameras)
    frames = []
    for f, grid in enumerate(points):
        idx = np.nonzero(valid[f])[0]
        order = idx[np.argsort(x_cam[f, idx, 2], kind="stable")]
        alphas, dx, dy, inv = splat_alphas(
            mu2d[f, order], cov2d[f, order], params["opacities"][order], grid
        )
        image, depth, t_excl, t_final, weights = composite(
            alphas, params["colors"][order], x_cam[f, order, 2], background
        )
        frames.append({
            "order": order, "alphas": alphas, "weights": weights, "dx": dx, "dy": dy,
            "inv": inv, "image": image, "depth": depth, "t_excl": t_excl, "t_final": t_final,
        })
    return {"pp": pp, "valid": valid, "x_cam": x_cam, "mu2d": mu2d, "j": j, "frames": frames}


def render(scene: GaussianScene, t: int) -> RenderResult:
    """Rasterize the scene at timestep t with that timestep's camera."""
    if not 0 <= t < scene.n_timesteps:
        raise ValueError(f"timestep {t} out of range [0, {scene.n_timesteps})")
    camera = scene.cameras[t]
    fwd = rasterize(scene_params(scene), [camera], [t], scene.background,
                    [pixel_grid(camera.width, camera.height)])["frames"][0]
    image = np.clip(fwd["image"].transpose(1, 2, 0), 0.0, 1.0)
    return RenderResult(np.ascontiguousarray(image), fwd["depth"], 1.0 - fwd["t_final"])


def hit_weights(scene: GaussianScene, pixel, t: int) -> np.ndarray:
    """The per-Gaussian T*alpha weights at one pixel (x, y) of frame t,
    normalized to sum to 1, as a length-G vector (0 for Gaussians the pixel
    misses)."""
    px = np.asarray(pixel, dtype=np.float64)
    if px.shape != (2,) or not np.all(np.isfinite(px)):
        raise ValueError(f"pixel {pixel!r} must be two finite numbers (x, y)")
    frame = rasterize(scene_params(scene), [scene.cameras[t]], [t], scene.background,
                      [(px[:1], px[1:])])["frames"][0]
    weights = frame["weights"][:, 0, 0]
    total = weights.sum()
    if total < MIN_HIT_WEIGHT:
        raise ValueError("pixel hits no Gaussian")
    full_weights = np.zeros(scene.n_gaussians)
    full_weights[frame["order"]] = weights / total
    return full_weights
