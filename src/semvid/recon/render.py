"""Software rasterizer for dynamic Gaussian scenes.

Gaussians are projected to 2D (with a small diagonal regularizer on the
projected covariance), globally sorted by camera depth, and alpha
composited front to back.  Per-pixel color and depth accumulate
T_i * alpha_i * (c_i | z_i) where T_i is the transmittance of everything in
front; residual transmittance is filled with the background color, and the
depth channel uses 0 as its no-surface sentinel.  Image sizes here are
small, so every Gaussian is evaluated on the full pixel grid; that keeps
the map smooth, which the fitter's gradients rely on.  Rendering, the
fitter's forward pass and the track lift all go through :func:`rasterize`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..video import Frame
from .scene import Camera, GaussianScene, pose_pipeline, scene_params

COV_REG_PX2 = 0.3      # pixel^2 added to the projected covariance diagonal
ALPHA_MAX = 1.0 - 1e-4
MIN_DEPTH = 1e-9
MIN_HIT_WEIGHT = 1e-6


@dataclass(frozen=True)
class RenderResult:
    image: Frame
    depth: np.ndarray   # (h, w) accumulated T*alpha*z, 0 where nothing hits
    alpha: np.ndarray   # (h, w) accumulated opacity in [0, 1]


def project_points(mu_t: np.ndarray, cov_t: np.ndarray, camera: Camera):
    """Vectorized projection of G means/covariances.

    Returns (valid, x_cam, mu2d, j, cov2d); entries with non-positive depth
    are culled (valid=False) and their outputs are unspecified."""
    x_cam = mu_t @ camera.rotation.T + camera.translation
    z = x_cam[:, 2]
    valid = z > MIN_DEPTH
    zs = np.where(valid, z, 1.0)
    fx, fy = camera.fx, camera.fy
    mu2d = np.stack(
        [fx * x_cam[:, 0] / zs + camera.cx, fy * x_cam[:, 1] / zs + camera.cy], axis=1
    )
    g = mu_t.shape[0]
    j = np.zeros((g, 2, 3))
    j[:, 0, 0] = fx / zs
    j[:, 1, 1] = fy / zs
    j[:, 0, 2] = -fx * x_cam[:, 0] / zs**2
    j[:, 1, 2] = -fy * x_cam[:, 1] / zs**2
    m = j @ camera.rotation
    cov2d = np.einsum("gij,gjk,glk->gil", m, cov_t, m) + COV_REG_PX2 * np.eye(2)
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


def pixel_grid(width: int, height: int) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width]
    return np.stack([xs, ys], axis=-1).astype(np.float64)  # (h, w, 2) as (x, y)


def splat_alphas(mu2d: np.ndarray, cov2d: np.ndarray, opacities: np.ndarray,
                 points: np.ndarray):
    """Per-Gaussian alpha maps o * exp(-0.5 * d^T cov2d^-1 d) at the (h, w, 2)
    sample ``points``, clipped just below 1 so transmittance never hits zero
    exactly."""
    inv, _ = _inverse_2x2(cov2d)
    delta = points[None, :, :, :] - mu2d[:, None, None, :]        # (g, h, w, 2)
    qf = np.einsum("ghwi,gij,ghwj->ghw", delta, inv, delta)
    alpha_raw = opacities[:, None, None] * np.exp(-0.5 * qf)
    return np.minimum(alpha_raw, ALPHA_MAX), alpha_raw, delta, inv


def composite(alphas_sorted: np.ndarray, colors_sorted: np.ndarray,
              z_sorted: np.ndarray, background: np.ndarray):
    """Front-to-back compositing of already depth-sorted alpha maps.

    Returns (image (h,w,3), depth (h,w), transmittance_excl (g,h,w),
    final_transmittance (h,w)).  With no splats the image is the
    background, the depth 0 and the final transmittance 1."""
    trans = np.ones((alphas_sorted.shape[0] + 1, *alphas_sorted.shape[1:]))
    np.cumprod(1.0 - alphas_sorted, axis=0, out=trans[1:])
    t_excl, t_final = trans[:-1], trans[-1]
    weights = t_excl * alphas_sorted
    image = np.einsum("ghw,gc->hwc", weights, colors_sorted)
    depth = np.einsum("ghw,g->hw", weights, z_sorted)
    image = image + t_final[:, :, None] * background
    return image, depth, t_excl, t_final


def rasterize(params: dict, camera: Camera, t: int, background: np.ndarray,
              points: np.ndarray = None) -> dict:
    """The one forward pass: pose at timestep t, project, depth sort, splat
    and composite.  ``params`` holds the scene arrays under
    :data:`PARAM_KEYS`; ``points`` are (h, w, 2) sample positions, the
    camera's full pixel grid by default.  Returns every intermediate the
    fitter's backward pass needs."""
    if points is None:
        points = pixel_grid(camera.width, camera.height)
    pp = pose_pipeline(params, t)
    valid, x_cam, mu2d, j, cov2d = project_points(pp["mu_t"], pp["cov"], camera)
    idx = np.nonzero(valid)[0]
    order = idx[np.argsort(x_cam[idx, 2], kind="stable")]
    alphas, alpha_raw, delta, inv = splat_alphas(
        mu2d[order], cov2d[order], params["opacities"][order], points
    )
    image, depth, t_excl, t_final = composite(
        alphas, params["colors"][order], x_cam[order, 2], background
    )
    return {
        "pp": pp, "valid": valid, "x_cam": x_cam, "mu2d": mu2d, "j": j,
        "cov2d": cov2d, "order": order, "alphas": alphas,
        "alpha_raw": alpha_raw, "delta": delta, "inv": inv, "image": image,
        "depth": depth, "t_excl": t_excl, "t_final": t_final,
    }


def render(scene: GaussianScene, t: int) -> RenderResult:
    """Rasterize the scene at timestep t with that timestep's camera."""
    if not 0 <= t < scene.n_timesteps:
        raise ValueError(f"timestep {t} out of range [0, {scene.n_timesteps})")
    fwd = rasterize(scene_params(scene), scene.cameras[t], t, scene.background)
    return RenderResult(Frame(np.clip(fwd["image"], 0.0, 1.0)), fwd["depth"],
                        1.0 - fwd["t_final"])


def surface_lift(scene: GaussianScene, pixel, t: int):
    """Expected surface depth and per-Gaussian hit weights at one pixel.

    Returns (weights over all G, sorted order, surface world point)."""
    camera = scene.cameras[t]
    px = np.asarray(pixel, dtype=np.float64)
    fwd = rasterize(scene_params(scene), camera, t, scene.background, px[None, None, :])
    order = fwd["order"]
    weights = (fwd["t_excl"] * fwd["alphas"])[:, 0, 0]
    total = weights.sum()
    if total < MIN_HIT_WEIGHT:
        raise ValueError("pixel hits no Gaussian")
    weights = weights / total
    z_hat = float(weights @ fwd["x_cam"][order, 2])
    ray = np.array([(px[0] - camera.cx) / camera.fx, (px[1] - camera.cy) / camera.fy, 1.0])
    surface_cam = ray * z_hat
    surface_world = camera.to_world(surface_cam[None, :])[0]
    full_weights = np.zeros(scene.n_gaussians)
    full_weights[order] = weights
    return full_weights, order, surface_world


def track_correspondence(scene: GaussianScene, pixel, t: int, t_prime: int):
    """Where does the surface point seen at ``pixel`` in frame t appear in
    frame t_prime, and at what camera depth?

    The pixel is lifted to a 3D surface point from the rendered depth, moved
    by the hit-weighted blend of the per-Gaussian rigid motions between the
    two timesteps, and reprojected with the target camera."""
    for step in (t, t_prime):
        if not 0 <= step < scene.n_timesteps:
            raise ValueError(f"timestep {step} out of range [0, {scene.n_timesteps})")
    weights, order, surface_world = surface_lift(scene, pixel, t)

    params = scene_params(scene)
    src, dst = pose_pipeline(params, t), pose_pipeline(params, t_prime)
    r_src, tr_src = src["rblend"], src["tblend"]
    r_dst, tr_dst = dst["rblend"], dst["tblend"]
    # per-Gaussian map: x -> R_dst @ R_src^T @ (x - tr_src) + tr_dst
    rel = surface_world[None, :] - tr_src
    canonical = np.einsum("gji,gj->gi", r_src, rel)
    moved = np.einsum("gij,gj->gi", r_dst, canonical) + tr_dst
    target_world = weights @ moved

    camera = scene.cameras[t_prime]
    x_cam = camera.to_camera(target_world[None, :])[0]
    depth = float(x_cam[2])
    if depth <= 0:
        raise ValueError("correspondence projects behind the target camera")
    u = np.array(
        [
            camera.fx * x_cam[0] / depth + camera.cx,
            camera.fy * x_cam[1] / depth + camera.cy,
        ]
    )
    return u, depth
