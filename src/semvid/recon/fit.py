"""Desk-scale scene fitting.

Objective: per-frame L1 image error + L1 depth error (both on the raw
rasterizer outputs) + L1 reprojection error of tracked points, weighted
1 : 0.5 : 0.05 (``IMAGE_WEIGHT``, ``DEPTH_WEIGHT``, ``TRACK_WEIGHT``) and
averaged over frames.  Gradients are analytic all the way through the
rasterizer (compositing, splatting, projection, covariance construction,
quaternion blending); the test suite validates them against central finite
differences.

The variables are one flat vector, each group of ``PARAM_KEYS`` a view
into it, stepped by Adam with per-element step sizes (``LEARNING_RATES``)
and clipped to one box (``BOUNDS``).  A step that does not decrease the
objective is backtracked with a halved scale, at most ``MAX_BACKTRACKS``
times per iteration, so the recorded objective is non-increasing by
construction; a fit's only settings are its iterations and held-out frames.

Each candidate is rasterized once, all fit frames in one call, and an
accepted candidate's gradient is built from that call's outputs when the
next iteration starts, in two stages: the per-pixel terms (compositing and
splatting) one frame at a time, then the per-Gaussian chain (projection,
covariance, rotation and blend) for all frames in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .render import ALPHA_MAX, hit_weights, pixel_grid, rasterize
from .scene import PARAM_KEYS, GaussianScene, quat_normalize, scene_params

LEARNING_RATES = {
    "means": 5e-3,
    "quats": 2e-3,
    "scales": 2e-3,
    "opacities": 5e-3,
    "colors": 5e-3,
    "coeffs": 5e-3,
    "basis_quats": 1e-3,
    "basis_trans": 1e-3,
}
# halvings tried per iteration before a step is rejected
MAX_BACKTRACKS = 12

# objective weights of the image, depth and track terms
IMAGE_WEIGHT = 1.0
DEPTH_WEIGHT = 0.5
TRACK_WEIGHT = 0.05

OPACITY_EPS = 1e-4
SCALE_FLOOR = 1e-5
# the box each group is clipped to after every step; +-inf leaves a group free
BOUNDS = {**dict.fromkeys(PARAM_KEYS, (-np.inf, np.inf)), "scales": (SCALE_FLOOR, np.inf),
          "opacities": (OPACITY_EPS, 1 - OPACITY_EPS), "colors": (0.0, 1.0)}


class FitDivergenceError(RuntimeError):
    """Raised when the objective stops being finite."""


@dataclass(frozen=True)
class Tracks2D:
    """2D point tracks: pixels queried in frame 0 and their observed
    positions in every frame."""

    query_pixels: np.ndarray  # (K, 2)
    positions: np.ndarray     # (K, T, 2)


@dataclass
class FitResult:
    scene: GaussianScene
    losses: list  # the objective at the start and after each iteration
    backtracks: int
    rejected_steps: int
    evaluations: int  # forward passes of the objective
    gradients: int    # backward passes

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    @property
    def iterations_run(self) -> int:
        return len(self.losses) - 1


def _flatten(groups: dict) -> np.ndarray:
    """The arrays of ``groups`` copied into one new flat vector."""
    return np.concatenate([groups[k].ravel() for k in PARAM_KEYS])


def _views(x: np.ndarray, like: dict) -> dict:
    """``x`` cut into views shaped as the arrays of ``like``."""
    ends = np.cumsum([like[k].size for k in PARAM_KEYS])[:-1]
    return {k: part.reshape(like[k].shape) for k, part in zip(PARAM_KEYS, np.split(x, ends))}


def params_to_scene(params: dict, like: GaussianScene) -> GaussianScene:
    """The scene with ``params`` (each group clipped to its ``BOUNDS``) in
    place of ``like``'s arrays, and ``like``'s cameras and background."""
    arrays = {k: np.clip(params[k], *BOUNDS[k]) for k in PARAM_KEYS}
    for key in ("quats", "basis_quats"):
        arrays[key] = quat_normalize(arrays[key])
    return replace(like, **arrays)


def track_assignments(scene: GaussianScene, query_pixels: np.ndarray) -> np.ndarray:
    """Frozen soft assignment of each tracked pixel to the Gaussians hit in
    frame 0 (normalized T*alpha weights); held constant during fitting."""
    return np.stack([hit_weights(scene, p, 0) for p in np.atleast_2d(query_pixels)])


def predict_track_positions(mu2d: np.ndarray, assignments: np.ndarray,
                            valid: np.ndarray) -> np.ndarray:
    """Predicted pixel position per frame and track, (F, K, 2): the
    assignment-weighted mean of the (F, G, 2) projected Gaussian centers
    (culled Gaussians contribute nothing)."""
    a = assignments * valid[:, None, :]
    return a @ mu2d


# --- quaternion / rotation backward helpers -------------------------------

def _normalize_backward(raw: np.ndarray, d_normalized: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    unit = raw / norm
    inner = np.sum(unit * d_normalized, axis=-1, keepdims=True)
    return (d_normalized - unit * inner) / norm


def _rotmat_backward(q: np.ndarray, d_r: np.ndarray) -> np.ndarray:
    """d(loss)/dq for R = quat_to_rotmat(q) with unit q, batched."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    zero = np.zeros_like(w)

    def mat(rows):
        return 2.0 * np.stack(rows, axis=-1).reshape(*q.shape[:-1], 3, 3)

    d_w = mat([zero, -z, y, z, zero, -x, -y, x, zero])
    d_x = mat([zero, y, z, y, -2 * x, -w, z, w, -2 * x])
    d_y = mat([-2 * y, x, w, x, zero, z, -w, z, -2 * y])
    d_z = mat([-2 * z, -w, x, w, -2 * z, y, x, y, zero])
    return np.stack(
        [np.sum(d_r * d, axis=(-2, -1)) for d in (d_w, d_x, d_y, d_z)], axis=-1
    )


def _quat_mul_left_matrix(a: np.ndarray) -> np.ndarray:
    """M with quat_multiply(a, b) == M @ b."""
    w, x, y, z = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    rows = [w, -x, -y, -z, x, w, -z, y, y, z, w, -x, z, -y, x, w]
    return np.stack(rows, axis=-1).reshape(*a.shape[:-1], 4, 4)


def _quat_mul_right_matrix(b: np.ndarray) -> np.ndarray:
    """M with quat_multiply(a, b) == M @ a."""
    w, x, y, z = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    rows = [w, -x, -y, -z, x, w, z, -y, y, -z, w, x, z, y, -x, w]
    return np.stack(rows, axis=-1).reshape(*b.shape[:-1], 4, 4)


def _softmax_backward(w: np.ndarray, d_w: np.ndarray) -> np.ndarray:
    inner = np.sum(w * d_w, axis=-1, keepdims=True)
    return w * (d_w - inner)


# --- objective -------------------------------------------------------------

def _splat_backward(d_qf, dx, dy, inv):
    """Gradients through qf = d^T inv d with d = p - mu2d, given d(loss)/d(qf)
    per (g, h, w) and offsets ``dx``, ``dy`` that broadcast to it: returns
    (d_inv (g, 2, 2), d_mu2d (g, 2)), with the 2x2 products written out."""
    a = d_qf * dx
    b = d_qf * dy
    d_inv = np.empty(inv.shape)
    d_inv[:, 0, 0] = np.sum(a * dx, axis=(1, 2))
    d_inv[:, 0, 1] = np.sum(a * dy, axis=(1, 2))
    d_inv[:, 1, 0] = np.sum(b * dx, axis=(1, 2))
    d_inv[:, 1, 1] = np.sum(b * dy, axis=(1, 2))
    # d(qf)/d(mu2d) = -2 inv d per pixel, summed: -2 (sum_hw d_qf d)^T inv
    sum_a = np.sum(a, axis=(1, 2))[:, None]
    sum_b = np.sum(b, axis=(1, 2))[:, None]
    d_mu2d = -2.0 * (sum_a * inv[:, 0, :] + sum_b * inv[:, 1, :])
    return d_inv, d_mu2d


def _suffix_sums(tail: np.ndarray) -> np.ndarray:
    """Row i is tail[i + 1] + ... + tail[-1], for every row of ``tail`` but
    the last, added from the back as the reversed cumsum adds them."""
    sums = np.empty_like(tail[1:])
    if len(sums):
        sums[-1] = tail[-1]
    for i in range(len(sums) - 2, -1, -1):
        np.add(sums[i + 1], tail[i + 1], out=sums[i])
    return sums


def _pixel_backward(params, z, frame, g_image, g_depth, background):
    """Per-frame stage of the gradient: from the upstream gradients on one
    frame's (3, h, w) image and (h, w) depth to its sorted splats' colours,
    opacities, centres, 2D covariances and depths.  ``z`` holds that
    frame's camera depth per Gaussian."""
    order, t_excl, weights = frame["order"], frame["t_excl"], frame["weights"]
    n, h, w = t_excl.shape
    # project the upstream gradient onto each splat's color and depth and
    # onto the background; since the suffix sum is linear, one scalar
    # suffix sum then covers everything behind each splat, background
    # included (t_final * bg also depends on every alpha)
    g_rgb = g_image.reshape(3, h * w)
    proj = (params["colors"][order] @ g_rgb).reshape(n, h, w) + z[order, None, None] * g_depth
    tail = np.empty((n + 1, h, w))
    np.multiply(weights, proj, out=tail[:-1])
    tail[-1] = frame["t_final"] * (background @ g_rgb).reshape(h, w)
    alphas, inv, behind = frame["alphas"], frame["inv"], _suffix_sums(tail)
    d_alpha = np.multiply(t_excl, proj, out=proj)
    d_alpha -= np.divide(behind, 1.0 - alphas, out=behind)
    weights_flat = weights.reshape(n, h * w)

    # alpha = o * exp(-0.5 qf) below the clip, constant where it binds
    d_alpha *= alphas < ALPHA_MAX
    d_alpha *= alphas  # now d(loss)/d(log o)
    d_opacities = np.sum(d_alpha, axis=(1, 2)) / params["opacities"][order]
    d_alpha *= -0.5    # now d(loss)/d(qf)
    # on full offset maps the products run faster than on broadcast ones
    d_inv, d_mu2d = _splat_backward(d_alpha, np.repeat(frame["dx"], h, axis=1),
                                    np.repeat(frame["dy"], w, axis=2), inv)
    return (weights_flat @ g_rgb.T, d_opacities, d_mu2d, -inv @ d_inv @ inv,
            weights_flat @ g_depth.reshape(-1))


def _chain_backward(params, ts, cameras, fwd, d_mu2d, d_cov2d, d_x_cam, grads):
    """Batched stage of the gradient: from the (F, G, ...) gradients on the
    projected centres, 2D covariances and camera-space points, back through
    projection, covariance, rotation and blend to the pose parameters, all
    frames at once; adds the sum over frames to ``grads``."""
    pp = fwd["pp"]
    rot = np.stack([c.rotation for c in cameras])
    k = np.stack([c.intrinsics for c in cameras])
    fx, fy = k[:, 0, 0, None], k[:, 1, 1, None]

    # projection backward (full domain; culled rows carry zero gradients)
    m = fwd["j"] @ rot[:, None]
    sym = d_cov2d + d_cov2d.swapaxes(-1, -2)
    d_m = np.einsum("fgij,fgjk,fgkl->fgil", sym, m, pp["cov"])
    d_sigma = np.einsum("fgji,fgjk,fgkl->fgil", m, d_cov2d, m)
    d_j = d_m @ rot.swapaxes(1, 2)[:, None]
    x, y = fwd["x_cam"][..., 0], fwd["x_cam"][..., 1]
    z = np.where(fwd["valid"], fwd["x_cam"][..., 2], 1.0)
    d_x_cam[..., 0] += d_j[..., 0, 2] * (-fx / z**2)
    d_x_cam[..., 1] += d_j[..., 1, 2] * (-fy / z**2)
    d_x_cam[..., 2] += (
        d_j[..., 0, 0] * (-fx / z**2)
        + d_j[..., 1, 1] * (-fy / z**2)
        + d_j[..., 0, 2] * (2 * fx * x / z**3)
        + d_j[..., 1, 2] * (2 * fy * y / z**3)
    )
    d_x_cam += np.einsum("fgij,fgi->fgj", fwd["j"], d_mu2d)
    d_mu_t = d_x_cam @ rot

    # covariance backward: cov = R diag(s^2) R^T
    r_t = pp["r_t"]
    sym_sigma = d_sigma + d_sigma.swapaxes(-1, -2)
    d_r_t = np.einsum("fgik,fgkj->fgij", sym_sigma, r_t * pp["s2"][:, None, :])
    d_s2 = np.einsum("fgkj,fgkl,fglj->gj", r_t, d_sigma, r_t)
    grads["scales"] += d_s2 * 2.0 * params["scales"]

    # rotation chain: R_t = rotmat(normalize(qblend * q0n))
    d_qtn = _rotmat_backward(pp["qtn"], d_r_t)
    d_qt_raw = _normalize_backward(pp["qt_raw"], d_qtn)
    mr = _quat_mul_right_matrix(pp["q0n"])
    ml = _quat_mul_left_matrix(pp["qblend"])
    d_qblend = np.einsum("gkj,fgk->fgj", mr, d_qt_raw)
    d_q0n = np.einsum("fgkj,fgk->gj", ml, d_qt_raw)
    grads["quats"] += _normalize_backward(params["quats"], d_q0n)

    # mean chain: mu_t = Rblend @ means + tblend
    d_rblend = np.einsum("fgi,gj->fgij", d_mu_t, params["means"])
    grads["means"] += np.einsum("fgi,fgij->gj", d_mu_t, pp["rblend"])
    d_tblend = d_mu_t
    d_qblend += _rotmat_backward(pp["qblend"], d_rblend)
    d_qbar = _normalize_backward(pp["qbar"], d_qblend)

    # blend chain, per frame: qbar = w @ aligned, tblend = w @ basis_trans[:, t]
    basis_trans = params["basis_trans"].swapaxes(0, 1)[ts]
    d_w = (np.einsum("fgk,fbk->gb", d_qbar, pp["aligned"])
           + np.einsum("fgk,fbk->gb", d_tblend, basis_trans))
    grads["basis_trans"][:, ts] += (pp["w"].T @ d_tblend).swapaxes(0, 1)
    d_bqn = (pp["w"].T @ d_qbar) * pp["sign"][..., None]
    grads["basis_quats"][:, ts] += _normalize_backward(params["basis_quats"][:, ts],
                                                       d_bqn.swapaxes(0, 1))
    grads["coeffs"] += _softmax_backward(pp["w"], d_w)


class _Objective:
    """The objective over the non-excluded frames, split in two: ``forward``
    rasterizes them all in one call and returns the loss and that call's
    outputs with the residuals; ``backward`` builds the gradient from those,
    so an accepted trial's forward pass is never run again.  The backward
    pass runs the per-pixel terms frame by frame (:func:`_pixel_backward`),
    filling (F, G, ...) gradients on the projected centres, 2D covariances
    and depths, then the per-Gaussian chain for all frames in one batch
    (:func:`_chain_backward`)."""

    def __init__(self, frames, depth_maps, tracks_2d, scene, exclude_frames=()):
        for t in exclude_frames:
            if t not in range(len(frames)):
                raise ValueError(f"exclude_frames index {t} is outside range({len(frames)})")
        self.fit_frames = [t for t in range(len(frames)) if t not in exclude_frames]
        if not self.fit_frames:
            raise ValueError("no frames left to fit after exclusions")
        # the observed frames channel-first, as the rasterizer composites them
        self.images = [np.ascontiguousarray(np.transpose(frames[t], (2, 0, 1)))
                       for t in self.fit_frames]
        self.depth_maps = [depth_maps[t] for t in self.fit_frames]
        self.cameras = [scene.cameras[t] for t in self.fit_frames]
        self.background = scene.background
        self.assignments = self.track_positions = None
        if tracks_2d is not None:
            self.assignments = track_assignments(scene, tracks_2d.query_pixels)
            positions = np.asarray(tracks_2d.positions, dtype=np.float64)
            self.track_positions = positions[:, self.fit_frames].swapaxes(0, 1)
        self.denom = float(len(self.fit_frames))
        # the pixel grids, built once per image size rather than per render
        grids = {size: pixel_grid(*size) for size in {(c.width, c.height) for c in self.cameras}}
        self.points = [grids[c.width, c.height] for c in self.cameras]

    def forward(self, params):
        """Loss at ``params``, and the rasterizer outputs with the
        residuals that :meth:`backward` reads."""
        for key in PARAM_KEYS:
            if not np.all(np.isfinite(params[key])):
                raise FitDivergenceError(f"parameter group {key!r} became non-finite")
        fwd = rasterize(params, self.cameras, self.fit_frames, self.background, self.points)
        resid_tr = None
        if self.assignments is not None:
            pred = predict_track_positions(fwd["mu2d"], self.assignments, fwd["valid"])
            resid_tr = pred - self.track_positions
        total = 0.0
        for f, frame in enumerate(fwd["frames"]):
            frame["resid_img"] = frame["image"] - self.images[f]
            frame["resid_dep"] = frame["depth"] - self.depth_maps[f]
            loss_t = IMAGE_WEIGHT * np.mean(np.abs(frame["resid_img"])) + DEPTH_WEIGHT * np.mean(
                np.abs(frame["resid_dep"])
            )
            if resid_tr is not None:
                loss_t += TRACK_WEIGHT * np.mean(np.abs(resid_tr[f]))
            total += loss_t / self.denom
        fwd["resid_tr"] = resid_tr
        if not np.isfinite(total):
            raise FitDivergenceError(f"objective became non-finite ({total})")
        return total, fwd

    def backward(self, params, fwd) -> dict:
        """Gradient of the loss at ``params`` from ``forward``'s outputs."""
        denom = self.denom
        grads = {k: np.zeros_like(params[k]) for k in PARAM_KEYS}
        shape = (len(self.fit_frames), params["means"].shape[0])
        d_mu2d, d_cov2d, d_x_cam = (np.zeros((*shape, *s)) for s in ((2,), (2, 2), (3,)))
        for f, frame in enumerate(fwd["frames"]):
            order = frame["order"]
            resid_img, resid_dep = frame["resid_img"], frame["resid_dep"]
            # sign * (w / n) is exactly w * sign / n for a sign of -1, 0 or 1
            g_image = np.sign(resid_img) * (IMAGE_WEIGHT / (resid_img.size * denom))
            g_depth = np.sign(resid_dep) * (DEPTH_WEIGHT / (resid_dep.size * denom))
            d_colors, d_opacities, d_mu2d[f, order], d_cov2d[f, order], d_x_cam[f, order, 2] = (
                _pixel_backward(params, fwd["x_cam"][f, :, 2], frame, g_image, g_depth,
                                self.background))
            grads["colors"][order] += d_colors
            grads["opacities"][order] += d_opacities
        resid_tr = fwd["resid_tr"]
        if resid_tr is not None:
            g_tr = TRACK_WEIGHT * np.sign(resid_tr) / (resid_tr[0].size * denom)
            d_mu2d += (self.assignments * fwd["valid"][:, None, :]).swapaxes(1, 2) @ g_tr
        _chain_backward(params, self.fit_frames, self.cameras, fwd, d_mu2d, d_cov2d, d_x_cam,
                        grads)
        return grads


def loss_and_grad(params, frames, depth_maps, tracks_2d, scene, *, want_grad=True):
    """Objective over all frames and (optionally) its gradient; the tracks
    are assigned to the Gaussians of ``scene``, which also gives the
    cameras and the background."""
    objective = _Objective(frames, depth_maps, tracks_2d, scene)
    total, fwd = objective.forward(params)
    return (total, objective.backward(params, fwd)) if want_grad else total


class _Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rates: np.ndarray):
        self.lr = learning_rates
        self.m = np.zeros_like(learning_rates)
        self.v = np.zeros_like(learning_rates)
        self.t = 0

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """Update moments and return the unscaled parameter step."""
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def fit_scene(frames, depth_maps, tracks_2d, initial_scene, iterations,
              exclude_frames=()) -> FitResult:
    """Fit a Gaussian scene to rendered observations.

    ``frames`` are (H, W, 3) arrays and ``depth_maps`` raw
    rasterizer depth maps, one per timestep of ``initial_scene``, whose
    cameras saw them; ``tracks_2d`` is an optional :class:`Tracks2D`, and
    the frames in ``exclude_frames`` are held out.  The recorded objective
    is non-increasing across accepted iterations; a non-finite objective
    raises :class:`FitDivergenceError`.
    """
    if len(frames) < 2:
        raise ValueError("need at least two frames to fit")
    if not len(frames) == len(depth_maps) == initial_scene.n_timesteps:
        raise ValueError("frames, depth maps and scene timesteps must align")
    groups = scene_params(initial_scene)
    sizes = [groups[k].size for k in PARAM_KEYS]
    lo, hi = np.repeat([BOUNDS[k] for k in PARAM_KEYS], sizes, axis=0).T
    adam = _Adam(np.repeat([LEARNING_RATES[k] for k in PARAM_KEYS], sizes))
    objective = _Objective(frames, depth_maps, tracks_2d, initial_scene, exclude_frames)
    x = _flatten(groups)
    loss, fwd = objective.forward(_views(x, groups))
    losses = [loss]
    scale = 1.0
    evaluations, gradients, backtracks, rejected_steps = 1, 0, 0, 0
    accepted = True  # the start counts as accepted: its gradient is built first
    for _ in range(iterations):
        if accepted:
            grad = _flatten(objective.backward(_views(x, groups), fwd))
            gradients += 1
            fwd = None
        step = adam.direction(grad)
        accepted = False
        trial_scale = scale
        for trial in range(MAX_BACKTRACKS):
            backtracks += trial > 0
            candidate = np.clip(x - trial_scale * step, lo, hi)
            cand_loss, fwd = objective.forward(_views(candidate, groups))
            evaluations += 1
            if cand_loss <= loss:
                x, loss = candidate, cand_loss
                scale = min(1.0, trial_scale * 1.25)
                accepted = True
                break
            fwd = None  # free the rejected trial before the next one
            trial_scale *= 0.5
        losses.append(loss)
        if not accepted:
            rejected_steps += 1
            scale = trial_scale
            if scale < 1e-9:
                break

    return FitResult(params_to_scene(_views(x, groups), initial_scene), losses, backtracks,
                     rejected_steps, evaluations, gradients)
