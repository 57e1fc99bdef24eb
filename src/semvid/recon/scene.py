"""Persistent 3D Gaussian scene model: anisotropic Gaussians in a canonical
frame, shared per-timestep rigid motion bases blended by per-Gaussian
coefficients, and pinhole cameras.

Conventions: quaternions are (w, x, y, z); cameras map world points via
x_cam = R @ x_world + t and look along +z, pixel x right / y down with
pixel centers at integer coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# names of the scene arrays in a parameter dict (see scene_params)
PARAM_KEYS = (
    "means", "quats", "scales", "opacities", "colors",
    "coeffs", "basis_quats", "basis_trans",
)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm < 1e-12):
        raise ValueError("cannot normalize a zero quaternion")
    return q / norm


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Rotation matrices from unit quaternions; supports leading batch
    dimensions."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rows = [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]
    return np.stack(rows, axis=-1).reshape(*q.shape[:-1], 3, 3)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass(frozen=True)
class Camera:
    """Pinhole camera with zero skew."""

    intrinsics: np.ndarray   # (3, 3) upper triangular
    rotation: np.ndarray     # (3, 3) world-to-camera
    translation: np.ndarray  # (3,)
    width: int
    height: int

    def __post_init__(self) -> None:
        k = np.ascontiguousarray(self.intrinsics, dtype=np.float64)
        r = np.ascontiguousarray(self.rotation, dtype=np.float64)
        t = np.ascontiguousarray(self.translation, dtype=np.float64)
        if k.shape != (3, 3) or r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("camera arrays have wrong shapes")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        if abs(k[0, 1]) > 0 or np.any(np.abs(k[[1, 2, 2], [0, 0, 1]]) > 0) or k[2, 2] != 1:
            raise ValueError("intrinsics must be upper triangular with zero skew and K[2,2]=1")
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-6 or abs(np.linalg.det(r) - 1) > 1e-6:
            raise ValueError("camera rotation must be a proper rotation matrix")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be positive")
        for name, arr in (("intrinsics", k), ("rotation", r), ("translation", t)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def fx(self) -> float:
        return float(self.intrinsics[0, 0])

    @property
    def fy(self) -> float:
        return float(self.intrinsics[1, 1])

    @property
    def cx(self) -> float:
        return float(self.intrinsics[0, 2])

    @property
    def cy(self) -> float:
        return float(self.intrinsics[1, 2])

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation

    def to_world(self, points_cam: np.ndarray) -> np.ndarray:
        return (points_cam - self.translation) @ self.rotation


@dataclass(frozen=True)
class MotionBasisSet:
    """Shared rigid motion bases: one rotation/translation per basis per
    timestep.  Rotations are stored as unit quaternions."""

    quaternions: np.ndarray   # (B, T, 4)
    translations: np.ndarray  # (B, T, 3)

    def __post_init__(self) -> None:
        q = np.ascontiguousarray(self.quaternions, dtype=np.float64)
        tr = np.ascontiguousarray(self.translations, dtype=np.float64)
        if q.ndim != 3 or q.shape[2] != 4 or tr.shape != (*q.shape[:2], 3):
            raise ValueError("motion basis arrays have inconsistent shapes")
        if q.shape[0] < 1:
            raise ValueError("need at least one motion basis")
        norms = np.linalg.norm(q, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("basis quaternions must be unit norm within 1e-6")
        q.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "quaternions", q)
        object.__setattr__(self, "translations", tr)

    @property
    def n_bases(self) -> int:
        return self.quaternions.shape[0]

    @property
    def n_timesteps(self) -> int:
        return self.quaternions.shape[1]

    @classmethod
    def identity(cls, n_bases: int, n_timesteps: int) -> "MotionBasisSet":
        q = np.zeros((n_bases, n_timesteps, 4))
        q[..., 0] = 1.0
        return cls(q, np.zeros((n_bases, n_timesteps, 3)))


@dataclass(frozen=True)
class Gaussian3D:
    """A single Gaussian: canonical pose, extent, appearance and motion
    coefficients (softmax-normalized when blending)."""

    mean: np.ndarray
    quaternion: np.ndarray
    scales: np.ndarray
    opacity: float
    color: np.ndarray
    motion_coeffs: np.ndarray

    def __post_init__(self) -> None:
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        quat = np.ascontiguousarray(self.quaternion, dtype=np.float64)
        scales = np.ascontiguousarray(self.scales, dtype=np.float64)
        color = np.ascontiguousarray(self.color, dtype=np.float64)
        coeffs = np.ascontiguousarray(self.motion_coeffs, dtype=np.float64)
        if mean.shape != (3,) or quat.shape != (4,) or scales.shape != (3,) or color.shape != (3,):
            raise ValueError("gaussian arrays have wrong shapes")
        if abs(np.linalg.norm(quat) - 1.0) > 1e-9:
            raise ValueError("quaternion must be unit norm within 1e-9")
        if np.any(scales <= 0):
            raise ValueError("scales must be positive")
        if not 0.0 < self.opacity < 1.0:
            raise ValueError("opacity must lie in (0, 1)")
        if color.min() < 0.0 or color.max() > 1.0:
            raise ValueError("color must lie in [0, 1]")
        for name, arr in (
            ("mean", mean), ("quaternion", quat), ("scales", scales),
            ("color", color), ("motion_coeffs", coeffs),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def covariance(self) -> np.ndarray:
        r = quat_to_rotmat(self.quaternion)
        return r @ np.diag(self.scales**2) @ r.T


@dataclass(frozen=True)
class GaussianScene:
    """Packed Gaussians plus motion bases and per-timestep cameras."""

    means: np.ndarray          # (G, 3)
    quaternions: np.ndarray    # (G, 4) unit
    scales: np.ndarray         # (G, 3) positive
    opacities: np.ndarray      # (G,) in (0, 1)
    colors: np.ndarray         # (G, 3) in [0, 1]
    motion_coeffs: np.ndarray  # (G, B)
    bases: MotionBasisSet
    cameras: tuple
    background: np.ndarray = None

    def __post_init__(self) -> None:
        bg = np.zeros(3) if self.background is None else np.asarray(self.background, float)
        arrays = {
            "means": np.ascontiguousarray(self.means, dtype=np.float64),
            "quaternions": np.ascontiguousarray(self.quaternions, dtype=np.float64),
            "scales": np.ascontiguousarray(self.scales, dtype=np.float64),
            "opacities": np.ascontiguousarray(self.opacities, dtype=np.float64),
            "colors": np.ascontiguousarray(self.colors, dtype=np.float64),
            "motion_coeffs": np.ascontiguousarray(self.motion_coeffs, dtype=np.float64),
            "background": np.ascontiguousarray(bg),
        }
        g = arrays["means"].shape[0]
        b = self.bases.n_bases
        if arrays["quaternions"].shape != (g, 4) or arrays["scales"].shape != (g, 3):
            raise ValueError("scene arrays have inconsistent shapes")
        if arrays["opacities"].shape != (g,) or arrays["colors"].shape != (g, 3):
            raise ValueError("scene arrays have inconsistent shapes")
        if arrays["motion_coeffs"].shape != (g, b):
            raise ValueError("motion coefficients must have shape (G, n_bases)")
        if np.any(np.abs(np.linalg.norm(arrays["quaternions"], axis=1) - 1) > 1e-9):
            raise ValueError("gaussian quaternions must be unit norm within 1e-9")
        if np.any(arrays["scales"] <= 0):
            raise ValueError("scales must be positive")
        if np.any(arrays["opacities"] <= 0) or np.any(arrays["opacities"] >= 1):
            raise ValueError("opacities must lie in (0, 1)")
        cams = tuple(self.cameras)
        if len(cams) != self.bases.n_timesteps:
            raise ValueError("need one camera per basis timestep")
        if not cams:
            raise ValueError("scene needs at least one timestep")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "cameras", cams)

    @property
    def n_gaussians(self) -> int:
        return self.means.shape[0]

    @property
    def n_timesteps(self) -> int:
        return len(self.cameras)

    @property
    def gaussians(self) -> tuple:
        return tuple(
            Gaussian3D(
                self.means[i], self.quaternions[i], self.scales[i],
                float(self.opacities[i]), self.colors[i], self.motion_coeffs[i],
            )
            for i in range(self.n_gaussians)
        )

    @classmethod
    def from_gaussians(cls, gaussians, bases, cameras, background=None) -> "GaussianScene":
        gs = list(gaussians)
        return cls(
            means=np.stack([g.mean for g in gs]),
            quaternions=np.stack([g.quaternion for g in gs]),
            scales=np.stack([g.scales for g in gs]),
            opacities=np.array([g.opacity for g in gs]),
            colors=np.stack([g.color for g in gs]),
            motion_coeffs=np.stack([g.motion_coeffs for g in gs]),
            bases=bases,
            cameras=tuple(cameras),
            background=background,
        )


def pose_at_time(gaussian: Gaussian3D, bases: MotionBasisSet, t: int):
    """Pose of one Gaussian at timestep t: mu_t = R_blend @ mu_0 + t_blend
    and R_t = R_blend @ R_0, with the blended rotation re-orthonormalized."""
    if not 0 <= t < bases.n_timesteps:
        raise ValueError(f"timestep {t} out of range [0, {bases.n_timesteps})")
    pp = pose_pipeline(
        {
            "means": gaussian.mean[None], "quats": gaussian.quaternion[None],
            "scales": gaussian.scales[None], "coeffs": gaussian.motion_coeffs[None],
            "basis_quats": bases.quaternions, "basis_trans": bases.translations,
        },
        t,
    )
    return pp["mu_t"][0], pp["r_t"][0]


def scene_params(scene: GaussianScene) -> dict:
    """The scene's arrays under the fitter's :data:`PARAM_KEYS` names,
    without copying them."""
    return {
        "means": scene.means,
        "quats": scene.quaternions,
        "scales": scene.scales,
        "opacities": scene.opacities,
        "colors": scene.colors,
        "coeffs": scene.motion_coeffs,
        "basis_quats": scene.bases.quaternions,
        "basis_trans": scene.bases.translations,
    }


def pose_pipeline(params: dict, t: int) -> dict:
    """Differentiable pose computation for timestep t of the scene arrays in
    ``params`` (named as in :data:`PARAM_KEYS`), returning every
    intermediate the fitter's backward pass needs.  Rendering, the fitter
    and track correspondence all route through this one function, so
    fitting a scene against its own renders has exactly zero residual at
    the optimum."""
    w = softmax(params["coeffs"], axis=1)                      # (G, B)
    bqn = quat_normalize(params["basis_quats"][:, t])          # (B, 4)
    sign = np.sign(bqn @ bqn[0])
    sign[sign == 0] = 1.0
    aligned = bqn * sign[:, None]
    qbar = w @ aligned                                         # (G, 4)
    qblend = quat_normalize(qbar)
    rblend = quat_to_rotmat(qblend)
    tblend = w @ params["basis_trans"][:, t]
    mu_t = np.einsum("gij,gj->gi", rblend, params["means"]) + tblend
    q0n = quat_normalize(params["quats"])
    qt_raw = quat_multiply(qblend, q0n)
    qtn = quat_normalize(qt_raw)
    r_t = quat_to_rotmat(qtn)
    s2 = params["scales"]**2
    cov = np.einsum("gij,gj,gkj->gik", r_t, s2, r_t)
    return {
        "w": w, "bqn": bqn, "sign": sign, "aligned": aligned, "qbar": qbar,
        "qblend": qblend, "rblend": rblend, "tblend": tblend, "mu_t": mu_t,
        "q0n": q0n, "qt_raw": qt_raw, "qtn": qtn, "r_t": r_t, "s2": s2,
        "cov": cov,
    }


def scene_poses(scene: GaussianScene, t: int):
    """Vectorized poses for every Gaussian: (mu_t (G,3), R_t (G,3,3),
    covariance (G,3,3)); depth ordering happens in the renderer."""
    if not 0 <= t < scene.bases.n_timesteps:
        raise ValueError(f"timestep {t} out of range [0, {scene.bases.n_timesteps})")
    pp = pose_pipeline(scene_params(scene), t)
    return pp["mu_t"], pp["r_t"], pp["cov"]


def project(mu: np.ndarray, sigma: np.ndarray, camera: Camera):
    """Project a 3D mean and covariance into pixel space.

    Returns (mu2d, sigma2d) where sigma2d = M Sigma M^T with M the Jacobian
    of the full world-to-pixel map.  Raises for non-positive depth (the
    caller treats that as culled)."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    x_cam = camera.to_camera(mu[None, :])[0]
    z = x_cam[2]
    if z <= 0:
        raise ValueError("point has non-positive camera depth (culled)")
    fx, fy = camera.fx, camera.fy
    mu2d = np.array([fx * x_cam[0] / z + camera.cx, fy * x_cam[1] / z + camera.cy])
    j = np.array(
        [
            [fx / z, 0.0, -fx * x_cam[0] / z**2],
            [0.0, fy / z, -fy * x_cam[1] / z**2],
        ]
    )
    m = j @ camera.rotation
    return mu2d, m @ sigma @ m.T


def save_scene(scene: GaussianScene, path) -> None:
    """Structured-text scene file; see README for the schema."""
    payload = {
        "background": scene.background.tolist(),
        "gaussians": [
            {
                "mean": scene.means[i].tolist(),
                "quaternion": scene.quaternions[i].tolist(),
                "scales": scene.scales[i].tolist(),
                "opacity": float(scene.opacities[i]),
                "color": scene.colors[i].tolist(),
                "motion_coeffs": scene.motion_coeffs[i].tolist(),
            }
            for i in range(scene.n_gaussians)
        ],
        "bases": {
            "quaternions": scene.bases.quaternions.tolist(),
            "translations": scene.bases.translations.tolist(),
        },
        "cameras": [
            {
                "intrinsics": cam.intrinsics.tolist(),
                "rotation": cam.rotation.tolist(),
                "translation": cam.translation.tolist(),
                "width": cam.width,
                "height": cam.height,
            }
            for cam in scene.cameras
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_scene(path) -> GaussianScene:
    payload = json.loads(Path(path).read_text())
    bases = MotionBasisSet(
        np.array(payload["bases"]["quaternions"]),
        np.array(payload["bases"]["translations"]),
    )
    cams = tuple(
        Camera(
            np.array(c["intrinsics"]), np.array(c["rotation"]),
            np.array(c["translation"]), int(c["width"]), int(c["height"]),
        )
        for c in payload["cameras"]
    )
    gs = payload["gaussians"]
    return GaussianScene(
        means=np.array([g["mean"] for g in gs]),
        quaternions=np.array([g["quaternion"] for g in gs]),
        scales=np.array([g["scales"] for g in gs]),
        opacities=np.array([g["opacity"] for g in gs]),
        colors=np.array([g["color"] for g in gs]),
        motion_coeffs=np.array([g["motion_coeffs"] for g in gs]),
        bases=bases,
        cameras=cams,
        background=np.array(payload["background"]),
    )
