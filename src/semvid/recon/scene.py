"""Persistent 3D Gaussian scene model: anisotropic Gaussians in a canonical
frame, shared per-timestep rigid motion bases blended by per-Gaussian
coefficients, and pinhole cameras.  A :class:`GaussianScene` is one flat
array per attribute, each named as in :data:`PARAM_KEYS`, so the fitter's
parameter dicts use the scene's own field names; only the scene file
(:func:`save_scene` / :func:`load_scene`) spells them differently.

Conventions: quaternions are (w, x, y, z); cameras map world points via
x_cam = R @ x_world + t and look along +z, pixel x right / y down with
pixel centers at integer coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the scene's array fields, which are also the fitter's parameter names
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


def _require_finite(owner: str, arrays: dict) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{owner} {name} must be finite")


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
        arrays = {"intrinsics": k, "rotation": r, "translation": t}
        _require_finite("camera", arrays)
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        if abs(k[0, 1]) > 0 or np.any(np.abs(k[[1, 2, 2], [0, 0, 1]]) > 0) or k[2, 2] != 1:
            raise ValueError("intrinsics must be upper triangular with zero skew and K[2,2]=1")
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-6 or abs(np.linalg.det(r) - 1) > 1e-6:
            raise ValueError("camera rotation must be a proper rotation matrix")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be positive")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class GaussianScene:
    """Packed Gaussians, shared rigid motion bases (one rotation and
    translation per basis per timestep, blended per Gaussian by the softmax
    of its coefficients) and one camera per timestep.  The array fields are
    named as in :data:`PARAM_KEYS`."""

    means: np.ndarray        # (G, 3)
    quats: np.ndarray        # (G, 4) unit
    scales: np.ndarray       # (G, 3) positive
    opacities: np.ndarray    # (G,) in (0, 1)
    colors: np.ndarray       # (G, 3) in [0, 1]
    coeffs: np.ndarray       # (G, B) basis blend logits
    basis_quats: np.ndarray  # (B, T, 4) unit
    basis_trans: np.ndarray  # (B, T, 3)
    cameras: tuple
    background: np.ndarray = None  # (3,) in [0, 1]

    def __post_init__(self) -> None:
        bg = np.zeros(3) if self.background is None else self.background
        arrays = {k: np.ascontiguousarray(getattr(self, k), dtype=np.float64) for k in PARAM_KEYS}
        arrays["background"] = np.ascontiguousarray(bg, dtype=np.float64)
        _require_finite("scene", arrays)
        g = arrays["means"].shape[0]
        bq, bt = arrays["basis_quats"], arrays["basis_trans"]
        if bq.ndim != 3 or bq.shape[2] != 4 or bt.shape != (*bq.shape[:2], 3):
            raise ValueError("motion basis arrays have inconsistent shapes")
        if bq.shape[0] < 1:
            raise ValueError("need at least one motion basis")
        if arrays["quats"].shape != (g, 4) or arrays["scales"].shape != (g, 3):
            raise ValueError("scene arrays have inconsistent shapes")
        if arrays["opacities"].shape != (g,) or arrays["colors"].shape != (g, 3):
            raise ValueError("scene arrays have inconsistent shapes")
        if arrays["coeffs"].shape != (g, bq.shape[0]):
            raise ValueError("motion coefficients must have shape (G, n_bases)")
        if np.any(np.abs(np.linalg.norm(bq, axis=-1) - 1.0) > 1e-6):
            raise ValueError("basis quaternions must be unit norm within 1e-6")
        if np.any(np.abs(np.linalg.norm(arrays["quats"], axis=1) - 1) > 1e-9):
            raise ValueError("gaussian quaternions must be unit norm within 1e-9")
        if np.any(arrays["scales"] <= 0):
            raise ValueError("scales must be positive")
        if np.any(arrays["opacities"] <= 0) or np.any(arrays["opacities"] >= 1):
            raise ValueError("opacities must lie in (0, 1)")
        if np.any(arrays["colors"] < 0) or np.any(arrays["colors"] > 1):
            raise ValueError("scene colors must lie in [0, 1]")
        bg = arrays["background"]
        if bg.shape != (3,) or np.any(bg < 0) or np.any(bg > 1):
            raise ValueError("scene background must be an RGB triple in [0, 1]")
        cams = tuple(self.cameras)
        if len(cams) != bq.shape[1]:
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


def scene_params(scene: GaussianScene) -> dict:
    """The scene's arrays keyed by :data:`PARAM_KEYS`, without copying
    them."""
    return {k: getattr(scene, k) for k in PARAM_KEYS}


def pose_pipeline(params: dict, ts) -> dict:
    """Differentiable pose computation at the timesteps ``ts`` of the scene
    arrays in ``params`` (named as in :data:`PARAM_KEYS`), returning every
    intermediate the fitter's backward pass needs: the blend weights ``w``,
    ``q0n`` and ``s2`` do not depend on the timestep, every other array
    has one leading row per entry of ``ts``.  Each Gaussian's pose is
    mu_t = R_blend @ mu_0 + t_blend and R_t = R_blend @ R_0, where R_blend
    and t_blend blend the bases at t by the softmax of its coefficients and
    the blended rotation is re-orthonormalized.  Rendering, the fitter and
    track assignment all route through this one function, and a row
    does not depend on which other timesteps share the call, so fitting a
    scene against its own renders has exactly zero residual at the
    optimum."""
    ts = list(ts)
    w = softmax(params["coeffs"])                                         # (G, B)
    bqn = quat_normalize(params["basis_quats"].swapaxes(0, 1)[ts])        # (F, B, 4)
    sign = np.sign(np.einsum("fbk,fk->fb", bqn, bqn[:, 0]))
    sign[sign == 0] = 1.0
    aligned = bqn * sign[..., None]
    qbar = w @ aligned                                                    # (F, G, 4)
    qblend = quat_normalize(qbar)
    rblend = quat_to_rotmat(qblend)
    tblend = w @ params["basis_trans"].swapaxes(0, 1)[ts]                 # (F, G, 3)
    mu_t = np.einsum("fgij,gj->fgi", rblend, params["means"]) + tblend
    q0n = quat_normalize(params["quats"])
    qt_raw = quat_multiply(qblend, q0n)
    qtn = quat_normalize(qt_raw)
    r_t = quat_to_rotmat(qtn)
    s2 = params["scales"]**2
    cov = np.einsum("fgij,gj,fgkj->fgik", r_t, s2, r_t)
    return {
        "w": w, "sign": sign, "aligned": aligned, "qbar": qbar,
        "qblend": qblend, "rblend": rblend, "tblend": tblend, "mu_t": mu_t,
        "q0n": q0n, "qt_raw": qt_raw, "qtn": qtn, "r_t": r_t, "s2": s2,
        "cov": cov,
    }


def save_scene(scene: GaussianScene, path) -> None:
    """Structured-text scene file; see README for the schema."""
    payload = {
        "background": scene.background.tolist(),
        "gaussians": [
            {
                "mean": scene.means[i].tolist(),
                "quaternion": scene.quats[i].tolist(),
                "scales": scene.scales[i].tolist(),
                "opacity": float(scene.opacities[i]),
                "color": scene.colors[i].tolist(),
                "motion_coeffs": scene.coeffs[i].tolist(),
            }
            for i in range(scene.n_gaussians)
        ],
        "bases": {
            "quaternions": scene.basis_quats.tolist(),
            "translations": scene.basis_trans.tolist(),
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


# the JSON type each scene-file value must have, by its Python type
_JSON_TYPES = {list: "array", dict: "object", int: "integer", (int, float): "number"}


def load_scene(path) -> GaussianScene:
    """Read a scene file written by :func:`save_scene`.  A file that is not
    UTF-8 JSON, that lacks a key or holds one of the wrong JSON type or a
    ragged or non-numeric array, or whose scene fails a check of
    ``GaussianScene`` or ``Camera``, raises ``ValueError`` naming the file,
    and the key where there is one."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"scene file {path} is not UTF-8 JSON: {exc}") from exc

    def get(node, key, kind=list):
        if not isinstance(node, dict):
            raise ValueError(f"scene file {path} has a {type(node).__name__} where an "
                             f"object with key {key!r} belongs")
        if key not in node:
            raise ValueError(f"scene file {path} is missing key {key!r}")
        value = node[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"scene file {path} key {key!r} must be a JSON "
                             f"{_JSON_TYPES[kind]}, got {value!r}")
        return value

    def array(values, key):
        try:
            return np.array(values, dtype=np.float64)
        except (TypeError, ValueError) as exc:  # ragged, or not numbers
            raise ValueError(f"scene file {path} key {key!r} is not a numeric array: "
                             f"{exc}") from exc

    def field(node, key):
        return array(get(node, key), key)

    def column(nodes, key, kind=list):
        return array([get(node, key, kind) for node in nodes], key)

    cams = [(field(c, "intrinsics"), field(c, "rotation"), field(c, "translation"),
             get(c, "width", int), get(c, "height", int)) for c in get(payload, "cameras")]
    gs = get(payload, "gaussians")
    bases = get(payload, "bases", dict)
    arrays = {
        "means": column(gs, "mean"), "quats": column(gs, "quaternion"),
        "scales": column(gs, "scales"), "opacities": column(gs, "opacity", (int, float)),
        "colors": column(gs, "color"), "coeffs": column(gs, "motion_coeffs"),
        "basis_quats": field(bases, "quaternions"), "basis_trans": field(bases, "translations"),
        "background": field(payload, "background"),
    }
    try:
        return GaussianScene(**arrays, cameras=tuple(Camera(*c) for c in cams))
    except ValueError as exc:  # a check of a camera or of the scene
        raise ValueError(f"scene file {path} is not a valid scene: {exc}") from exc
