"""Gaussian scenes and parameter dicts that only the tests use."""

import numpy as np

from semvid.fixtures import default_camera
from semvid.recon.scene import GaussianScene, scene_params


def make_gradient_check_scene() -> GaussianScene:
    """Two Gaussians with rotating, translating bases over three 32 px
    frames; exercises every parameter chain in the fitter's backward pass."""
    n_timesteps = 3
    steps = np.arange(n_timesteps, dtype=np.float64)
    angles = 0.12 * steps
    basis_quats = np.zeros((2, n_timesteps, 4))
    basis_quats[0, :, 0] = np.cos(angles / 2)
    basis_quats[0, :, 3] = np.sin(angles / 2)
    basis_quats[1, :, 0] = np.cos(angles / 3)
    basis_quats[1, :, 1] = np.sin(angles / 3)
    basis_trans = np.zeros((2, n_timesteps, 3))
    basis_trans[0, :, 0] = 0.05 * steps
    basis_trans[1, :, 1] = -0.04 * steps
    cameras = tuple(default_camera(32, 32, focal=40.0) for _ in range(n_timesteps))
    return GaussianScene(
        means=np.array([[-0.25, -0.1, 2.1], [0.3, 0.2, 2.6]]),
        quats=np.array([[0.9689124217106447, 0.2474039592545229, 0.0, 0.0],
                        [0.8775825618903728, 0.0, 0.479425538604203, 0.0]]),
        scales=np.array([[0.2, 0.1, 0.08], [0.12, 0.2, 0.1]]),
        opacities=np.array([0.75, 0.68]),
        colors=np.array([[0.8, 0.3, 0.25], [0.25, 0.55, 0.8]]),
        coeffs=np.array([[1.2, -0.6], [-0.8, 1.0]]),
        basis_quats=basis_quats,
        basis_trans=basis_trans,
        cameras=cameras,
        background=np.array([0.08, 0.08, 0.1]),
    )


def mutable_params(scene: GaussianScene) -> dict:
    """The scene's arrays keyed by ``PARAM_KEYS``, each a writable copy."""
    return {k: v.copy() for k, v in scene_params(scene).items()}
