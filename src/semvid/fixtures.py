"""Deterministic synthetic content: test clips for the transmission chains,
foreground/background pairs for compositing, and Gaussian scenes (plus
observations rendered from them) for the reconstruction benchmarks.

Everything here is seeded and reproducible; clips are snapped to the 8-bit
grid so raw-file round trips are exact.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .recon.fit import Tracks2D, predict_track_positions, track_assignments
from .recon.render import project_points, render
from .recon.scene import Camera, GaussianScene, pose_pipeline, scene_params
from .video import VideoSequence

SCENE_FPS = 10.0  # playback rate of rendered scene videos


def _smooth_noise(shape, rng, passes: int) -> np.ndarray:
    x = rng.standard_normal(shape)
    for _ in range(passes):
        x = (np.roll(x, 1, 0) + np.roll(x, -1, 0) + np.roll(x, 1, 1) + np.roll(x, -1, 1) + 4 * x) / 8.0
    x -= x.mean()
    return x / (np.abs(x).max() + 1e-12)


def _snap(arr: np.ndarray) -> np.ndarray:
    return np.round(np.clip(arr, 0.0, 1.0) * 255.0) / 255.0


def make_test_clip(width: int = 128, height: int = 128, n_frames: int = 8,
                   fps: float = 8.0, seed: int = 2024) -> VideoSequence:
    """The reference clip for chain comparisons: wide dynamic range (deep
    shadows, bright sky), strong low-frequency structure, moderate texture,
    and a bright textured disk drifting across the scene."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    u, v = xs / width, ys / height
    tex = _smooth_noise((height, width), rng, passes=2)
    dither = _smooth_noise((height, width), rng, passes=0)
    disk_tex = _smooth_noise((height, width), rng, passes=1)
    frames = []
    for i in range(n_frames):
        phase = i / max(n_frames, 1)
        sky = np.clip(1.1 - 1.7 * v, 0.0, 1.0)
        base = 0.08 + 0.78 * sky + 0.1 * np.sin(2 * np.pi * (u + 0.06 * i))
        r = base + 0.06 * tex + 0.007 * dither
        g = 0.8 * base + 0.05 * tex + 0.006 * dither + 0.04
        b = 0.55 * base + 0.035 * tex + 0.005 * dither + 0.16
        frame = np.stack([r, g, b], axis=-1)
        # deep shadow band across the bottom
        shade = np.clip((v - 0.68) / 0.06, 0.0, 1.0)[:, :, None]
        frame = frame * (1.0 - 0.82 * shade)
        # bright warm disk moving left to right
        cx = width * (0.2 + 0.5 * phase)
        cy = height * 0.45 + 0.05 * height * np.sin(2 * np.pi * phase)
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        disk = d2 < (0.13 * width) ** 2
        frame[disk, 0] = 0.9 + 0.08 * disk_tex[disk]
        frame[disk, 1] = 0.55 + 0.1 * disk_tex[disk]
        frame[disk, 2] = 0.12 + 0.06 * disk_tex[disk]
        frames.append(frame)
    return VideoSequence(_snap(np.stack(frames)), fps)


def make_matting_set(width: int, height: int, n_frames: int, fps: float = 8.0, seed: int = 77):
    """Foreground clip, its clean plate, and ground-truth mattes: a textured
    disk "avatar" moving over a static textured plate.

    Returns (user_video, plate_frame, mattes)."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    u, v = xs / width, ys / height
    tex = _smooth_noise((height, width), rng, passes=2)
    plate = np.stack(
        [0.25 + 0.3 * v + 0.05 * tex, 0.3 + 0.25 * u + 0.05 * tex, 0.35 + 0.04 * tex],
        axis=-1,
    )
    plate = _snap(plate)
    fg_tex = _smooth_noise((height, width), rng, passes=1)
    frames = []
    mattes = []
    for i in range(n_frames):
        phase = i / max(n_frames, 1)
        cx = width * (0.3 + 0.4 * phase)
        cy = height * (0.55 - 0.1 * np.sin(2 * np.pi * phase))
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        disk = d2 < (0.2 * width) ** 2
        frame = plate.copy()
        frame[disk, 0] = 0.85 + 0.1 * fg_tex[disk]
        frame[disk, 1] = 0.75 + 0.08 * fg_tex[disk]
        frame[disk, 2] = 0.55 + 0.08 * fg_tex[disk]
        frames.append(_snap(frame))
        mattes.append(disk.astype(np.float64))
    return VideoSequence(frames, fps), plate, mattes


def make_background_clip(width: int, height: int, n_frames: int, fps: float,
                         seed: int) -> VideoSequence:
    """A distant-scene clip: drifting dunes under a bright sky."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    u, v = xs / width, ys / height
    tex = _smooth_noise((height, width), rng, passes=2)
    frames = []
    for i in range(n_frames):
        drift = 0.04 * i
        dunes = 0.5 + 0.35 * np.sin(2 * np.pi * (u * 1.5 + drift) + 4 * v)
        sky = np.clip(1.3 - 2.2 * v, 0.0, 1.0)
        r = 0.2 + 0.45 * dunes * (1 - sky) + 0.45 * sky + 0.05 * tex
        g = 0.15 + 0.35 * dunes * (1 - sky) + 0.5 * sky + 0.04 * tex
        b = 0.1 + 0.2 * dunes * (1 - sky) + 0.6 * sky + 0.03 * tex
        frames.append(np.stack([r, g, b], axis=-1))
    return VideoSequence(_snap(np.stack(frames)), fps)


def default_camera(width: int = 64, height: int = 64, focal: float = 80.0) -> Camera:
    k = np.array(
        [[focal, 0.0, (width - 1) / 2.0], [0.0, focal, (height - 1) / 2.0], [0.0, 0.0, 1.0]]
    )
    return Camera(k, np.eye(3), np.zeros(3), width, height)


def make_benchmark_scene(n_timesteps: int = 10, image_size: int = 64,
                         n_bases: int = 2) -> GaussianScene:
    """Five Gaussians in front of a static camera, moving as two rigid
    groups by pure translation; the reconstruction benchmarks are built by
    rendering this scene."""
    steps = np.arange(n_timesteps, dtype=np.float64)
    basis_quats = np.zeros((n_bases, n_timesteps, 4))
    basis_quats[..., 0] = 1.0
    basis_trans = np.zeros((n_bases, n_timesteps, 3))
    basis_trans[0, :, 0] = 0.035 * steps
    basis_trans[0, :, 1] = 0.018 * steps
    basis_trans[0, :, 2] = 0.010 * steps
    if n_bases > 1:
        basis_trans[1, :, 0] = -0.022 * steps
        basis_trans[1, :, 1] = 0.028 * steps
        basis_trans[1, :, 2] = -0.008 * steps
    cameras = tuple(default_camera(image_size, image_size) for _ in range(n_timesteps))

    means = np.array(
        [
            [-0.55, -0.35, 2.4],
            [0.45, -0.25, 2.8],
            [0.05, 0.3, 2.2],
            [-0.35, 0.45, 3.0],
            [0.55, 0.5, 2.6],
        ]
    )
    sq2 = np.sqrt(2.0) / 2.0
    quats = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [sq2, sq2, 0.0, 0.0],
            [sq2, 0.0, sq2, 0.0],
            [sq2, 0.0, 0.0, sq2],
            [0.5, 0.5, 0.5, 0.5],
        ]
    )
    scales = np.array(
        [
            [0.16, 0.09, 0.07],
            [0.11, 0.17, 0.08],
            [0.09, 0.12, 0.15],
            [0.14, 0.08, 0.12],
            [0.1, 0.14, 0.09],
        ]
    )
    opacities = np.array([0.88, 0.8, 0.85, 0.78, 0.83])
    colors = np.array(
        [
            [0.85, 0.25, 0.2],
            [0.2, 0.7, 0.85],
            [0.9, 0.8, 0.25],
            [0.3, 0.8, 0.35],
            [0.75, 0.35, 0.8],
        ]
    )
    group = np.array([0, 0, 0, 1, 1])
    coeffs = np.where(group[:, None] == np.arange(n_bases)[None, :], 4.0, -4.0)
    return GaussianScene(
        means=means,
        quats=quats,
        scales=scales,
        opacities=opacities,
        colors=colors,
        coeffs=coeffs,
        basis_quats=basis_quats,
        basis_trans=basis_trans,
        cameras=cameras,
        background=np.array([0.05, 0.06, 0.09]),
    )


def make_fit_inputs(scene: GaussianScene, n_tracks: int = 4):
    """Observations for fitting, all generated by the scene itself:
    rendered frames, raw depth maps, and 2D tracks of the Gaussian centers
    visible at frame 0.

    Returns (frames, depth_maps, tracks); the scene holds the cameras."""
    results = [render(scene, t) for t in range(scene.n_timesteps)]
    pp = pose_pipeline(scene_params(scene), range(scene.n_timesteps))
    valid, _, mu2d, _, _ = project_points(pp["mu_t"], pp["cov"], scene.cameras)
    order = np.argsort(-scene.opacities)
    query = []
    for g in order:
        if valid[0, g] and len(query) < n_tracks:
            query.append(np.round(mu2d[0, g]))
    query = np.array(query)
    positions = predict_track_positions(mu2d, track_assignments(scene, query), valid)
    tracks = Tracks2D(query_pixels=query, positions=positions.swapaxes(0, 1))
    return [r.image for r in results], [r.depth for r in results], tracks


def perturb_scene(scene: GaussianScene, seed: int = 5, mean_sigma: float = 0.05,
                  color_sigma: float = 0.05) -> GaussianScene:
    """Jitter a scene for fit-from-perturbed-initialization benchmarks.

    Lateral position noise is larger than depth noise, mirroring how these
    scenes are initialized in practice (means back-projected from depth
    maps are accurate along the ray)."""
    rng = np.random.default_rng(seed)
    sigma = np.array([mean_sigma, mean_sigma, 0.015])  # depth noise
    means = scene.means + sigma * rng.standard_normal(scene.means.shape)
    colors = np.clip(
        scene.colors + color_sigma * rng.standard_normal(scene.colors.shape), 0.02, 0.98
    )
    scales = scene.scales * np.exp(0.08 * rng.standard_normal(scene.scales.shape))
    opacities = np.clip(
        scene.opacities + 0.04 * rng.standard_normal(scene.opacities.shape), 0.2, 0.95
    )
    quats = scene.quats + 0.02 * rng.standard_normal(scene.quats.shape)
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    coeffs = scene.coeffs + 0.2 * rng.standard_normal(scene.coeffs.shape)
    return replace(scene, means=means, quats=quats, scales=scales, opacities=opacities,
                   colors=colors, coeffs=coeffs)
