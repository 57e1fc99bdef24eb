from dataclasses import replace

import numpy as np
import pytest

from semvid.fixtures import (
    default_camera,
    make_benchmark_scene,
    make_fit_inputs,
    make_gradient_check_scene,
    perturb_scene,
)
from semvid.recon.fit import (
    PARAM_KEYS,
    FitConfig,
    FitDivergenceError,
    fit_scene,
    loss_and_grad,
    scene_to_params,
    track_assignments,
)
from semvid.recon.render import render, track_correspondence
from semvid.recon.scene import (
    Camera,
    Gaussian3D,
    GaussianScene,
    MotionBasisSet,
    load_scene,
    pose_at_time,
    project,
    quat_multiply,
    quat_normalize,
    quat_to_rotmat,
    save_scene,
    scene_poses,
)


def _single_gaussian_scene(mean=(0.2, -0.1, 2.5), opacity=0.9, color=(1.0, 1.0, 1.0),
                           n_timesteps=1, bases=None):
    g = Gaussian3D(
        np.array(mean), np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.1, 0.1, 0.1]),
        opacity, np.array(color), np.zeros(bases.n_bases if bases else 1),
    )
    bases = bases or MotionBasisSet.identity(1, n_timesteps)
    cams = [default_camera() for _ in range(bases.n_timesteps)]
    return GaussianScene.from_gaussians([g], bases, cams, background=np.zeros(3))


class TestPose:
    def test_identity_bases(self):
        scene = _single_gaussian_scene()
        g = scene.gaussians[0]
        mu, rot = pose_at_time(g, scene.bases, 0)
        assert np.allclose(mu, g.mean)
        assert np.allclose(rot, quat_to_rotmat(g.quaternion))

    def test_single_translation_basis(self):
        quats = np.array([[[1.0, 0, 0, 0]]])
        trans = np.array([[[0.3, -0.2, 0.1]]])
        bases = MotionBasisSet(quats, trans)
        scene = _single_gaussian_scene(bases=bases)
        g = scene.gaussians[0]
        mu, rot = pose_at_time(g, bases, 0)
        assert np.allclose(mu, g.mean + trans[0, 0])
        assert np.allclose(rot, quat_to_rotmat(g.quaternion))

    def test_two_translation_bases_blend(self):
        quats = np.zeros((2, 1, 4))
        quats[..., 0] = 1.0
        trans = np.zeros((2, 1, 3))
        trans[0, 0] = [0.4, 0.0, 0.0]
        trans[1, 0] = [0.0, 0.2, 0.0]
        bases = MotionBasisSet(quats, trans)
        g = Gaussian3D(np.zeros(3), np.array([1.0, 0, 0, 0]), np.full(3, 0.1), 0.5,
                       np.full(3, 0.5), np.zeros(2))  # equal coefficients
        mu, _ = pose_at_time(g, bases, 0)
        assert np.allclose(mu, [0.2, 0.1, 0.0])

    def test_rotation_stays_orthonormal(self):
        scene = make_gradient_check_scene()
        for t in range(scene.n_timesteps):
            _, rot, _ = scene_poses(scene, t)
            for r in rot:
                assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-6

    def test_out_of_range_timestep(self):
        scene = _single_gaussian_scene()
        with pytest.raises(ValueError):
            pose_at_time(scene.gaussians[0], scene.bases, 5)


class TestProject:
    def test_optical_axis_maps_to_principal_point(self):
        cam = default_camera(64, 64, focal=80.0)
        mu2d, _ = project(np.array([0.0, 0.0, 3.0]), 0.01 * np.eye(3), cam)
        assert np.allclose(mu2d, [cam.cx, cam.cy])

    def test_isotropic_covariance(self):
        cam = default_camera(64, 64, focal=80.0)
        _, cov2d = project(np.array([0.0, 0.0, 2.0]), 0.01 * np.eye(3), cam)
        expected = (80.0 * 0.1 / 2.0) ** 2
        assert np.allclose(cov2d, expected * np.eye(2))

    def test_doubling_depth_halves_extent(self):
        cam = default_camera()
        _, near = project(np.array([0.0, 0.0, 1.5]), 0.01 * np.eye(3), cam)
        _, far = project(np.array([0.0, 0.0, 3.0]), 0.01 * np.eye(3), cam)
        assert np.allclose(far, near / 4.0)

    def test_behind_camera_rejected(self):
        cam = default_camera()
        with pytest.raises(ValueError):
            project(np.array([0.0, 0.0, -1.0]), np.eye(3), cam)


class TestRender:
    def test_empty_scene_is_background(self):
        scene = GaussianScene(
            means=np.zeros((0, 3)), quaternions=np.zeros((0, 4)),
            scales=np.zeros((0, 3)), opacities=np.zeros(0), colors=np.zeros((0, 3)),
            motion_coeffs=np.zeros((0, 1)), bases=MotionBasisSet.identity(1, 1),
            cameras=(default_camera(),), background=np.array([0.2, 0.4, 0.6]),
        )
        res = render(scene, 0)
        assert np.allclose(res.image.data, [0.2, 0.4, 0.6])
        assert not res.depth.any()  # sentinel for no surface
        assert not res.alpha.any()

    def test_gaussian_behind_camera_is_background(self):
        scene = replace(_single_gaussian_scene(mean=(0.0, 0.0, -2.5)),
                        background=np.array([0.2, 0.4, 0.6]))
        res = render(scene, 0)
        assert np.array_equal(res.image.data, np.broadcast_to([0.2, 0.4, 0.6], (64, 64, 3)))
        assert not res.depth.any()
        assert not res.alpha.any()

    def test_single_gaussian_argmax_matches_projection(self):
        scene = _single_gaussian_scene()
        g = scene.gaussians[0]
        res = render(scene, 0)
        bright = res.image.data.sum(axis=2)
        peak_y, peak_x = np.unravel_index(np.argmax(bright), bright.shape)
        mu2d, _ = project(g.mean, g.covariance(), scene.cameras[0])
        assert abs(peak_x - mu2d[0]) <= 1.0
        assert abs(peak_y - mu2d[1]) <= 1.0

    def test_occlusion_limit(self):
        front = Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                           np.full(3, 0.3), 0.9999, np.array([1.0, 0.0, 0.0]), np.zeros(1))
        back = Gaussian3D(np.array([0.0, 0.0, 3.0]), np.array([1.0, 0, 0, 0]),
                          np.full(3, 0.3), 0.9, np.array([0.0, 1.0, 0.0]), np.zeros(1))
        scene = GaussianScene.from_gaussians(
            [back, front], MotionBasisSet.identity(1, 1), [default_camera()],
            background=np.zeros(3),
        )
        res = render(scene, 0)
        center = res.image.data[32, 32]
        assert center[0] > 0.99
        assert center[1] < 0.01

    def test_color_conservation(self):
        scene = _single_gaussian_scene(color=(0.3, 0.6, 0.9))
        res = render(scene, 0)
        for c, value in enumerate((0.3, 0.6, 0.9)):
            assert res.image.data[..., c].max() <= max(value, 0.0) + 1e-12

    def test_transmittance_in_unit_interval(self):
        scene = make_benchmark_scene()
        res = render(scene, 3)
        assert res.alpha.min() >= 0.0
        assert res.alpha.max() <= 1.0

    def test_rigid_equivalence(self):
        # moving the scene by T and the camera by T^-1 leaves renders fixed
        scene = make_benchmark_scene()
        angle = 0.3
        axis = np.array([0.3, -0.5, 0.8])
        axis /= np.linalg.norm(axis)
        qw = np.array([np.cos(angle / 2), *(np.sin(angle / 2) * axis)])
        rw = quat_to_rotmat(qw)
        tw = np.array([0.2, -0.1, 0.15])
        qw_conj = np.array([qw[0], -qw[1], -qw[2], -qw[3]])

        g = scene.n_gaussians
        b, t_steps = scene.bases.n_bases, scene.bases.n_timesteps
        means2 = scene.means @ rw.T + tw
        quats2 = quat_normalize(quat_multiply(np.tile(qw, (g, 1)), scene.quaternions))
        bq = scene.bases.quaternions
        bq2 = quat_normalize(
            quat_multiply(np.broadcast_to(qw, bq.shape), quat_multiply(bq, np.broadcast_to(qw_conj, bq.shape)))
        )
        rb = quat_to_rotmat(bq)
        bt2 = scene.bases.translations @ rw.T + tw - np.einsum(
            "ij,btjk,k->bti", rw, np.einsum("btij,kj->btik", rb, rw), tw
        )
        cams2 = tuple(
            Camera(c.intrinsics, c.rotation @ rw.T,
                   c.translation - (c.rotation @ rw.T) @ tw, c.width, c.height)
            for c in scene.cameras
        )
        moved = GaussianScene(
            means=means2, quaternions=quats2, scales=scene.scales,
            opacities=scene.opacities, colors=scene.colors,
            motion_coeffs=scene.motion_coeffs,
            bases=MotionBasisSet(bq2, bt2), cameras=cams2,
            background=scene.background,
        )
        for t in (0, scene.n_timesteps - 1):
            a = render(scene, t).image.data
            c = render(moved, t).image.data
            assert np.max(np.abs(a - c)) < 1e-6


class TestTrackCorrespondence:
    def test_static_scene_is_identity(self):
        scene = _single_gaussian_scene(n_timesteps=2)
        mu2d, _ = project(scene.means[0], scene.gaussians[0].covariance(), scene.cameras[0])
        pixel = np.round(mu2d)
        u, d = track_correspondence(scene, pixel, 0, 1)
        assert np.allclose(u, pixel, atol=1e-9)
        assert d == pytest.approx(scene.means[0][2], abs=1e-6)

    def test_same_timestep_identity(self):
        scene = _single_gaussian_scene(n_timesteps=2)
        pixel = np.array([32.0, 28.0])
        u, _ = track_correspondence(scene, pixel, 0, 0)
        assert np.allclose(u, pixel, atol=1e-9)

    def test_image_plane_translation(self):
        # whole scene translated by delta at fixed depth: u ~= p + f*delta/z
        delta = np.array([0.05, -0.03, 0.0])
        quats = np.zeros((1, 2, 4))
        quats[..., 0] = 1.0
        trans = np.zeros((1, 2, 3))
        trans[0, 1] = delta
        scene = _single_gaussian_scene(mean=(0.0, 0.0, 2.5),
                                       bases=MotionBasisSet(quats, trans))
        cam = scene.cameras[0]
        pixel = np.array([cam.cx, cam.cy])
        u, d = track_correspondence(scene, pixel, 0, 1)
        expected = pixel + cam.fx * delta[:2] / 2.5
        assert np.allclose(u, expected, atol=1e-6)

    def test_miss_raises(self):
        scene = _single_gaussian_scene()
        with pytest.raises(ValueError):
            track_correspondence(scene, np.array([0.0, 0.0]), 0, 0)


class TestSceneIo:
    def test_round_trip(self, tmp_path):
        scene = make_benchmark_scene()
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert np.allclose(loaded.means, scene.means)
        assert np.allclose(loaded.quaternions, scene.quaternions)
        assert np.allclose(loaded.bases.translations, scene.bases.translations)
        assert np.allclose(loaded.cameras[0].intrinsics, scene.cameras[0].intrinsics)
        assert np.max(np.abs(render(loaded, 2).image.data - render(scene, 2).image.data)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            Gaussian3D(np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]), np.full(3, 0.1),
                       0.5, np.zeros(3), np.zeros(1))
        with pytest.raises(ValueError):
            Gaussian3D(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]), np.full(3, 0.1),
                       1.0, np.zeros(3), np.zeros(1))


class TestFitting:
    def test_gradients_match_finite_differences(self):
        gt = make_gradient_check_scene()
        frames, depths, tracks, cameras = make_fit_inputs(gt, n_tracks=2)
        test_scene = perturb_scene(gt, seed=9, mean_sigma=0.03, color_sigma=0.04)
        cfg = FitConfig(initial_scene=test_scene, iterations=0)
        params = scene_to_params(test_scene)
        assignments = track_assignments(test_scene, tracks.query_pixels)
        _, grads = loss_and_grad(params, frames, depths, cameras, cfg,
                                 assignments=assignments, track_positions=tracks.positions)

        def loss_only(p):
            return loss_and_grad(p, frames, depths, cameras, cfg, assignments=assignments,
                                 track_positions=tracks.positions, want_grad=False)

        for key in PARAM_KEYS:
            arr = params[key]
            fd = np.zeros_like(arr)
            flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                h = 1e-5 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = loss_only(params)
                flat[i] = orig - h
                down = loss_only(params)
                flat[i] = orig
                fd_flat[i] = (up - down) / (2 * h)
            rel = np.linalg.norm(grads[key] - fd) / (np.linalg.norm(fd) + 1e-30)
            assert rel < 1e-3, f"{key}: rel err {rel}"

    def test_ground_truth_is_fixed_point(self):
        gt = make_gradient_check_scene()
        frames, depths, tracks, cameras = make_fit_inputs(gt, n_tracks=2)
        cfg = FitConfig(initial_scene=gt, iterations=3)
        params = scene_to_params(gt)
        assignments = track_assignments(gt, tracks.query_pixels)
        loss, grads = loss_and_grad(params, frames, depths, cameras, cfg,
                                    assignments=assignments, track_positions=tracks.positions)
        assert loss == 0.0
        for key in PARAM_KEYS:
            assert not grads[key].any()
        result = fit_scene(frames, depths, tracks, cameras, cfg)
        assert result.losses == [0.0] * len(result.losses)

    def test_objective_non_increasing(self):
        gt = make_gradient_check_scene()
        frames, depths, tracks, cameras = make_fit_inputs(gt, n_tracks=2)
        init = perturb_scene(gt, seed=2, mean_sigma=0.05, color_sigma=0.06)
        cfg = FitConfig(initial_scene=init, iterations=60)
        result = fit_scene(frames, depths, tracks, cameras, cfg)
        assert all(b <= a + 1e-15 for a, b in zip(result.losses, result.losses[1:]))
        assert result.final_loss < result.losses[0]

    def test_divergence_raises(self):
        gt = make_gradient_check_scene()
        frames, depths, tracks, cameras = make_fit_inputs(gt, n_tracks=2)
        bad = scene_to_params(gt)
        bad["means"][0, 0] = np.nan
        cfg = FitConfig(initial_scene=gt, iterations=1)
        with pytest.raises(FitDivergenceError):
            loss_and_grad(bad, frames, depths, cameras, cfg)

    def test_needs_two_frames(self):
        gt = make_gradient_check_scene()
        frames, depths, tracks, cameras = make_fit_inputs(gt, n_tracks=2)
        cfg = FitConfig(initial_scene=gt, iterations=1)
        with pytest.raises(ValueError):
            fit_scene(frames[:1], depths[:1], None, cameras[:1], cfg)
