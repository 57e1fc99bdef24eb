import json
import re
from dataclasses import replace

import numpy as np
import pytest

import semvid.recon.fit as fit_module
from semvid.fixtures import (
    default_camera,
    make_benchmark_scene,
    make_fit_inputs,
    perturb_scene,
)
from semvid.recon.fit import (
    OPACITY_EPS,
    PARAM_KEYS,
    SCALE_FLOOR,
    FitDivergenceError,
    fit_scene,
    loss_and_grad,
    params_to_scene,
    track_assignments,
)
from semvid.recon.render import (
    ALPHA_MAX,
    COV_REG_PX2,
    composite,
    hit_weights,
    pixel_grid,
    project_points,
    quad_form,
    rasterize,
    render,
)
from semvid.recon.scene import (
    Camera,
    GaussianScene,
    load_scene,
    pose_pipeline,
    quat_multiply,
    quat_normalize,
    quat_to_rotmat,
    save_scene,
    scene_params,
)

import pins
from scenes import make_gradient_check_scene, mutable_params


def _identity_basis_quats(n_bases, n_timesteps):
    q = np.zeros((n_bases, n_timesteps, 4))
    q[..., 0] = 1.0
    return q


def _single_gaussian_scene(mean=(0.2, -0.1, 2.5), opacity=0.9, color=(1.0, 1.0, 1.0),
                           basis_trans=None):
    """One Gaussian under pure-translation bases (``basis_trans``, default
    one static basis and one timestep)."""
    if basis_trans is None:
        basis_trans = np.zeros((1, 1, 3))
    n_bases, n_timesteps = basis_trans.shape[:2]
    return GaussianScene(
        means=np.array([mean]), quats=np.array([[1.0, 0.0, 0.0, 0.0]]),
        scales=np.full((1, 3), 0.1), opacities=np.array([opacity]),
        colors=np.array([color]), coeffs=np.zeros((1, n_bases)),
        basis_quats=_identity_basis_quats(n_bases, n_timesteps), basis_trans=basis_trans,
        cameras=[default_camera() for _ in range(n_timesteps)], background=np.zeros(3),
    )


def _pose(scene, t):
    """The centers and rotations of every Gaussian at timestep ``t``."""
    pp = pose_pipeline(scene_params(scene), [t])
    return pp["mu_t"][0], pp["r_t"][0]


def _covariance(scene, i):
    """Reference covariance R diag(s^2) R^T of Gaussian i, written out
    independently of the pose pipeline."""
    r = quat_to_rotmat(scene.quats[i])
    return r @ np.diag(scene.scales[i] ** 2) @ r.T


class TestPose:
    def test_identity_bases(self):
        scene = _single_gaussian_scene()
        mu, rot = _pose(scene, 0)
        assert np.allclose(mu[0], scene.means[0])
        assert np.allclose(rot[0], quat_to_rotmat(scene.quats[0]))

    def test_single_translation_basis(self):
        trans = np.array([[[0.3, -0.2, 0.1]]])
        scene = _single_gaussian_scene(basis_trans=trans)
        mu, rot = _pose(scene, 0)
        assert np.allclose(mu[0], scene.means[0] + trans[0, 0])
        assert np.allclose(rot[0], quat_to_rotmat(scene.quats[0]))

    def test_two_translation_bases_blend(self):
        trans = np.zeros((2, 1, 3))
        trans[0, 0] = [0.4, 0.0, 0.0]
        trans[1, 0] = [0.0, 0.2, 0.0]
        # zero coefficients weight the two bases equally
        scene = _single_gaussian_scene(mean=(0.0, 0.0, 0.0), basis_trans=trans)
        mu, _ = _pose(scene, 0)
        assert np.allclose(mu[0], [0.2, 0.1, 0.0])

    def test_rotation_stays_orthonormal(self):
        scene = make_gradient_check_scene()
        for t in range(scene.n_timesteps):
            _, rot = _pose(scene, t)
            for r in rot:
                assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-6


def project(mu: np.ndarray, sigma: np.ndarray, camera: Camera):
    """Scalar reference projection of one 3D mean and covariance into pixel
    space, the oracle for the renderer's batched ``project_points``.

    Returns (mu2d, sigma2d) where sigma2d = M Sigma M^T with M the Jacobian
    of the full world-to-pixel map.  Raises for non-positive depth (the
    renderer treats that as culled)."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    x_cam = mu @ camera.rotation.T + camera.translation
    z = x_cam[2]
    if z <= 0:
        raise ValueError("point has non-positive camera depth (culled)")
    k = camera.intrinsics
    fx, fy = k[0, 0], k[1, 1]
    mu2d = np.array([fx * x_cam[0] / z + k[0, 2], fy * x_cam[1] / z + k[1, 2]])
    j = np.array(
        [
            [fx / z, 0.0, -fx * x_cam[0] / z**2],
            [0.0, fy / z, -fy * x_cam[1] / z**2],
        ]
    )
    m = j @ camera.rotation
    return mu2d, m @ sigma @ m.T


class TestProject:
    def test_optical_axis_maps_to_principal_point(self):
        cam = default_camera(64, 64, focal=80.0)
        mu2d, _ = project(np.array([0.0, 0.0, 3.0]), 0.01 * np.eye(3), cam)
        assert np.allclose(mu2d, [cam.intrinsics[0, 2], cam.intrinsics[1, 2]])

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

    def test_batched_projection_matches_scalar(self):
        # one camera per batch row: every timestep of the benchmark scene,
        # each seen by its own camera, with its own focal lengths
        scene = make_benchmark_scene()
        base = scene.cameras[0]
        rng = np.random.default_rng(4)
        cams = []
        for f in range(scene.n_timesteps):
            k = base.intrinsics.copy()
            k[0, 0], k[1, 1] = 80.0 + 4.0 * f, 76.0 + 3.0 * f
            q = np.array([0.97, 0.1, -0.15, 0.12]) + rng.normal(0.0, 0.05, 4)
            cams.append(Camera(k, quat_to_rotmat(quat_normalize(q)),
                               np.array([0.1, -0.05, 0.3]) + rng.normal(0.0, 0.05, 3),
                               base.width, base.height))
        pp = pose_pipeline(scene_params(scene), range(scene.n_timesteps))
        valid, _, mu2d, _, cov2d = project_points(pp["mu_t"], pp["cov"], cams)
        assert valid.shape == (scene.n_timesteps, scene.n_gaussians) and valid.all()
        for f, cam in enumerate(cams):
            for i in range(scene.n_gaussians):
                ref_mu, ref_cov = project(pp["mu_t"][f, i], pp["cov"][f, i], cam)
                assert np.allclose(mu2d[f, i], ref_mu, rtol=1e-12, atol=0.0)
                assert np.allclose(cov2d[f, i], ref_cov + COV_REG_PX2 * np.eye(2),
                                   rtol=1e-12, atol=1e-12)


class TestRender:
    def test_empty_scene_is_background(self):
        scene = GaussianScene(
            means=np.zeros((0, 3)), quats=np.zeros((0, 4)),
            scales=np.zeros((0, 3)), opacities=np.zeros(0), colors=np.zeros((0, 3)),
            coeffs=np.zeros((0, 1)), basis_quats=_identity_basis_quats(1, 1),
            basis_trans=np.zeros((1, 1, 3)),
            cameras=(default_camera(),), background=np.array([0.2, 0.4, 0.6]),
        )
        res = render(scene, 0)
        assert np.allclose(res.image, [0.2, 0.4, 0.6])
        assert not res.depth.any()  # sentinel for no surface
        assert not res.alpha.any()

    def test_gaussian_behind_camera_is_background(self):
        scene = replace(_single_gaussian_scene(mean=(0.0, 0.0, -2.5)),
                        background=np.array([0.2, 0.4, 0.6]))
        res = render(scene, 0)
        assert np.array_equal(res.image, np.broadcast_to([0.2, 0.4, 0.6], (64, 64, 3)))
        assert not res.depth.any()
        assert not res.alpha.any()

    def test_single_gaussian_argmax_matches_projection(self):
        scene = _single_gaussian_scene()
        res = render(scene, 0)
        bright = res.image.sum(axis=2)
        peak_y, peak_x = np.unravel_index(np.argmax(bright), bright.shape)
        mu2d, _ = project(scene.means[0], _covariance(scene, 0), scene.cameras[0])
        assert abs(peak_x - mu2d[0]) <= 1.0
        assert abs(peak_y - mu2d[1]) <= 1.0

    def test_occlusion_limit(self):
        # a green Gaussian behind a red, nearly opaque one
        scene = GaussianScene(
            means=np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 2.0]]),
            quats=np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
            scales=np.full((2, 3), 0.3), opacities=np.array([0.9, 0.9999]),
            colors=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
            coeffs=np.zeros((2, 1)), basis_quats=_identity_basis_quats(1, 1),
            basis_trans=np.zeros((1, 1, 3)), cameras=[default_camera()], background=np.zeros(3),
        )
        res = render(scene, 0)
        center = res.image[32, 32]
        assert center[0] > 0.99
        assert center[1] < 0.01

    def test_color_conservation(self):
        scene = _single_gaussian_scene(color=(0.3, 0.6, 0.9))
        res = render(scene, 0)
        for c, value in enumerate((0.3, 0.6, 0.9)):
            assert res.image[..., c].max() <= max(value, 0.0) + 1e-12

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
        means2 = scene.means @ rw.T + tw
        quats2 = quat_normalize(quat_multiply(np.tile(qw, (g, 1)), scene.quats))
        bq = scene.basis_quats
        bq2 = quat_normalize(
            quat_multiply(np.broadcast_to(qw, bq.shape), quat_multiply(bq, np.broadcast_to(qw_conj, bq.shape)))
        )
        rb = quat_to_rotmat(bq)
        bt2 = scene.basis_trans @ rw.T + tw - np.einsum(
            "ij,btjk,k->bti", rw, np.einsum("btij,kj->btik", rb, rw), tw
        )
        cams2 = tuple(
            Camera(c.intrinsics, c.rotation @ rw.T,
                   c.translation - (c.rotation @ rw.T) @ tw, c.width, c.height)
            for c in scene.cameras
        )
        moved = replace(scene, means=means2, quats=quats2, basis_quats=bq2, basis_trans=bt2,
                        cameras=cams2)
        for t in (0, scene.n_timesteps - 1):
            a = render(scene, t).image
            c = render(moved, t).image
            assert np.max(np.abs(a - c)) < 1e-6


@pytest.mark.parametrize("make", [make_benchmark_scene,
                                  lambda: perturb_scene(make_benchmark_scene(), seed=3)],
                         ids=["benchmark", "perturbed"])
class TestBatchSizeIndependence:
    """A timestep's pose and frame do not depend on which other timesteps
    share the call: renders (one timestep) and the fit (all fit frames)
    then agree bit for bit, which the zero residual at the ground truth
    needs."""

    def test_pose_rows_equal_single_timestep_calls(self, make):
        scene = make()
        params = scene_params(scene)
        batched = pose_pipeline(params, range(scene.n_timesteps))
        for t in range(scene.n_timesteps):
            single = pose_pipeline(params, [t])
            assert batched.keys() == single.keys()
            for key, value in single.items():
                if key in ("w", "q0n", "s2"):  # the same for every timestep
                    assert np.array_equal(batched[key], value), key
                else:
                    assert np.array_equal(batched[key][t], value[0]), (key, t)

    def test_rasterized_frames_equal_render_calls(self, make):
        scene = make()
        params, cams = scene_params(scene), scene.cameras
        grid = pixel_grid(cams[0].width, cams[0].height)
        ts = list(range(scene.n_timesteps))
        batched = rasterize(params, cams, ts, scene.background, [grid] * len(ts))
        for t in ts:
            frame = batched["frames"][t]
            single = rasterize(params, [cams[t]], [t], scene.background, [grid])["frames"][0]
            for key in ("image", "depth", "alphas", "order"):
                assert np.array_equal(frame[key], single[key]), (key, t)
            res = render(scene, t)
            assert np.array_equal(res.image,
                                  np.clip(frame["image"].transpose(1, 2, 0), 0.0, 1.0))
            assert np.array_equal(res.depth, frame["depth"])

    def test_one_pixel_frames_equal_the_full_grid(self, make):
        scene = make()
        params, cam = scene_params(scene), scene.cameras[2]
        full = rasterize(params, [cam], [2], scene.background,
                         [pixel_grid(cam.width, cam.height)])["frames"][0]
        for x, y in ((0, 0), (cam.width - 1, 0), (17, 29), (cam.width - 1, cam.height - 1)):
            one = rasterize(params, [cam], [2], scene.background,
                            [(np.array([x], float), np.array([y], float))])["frames"][0]
            assert np.array_equal(one["order"], full["order"])
            for key in ("alphas", "t_excl", "weights"):
                assert np.array_equal(one[key][:, 0, 0], full[key][:, y, x]), (key, x, y)


@pytest.mark.parametrize("g", [0, 1, 5])
class TestLoopRewrites:
    """The compositing and gradient loops against the numpy primitives they
    replace, on random (G, H, W) maps."""

    def test_transmittance_equals_cumprod(self, g):
        rng = np.random.default_rng(g)
        alphas = rng.uniform(0.0, ALPHA_MAX, (g, 7, 9))
        background = np.array([0.2, 0.4, 0.6])
        image, depth, t_excl, t_final, weights = composite(
            alphas, rng.random((g, 3)), rng.random(g), background)
        reference = np.ones((g + 1, 7, 9))
        np.cumprod(1 - alphas, axis=0, out=reference[1:])
        assert np.array_equal(np.concatenate([t_excl, t_final[None]]), reference)
        # the compositing weights, which the gradient reads
        assert np.array_equal(weights, t_excl * alphas)
        assert image.shape == (3, 7, 9) and depth.shape == (7, 9)
        if g == 0:  # nothing to composite: the background and no surface
            assert np.array_equal(image, np.broadcast_to(background[:, None, None], (3, 7, 9)))
            assert not depth.any()

    def test_suffix_sums_equal_reversed_cumsum(self, g):
        tail = np.random.default_rng(10 + g).normal(0.0, 1.0, (g + 1, 7, 9))
        reference = np.cumsum(tail[::-1], axis=0)[::-1][1:]
        assert np.array_equal(fit_module._suffix_sums(tail), reference)


class TestTrackAssignments:
    @pytest.mark.parametrize("case", ["gradient_check", "reference"])
    def test_weights_pinned(self, case):
        pins.check(f"recon.track_assignments[{case}]")

    def test_miss_raises(self):
        scene = _single_gaussian_scene()
        with pytest.raises(ValueError, match="hits no Gaussian"):
            track_assignments(scene, [[0.0, 0.0]])

    @pytest.mark.parametrize("pixel", [[np.nan, 10.0], [np.inf, 3.0], [32.0, -np.inf],
                                       [10.0, 20.0, 99.0], [24.0], []],
                             ids=["nan", "inf", "minus-inf", "three", "one", "empty"])
    def test_malformed_pixel_refused(self, pixel):
        scene = _single_gaussian_scene()
        with pytest.raises(ValueError, match=re.escape(f"pixel {pixel!r} must be two finite")):
            hit_weights(scene, pixel, 0)
        if len(pixel) == 2:  # a (K, 2) query with one bad row
            with pytest.raises(ValueError, match="must be two finite"):
                track_assignments(scene, [[32.0, 32.0], pixel])


class TestSceneIo:
    def test_round_trip(self, tmp_path):
        scene = make_benchmark_scene()
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert np.allclose(loaded.means, scene.means)
        assert np.allclose(loaded.quats, scene.quats)
        assert np.allclose(loaded.basis_trans, scene.basis_trans)
        assert np.allclose(loaded.cameras[0].intrinsics, scene.cameras[0].intrinsics)
        assert np.max(np.abs(render(loaded, 2).image - render(scene, 2).image)) < 1e-12

    def test_validation(self):
        scene = _single_gaussian_scene()
        with pytest.raises(ValueError, match="unit norm"):
            replace(scene, quats=np.array([[1.0, 1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="opacities"):
            replace(scene, opacities=np.array([1.0]))
        for color in (1.5, -0.5):
            with pytest.raises(ValueError, match=r"scene colors must lie in \[0, 1\]"):
                replace(scene, colors=np.array([[0.5, color, 0.5]]))

    @pytest.mark.parametrize("where, value, field", [
        (("gaussians", 0, "mean", 0), float("nan"), "scene means"),
        (("cameras", 0, "intrinsics", 0, 0), float("nan"), "camera intrinsics"),
        (("background", 0), float("inf"), "scene background"),
        (("bases", "translations", 0, 0, 0), float("inf"), "scene basis_trans"),
    ])
    def test_non_finite_file_refused_at_load(self, tmp_path, where, value, field):
        path = tmp_path / "scene.json"
        save_scene(make_benchmark_scene(), path)
        payload = json.loads(path.read_text())
        node = payload
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path.write_text(json.dumps(payload))  # writes NaN / Infinity literals
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            load_scene(path)

    def test_out_of_range_color_refused_at_load(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(make_benchmark_scene(), path)
        payload = json.loads(path.read_text())
        payload["gaussians"][0]["color"][1] = 1.5
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"scene colors must lie in \[0, 1\]"):
            load_scene(path)

    def test_file_format_is_pinned(self):
        pins.check("recon.scene_file")

    def test_load_then_save_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_scene(perturb_scene(make_gradient_check_scene()), first)
        save_scene(load_scene(first), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda p: p["bases"]["quaternions"][0][0].__setitem__(1, 0.1),
                     "basis quaternions must be unit norm within 1e-6", id="basis-quat-not-unit"),
        pytest.param(lambda p: [basis.pop() for basis in p["bases"]["translations"]],
                     "motion basis arrays have inconsistent shapes", id="basis-trans-short"),
        pytest.param(lambda p: [g["motion_coeffs"].pop() for g in p["gaussians"]],
                     "motion coefficients must have shape (G, n_bases)", id="coeffs-short"),
        pytest.param(lambda p: p["cameras"].pop(),
                     "need one camera per basis timestep", id="camera-missing"),
        pytest.param(lambda p: p["gaussians"][0].update(scales=[0.0, 0.1, 0.1]),
                     "scales must be positive", id="zero-scale"),
        pytest.param(lambda p: p["gaussians"][0].update(quaternion=[1.0, 1.0, 0.0, 0.0]),
                     "gaussian quaternions must be unit norm within 1e-9", id="quat-not-unit"),
    ])
    def test_inconsistent_file_refused_at_load(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scene(_edited_scene_file(tmp_path, edit))

    @pytest.mark.parametrize("content, message", [
        pytest.param(b"{nope", "is not UTF-8 JSON", id="not-json"),
        pytest.param(b"\xff\xfe", "is not UTF-8 JSON", id="not-utf8"),
        pytest.param(b"[]", "has a list where an object with key", id="not-an-object"),
        pytest.param(lambda p: p.pop("cameras"), "is missing key 'cameras'", id="no-cameras"),
        pytest.param(lambda p: p["gaussians"][0].pop("opacity"), "is missing key 'opacity'",
                     id="no-opacity"),
        pytest.param(lambda p: p["gaussians"].__setitem__(0, []),
                     "has a list where an object with key 'mean' belongs", id="gaussian-not-object"),
        pytest.param(lambda p: p.update(cameras=5), "key 'cameras' must be a JSON array, got 5",
                     id="cameras-not-array"),
        pytest.param(lambda p: p["cameras"][0].update(width="64"),
                     "key 'width' must be a JSON integer, got '64'", id="width-string"),
        pytest.param(lambda p: p["cameras"][0].update(height=48.0),
                     "key 'height' must be a JSON integer, got 48.0", id="height-float"),
        pytest.param(lambda p: p["gaussians"][0].update(mean=[0.1, 0.2]),
                     "key 'mean' is not a numeric array: ", id="mean-ragged"),
        pytest.param(lambda p: p["gaussians"][0].update(mean=["a", 0.2, 0.3]),
                     "key 'mean' is not a numeric array: ", id="mean-not-numeric"),
        pytest.param(lambda p: p["cameras"][0].update(width=0),
                     "is not a valid scene: image size must be positive", id="camera-check"),
        pytest.param(lambda p: p["gaussians"][0].update(opacity=1.0),
                     "is not a valid scene: opacities must lie in (0, 1)", id="scene-check"),
    ])
    def test_malformed_file_refused_naming_it(self, tmp_path, content, message):
        if callable(content):
            path = _edited_scene_file(tmp_path, content)
        else:
            path = tmp_path / "scene.json"
            path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"scene file {path} {message}")):
            load_scene(path)

    @pytest.mark.parametrize("background", [[1.5, -0.5, 0.2], [[0.1, 0.2, 0.3]], [0.1, 0.2]])
    def test_background_must_be_an_rgb_triple_in_unit_range(self, tmp_path, background):
        message = re.escape("scene background must be an RGB triple in [0, 1]")
        with pytest.raises(ValueError, match=message):
            replace(make_benchmark_scene(2, 32, 2), background=np.array(background))
        path = _edited_scene_file(tmp_path, lambda p: p.update(background=background))
        with pytest.raises(ValueError, match=message):
            load_scene(path)


def _edited_scene_file(tmp_path, edit):
    """A saved benchmark scene whose JSON payload ``edit`` changed in
    place."""
    path = tmp_path / "scene.json"
    save_scene(make_benchmark_scene(), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


class TestFitting:
    def test_gradients_match_finite_differences(self):
        # the objective without its track term; criterion 7 checks it with tracks
        gt = make_gradient_check_scene()
        frames, depths, _ = make_fit_inputs(gt, n_tracks=2)
        test_scene = perturb_scene(gt, seed=9, mean_sigma=0.03, color_sigma=0.04)
        params = mutable_params(test_scene)
        _, grads = loss_and_grad(params, frames, depths, None, test_scene)

        def loss_only(p):
            return loss_and_grad(p, frames, depths, None, test_scene, want_grad=False)

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
        frames, depths, tracks = make_fit_inputs(gt, n_tracks=2)
        loss, grads = loss_and_grad(mutable_params(gt), frames, depths, tracks, gt)
        assert loss == 0.0
        for key in PARAM_KEYS:
            assert not grads[key].any()
        result = fit_scene(frames, depths, tracks, gt, 3)
        assert result.losses == [0.0] * len(result.losses)

    def test_objective_non_increasing(self):
        gt = make_gradient_check_scene()
        frames, depths, tracks = make_fit_inputs(gt, n_tracks=2)
        init = perturb_scene(gt, seed=2, mean_sigma=0.05, color_sigma=0.06)
        result = fit_scene(frames, depths, tracks, init, 60)
        assert all(b <= a + 1e-15 for a, b in zip(result.losses, result.losses[1:]))
        assert result.final_loss < result.losses[0]

    def test_divergence_raises(self):
        gt = make_gradient_check_scene()
        frames, depths, _ = make_fit_inputs(gt, n_tracks=2)
        bad = mutable_params(gt)
        bad["means"][0, 0] = np.nan
        with pytest.raises(FitDivergenceError):
            loss_and_grad(bad, frames, depths, None, gt)

    def test_needs_two_frames(self):
        gt = make_gradient_check_scene()
        frames, depths, _ = make_fit_inputs(gt, n_tracks=2)
        with pytest.raises(ValueError):
            fit_scene(frames[:1], depths[:1], None, gt, 1)

    @pytest.mark.parametrize("held_out", [-1, 3])  # -1 never means the last frame
    def test_exclude_frames_outside_clip_refused(self, held_out):
        gt = make_gradient_check_scene()
        frames, depths, tracks = make_fit_inputs(gt, n_tracks=2)
        assert len(frames) == 3
        with pytest.raises(ValueError, match=f"exclude_frames index {held_out} is outside"):
            fit_scene(frames, depths, tracks, gt, 1, exclude_frames=(held_out,))




class TestParamsToScene:
    @pytest.mark.parametrize("make", [make_benchmark_scene, make_gradient_check_scene])
    def test_round_trip_is_exact(self, make):
        scene = make()
        back = params_to_scene(mutable_params(scene), scene)
        for name in (*PARAM_KEYS, "background"):
            if name not in ("quats", "basis_quats"):
                assert np.array_equal(getattr(back, name), getattr(scene, name)), name
        assert back.cameras == scene.cameras
        # quaternions come back re-normalized, which may move a stored
        # unit quaternion by an ulp (it does for the gradient-check scene)
        for name in ("quats", "basis_quats"):
            new, old = getattr(back, name), getattr(scene, name)
            assert np.array_equal(new, quat_normalize(old))
            assert np.max(np.abs(new - old)) < 1e-15

    def test_out_of_range_params_are_clamped(self):
        scene = make_gradient_check_scene()
        params = mutable_params(scene)
        params["opacities"][:] = [1.5, -0.2]
        params["colors"][0] = [-0.5, 0.5, 2.0]
        params["scales"][1] = [-1.0, 0.0, 0.2]
        raw = {k: v.copy() for k, v in params.items()}
        back = params_to_scene(params, scene)
        assert np.array_equal(back.opacities, [1 - OPACITY_EPS, OPACITY_EPS])
        assert np.array_equal(back.colors, np.clip(raw["colors"], 0.0, 1.0))
        assert np.array_equal(back.scales, np.maximum(raw["scales"], SCALE_FLOOR))
        for key in PARAM_KEYS:
            assert np.array_equal(params[key], raw[key]), key  # input left as it was


def _backtracking_fit_setup(monkeypatch, learning_rate=0.05, max_backtracks=2):
    """A small fit whose large step sizes force backtracks; with
    ``MAX_BACKTRACKS`` at 2 some iterations also accept nothing.  Returns
    the observations and the initial scene."""
    monkeypatch.setattr(fit_module, "LEARNING_RATES", {k: learning_rate for k in PARAM_KEYS})
    monkeypatch.setattr(fit_module, "MAX_BACKTRACKS", max_backtracks)
    gt = make_gradient_check_scene()
    frames, depths, tracks = make_fit_inputs(gt, n_tracks=2)
    return frames, depths, tracks, perturb_scene(gt, seed=2, mean_sigma=0.05, color_sigma=0.06)


def _count_calls(monkeypatch, name):
    """Record the positional arguments of every call of ``name``."""
    calls = []
    original = getattr(fit_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fit_module, name, counted)
    return calls


class TestFitTrials:
    def test_each_trial_rasterized_once(self, monkeypatch):
        frames, depths, tracks, init = _backtracking_fit_setup(monkeypatch)
        rasterized = _count_calls(monkeypatch, "rasterize")
        grids = _count_calls(monkeypatch, "pixel_grid")
        result = fit_scene(frames, depths, tracks, init, 4, exclude_frames=(1,))
        assert result.backtracks > 0
        # one call per candidate, and one for the start, each covering
        # every fit frame
        assert len(rasterized) == result.iterations_run + result.backtracks + 1
        assert all(list(args[2]) == [0, 2] for args in rasterized)
        assert len(grids) == 1  # all cameras share one image size

    def test_backtrack_and_rejection_counts(self, monkeypatch):
        frames, depths, tracks, init = _backtracking_fit_setup(monkeypatch)
        rasterized = _count_calls(monkeypatch, "rasterize")
        result = fit_scene(frames, depths, tracks, init, 4)
        assert result.backtracks > 0 and result.rejected_steps > 0
        # once per candidate, and once for the start
        assert len(rasterized) == result.iterations_run + result.backtracks + 1
        # accepted steps strictly lower this objective; rejected ones repeat it
        flat = sum(b == a for a, b in zip(result.losses, result.losses[1:]))
        assert result.rejected_steps == flat

    def test_evaluation_and_gradient_counts(self, monkeypatch):
        frames, depths, tracks, init = _backtracking_fit_setup(monkeypatch)
        calls = {"forward": 0, "backward": 0}
        for name in calls:
            original = getattr(fit_module._Objective, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(fit_module._Objective, name, counted)
        result = fit_scene(frames, depths, tracks, init, 6)
        assert result.backtracks > 0 and result.rejected_steps > 0
        assert (result.evaluations, result.gradients) == (calls["forward"], calls["backward"])
        assert result.evaluations == 1 + result.iterations_run + result.backtracks

    def test_every_step_rejected(self, monkeypatch):
        frames, depths, tracks, init = _backtracking_fit_setup(
            monkeypatch, learning_rate=1.0, max_backtracks=1)
        result = fit_scene(frames, depths, tracks, init, 4)
        assert result.rejected_steps == 4
        assert result.backtracks == 0
        assert result.losses == [result.losses[0]] * 5

    def test_cached_gradient_equals_fresh(self, monkeypatch):
        frames, depths, tracks, init = _backtracking_fit_setup(monkeypatch, max_backtracks=12)
        built = []
        backward = fit_module._Objective.backward

        def recording(self, params, caches):
            grads = backward(self, params, caches)
            built.append(({k: v.copy() for k, v in params.items()}, grads))
            return grads

        monkeypatch.setattr(fit_module._Objective, "backward", recording)
        result = fit_scene(frames, depths, tracks, init, 4)
        monkeypatch.undo()
        assert result.backtracks > 0
        assert result.losses[-1] < result.losses[-2]  # the last step was accepted
        # one gradient at the start and one after each accepted step but the
        # last, which no iteration steps from
        assert len(built) == result.iterations_run - result.rejected_steps
        for params, grads in built:
            _, fresh = loss_and_grad(params, frames, depths, tracks, init)
            for key in PARAM_KEYS:
                assert np.array_equal(grads[key], fresh[key]), key


class TestOptimizerPin:
    @pytest.mark.parametrize("max_backtracks", [1, 3])
    def test_l1_fit_bits(self, max_backtracks):
        fitted = pins.l1_fit(max_backtracks).scene
        # the fit ends on the upper and the lower edges of the box
        assert np.any(fitted.opacities == 1 - OPACITY_EPS)
        assert fitted.colors[0, 2] == 0.0
        assert fitted.scales[0, 2] == SCALE_FLOOR
        pins.check(f"recon.l1_fit[{max_backtracks}]")


class TestReferenceFitPins:
    """The real objective and a short fit on the reference inputs, bit for
    bit."""

    def test_objective_pass_pinned(self):
        pins.check("recon.objective_pass")

    def test_short_fit_pinned(self):
        pins.check("recon.short_fit")


def test_written_out_splat_algebra_matches_einsum():
    """The written-out forms against ``einsum``, on full (g, h, w) offset
    maps and on separable (g, 1, w) and (g, h, 1) offsets as the rasterizer
    forms them; on separable offsets they also equal the calls on the full
    maps bit for bit."""
    rng = np.random.default_rng(3)
    g, h, w = 6, 9, 11
    full = tuple(rng.normal(0.0, 4.0, (2, g, h, w)))
    inv = rng.normal(0.0, 1.0, (g, 2, 2))  # not symmetric, so every entry is pinned
    d_qf = rng.normal(0.0, 1.0, (g, h, w))
    separable = rng.normal(0.0, 4.0, (g, 1, w)), rng.normal(0.0, 4.0, (g, h, 1))

    def rel(new, old):
        return np.linalg.norm(new - old) / np.linalg.norm(old)

    for dx, dy in (full, separable):
        full_dx, full_dy = (np.ascontiguousarray(x) for x in np.broadcast_arrays(dx, dy))
        delta = np.stack([full_dx, full_dy], axis=-1)
        qf = np.einsum("ghwi,gij,ghwj->ghw", delta, inv, delta)
        d_inv = np.einsum("ghw,ghwi,ghwj->gij", d_qf, delta, delta)
        d_delta = 2.0 * np.einsum("ghw,ghwj,gji->ghwi", d_qf, delta, inv)
        d_mu2d = -np.sum(d_delta, axis=(1, 2))
        new_d_inv, new_d_mu2d = fit_module._splat_backward(d_qf, dx, dy, inv)
        assert rel(quad_form(dx, dy, inv), qf) < 1e-12
        assert rel(new_d_inv, d_inv) < 1e-12
        assert rel(new_d_mu2d, d_mu2d) < 1e-12
        assert np.array_equal(quad_form(dx, dy, inv), quad_form(full_dx, full_dy, inv))
        full_d_inv, full_d_mu2d = fit_module._splat_backward(d_qf, full_dx, full_dy, inv)
        assert np.array_equal(new_d_inv, full_d_inv)
        assert np.array_equal(new_d_mu2d, full_d_mu2d)
