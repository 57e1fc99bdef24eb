import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvid.fixtures import make_matting_set
from semvid.synthesis import (
    composite,
    detail_loss,
    estimate_matte,
    fusion_loss,
    matte_iou,
    semantic_loss,
    transition_mask,
)
from semvid.video import box_downsample

import pins


def _frame(value, shape=(10, 10, 3)):
    return np.full(shape, float(value))


class TestEstimateMatte:
    def test_identical_frames_give_empty_matte(self):
        f = _frame(0.4)
        matte = estimate_matte(f, f, 0.15, 0.1)
        assert not matte.any()

    def test_full_difference_gives_full_matte(self):
        matte = estimate_matte(_frame(1.0), _frame(0.0), 0.15, 0.1)
        assert np.all(matte == 1.0)

    def test_synthetic_disk_iou(self):
        video, plate, gt = make_matting_set(64, 64, 1)
        matte = estimate_matte(video.frames[0], plate, 0.18, 0.1)
        assert matte_iou(matte, gt[0]) >= 0.95

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            estimate_matte(_frame(0.0), _frame(0.0, shape=(4, 4, 3)), 0.1, 0.1)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            estimate_matte(_frame(0.0), _frame(0.0), 0.0, 0.1)

    @pytest.mark.parametrize("threshold, softness", [
        (np.nan, 0.1), (np.inf, 0.1), (0.15, np.nan), (0.15, np.inf), (0.15, -np.inf)])
    def test_non_finite_settings_refused(self, threshold, softness):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_matte(_frame(1.0), _frame(0.0), threshold, softness)


class TestTransitionMask:
    def test_all_zero_matte(self):
        mask = transition_mask(np.zeros((8, 8)), 2)
        assert not mask.any()

    def test_all_one_matte(self):
        mask = transition_mask(np.ones((8, 8)), 2)
        assert not mask.any()

    def test_square_band_geometry(self):
        alpha = np.zeros((20, 20))
        alpha[5:15, 5:15] = 1.0
        mask = transition_mask(alpha, 2)
        expected = np.zeros((20, 20), dtype=bool)
        expected[3:17, 3:17] = True          # dilation
        expected[7:13, 7:13] = False         # minus erosion
        assert np.array_equal(mask, expected)
        assert mask.sum() == 14 * 14 - 6 * 6

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            transition_mask(np.zeros((4, 4)), 0)

    def test_constant_matte_iff_empty(self, rng):
        alpha = (rng.random((16, 16)) > 0.5).astype(float)
        if alpha.min() == alpha.max():
            alpha[0, 0] = 1.0 - alpha[0, 0]
        assert transition_mask(alpha, 1).any()


class TestSemanticLoss:
    def test_zero_at_truth(self, rng):
        alpha = rng.random((16, 16))
        thumb = box_downsample(alpha, 4)
        assert semantic_loss(thumb, alpha, 4) == 0.0

    def test_uniform_offset(self):
        alpha = np.full((40, 40), 0.5)
        pred = np.full((10, 10), 0.6)
        assert semantic_loss(pred, alpha, 4) == pytest.approx(0.5 * 0.01, abs=1e-12)

    def test_symmetric(self, rng):
        alpha = rng.random((16, 16))
        pred = rng.random((4, 4))
        thumb = box_downsample(alpha, 4)
        forward = semantic_loss(pred, alpha, 4)
        swapped = 0.5 * np.mean((thumb - pred) ** 2)
        assert forward == pytest.approx(swapped)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            semantic_loss(np.zeros((5, 5)), np.zeros((16, 16)), 4)


class TestDetailLoss:
    def test_zero_at_truth(self, rng):
        alpha = rng.random((8, 8))
        mask = np.ones((8, 8), dtype=bool)
        assert detail_loss(alpha, alpha, mask) == 0.0

    def test_error_outside_mask_ignored(self):
        gt = np.zeros((8, 8))
        pred = np.zeros((8, 8))
        pred[0, :] = 1.0
        mask = np.zeros((8, 8), dtype=bool)
        mask[4:, :] = True
        assert detail_loss(pred, gt, mask) == 0.0

    def test_mean_convention_inside_mask(self):
        gt = np.zeros((10, 10))
        mask = np.zeros((10, 10), dtype=bool)
        mask.reshape(-1)[:50] = True
        pred = np.where(mask, 0.2, 0.0)
        assert detail_loss(pred, gt, mask) == pytest.approx(0.2)

    def test_empty_mask_is_zero(self):
        gt = np.zeros((4, 4))
        pred = np.ones((4, 4))
        assert detail_loss(pred, gt, np.zeros((4, 4), dtype=bool)) == 0.0

    def test_integer_mask_reads_as_bool(self, rng):
        # indexing with a 0/1 integer mask would pick rows 0 and 1 instead
        pred, gt = rng.random((8, 8)), rng.random((8, 8))
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:5, 3:7] = True
        expected = detail_loss(pred, gt, mask)
        assert detail_loss(pred, gt, mask.astype(int)) == expected
        assert expected == pytest.approx(np.mean(np.abs(pred - gt)[2:5, 3:7]))


class TestFusionLoss:
    def test_zero_at_truth(self, rng):
        alpha = rng.random((8, 8))
        fg = rng.random((8, 8, 3))
        bg = rng.random((8, 8, 3))
        assert fusion_loss(alpha, alpha, fg, bg) == 0.0

    def test_inverted_binary_matte(self, rng):
        alpha = (rng.random((8, 8)) > 0.5).astype(float)
        inverted = 1.0 - alpha
        f = rng.random((8, 8, 3))
        # fg == bg kills the compositional term, leaving the matte term
        assert fusion_loss(inverted, alpha, f, f) == pytest.approx(1.0)

    def test_compositional_term_zero_when_fg_equals_bg(self, rng):
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        f = rng.random((8, 8, 3))
        assert fusion_loss(a, b, f, f) == pytest.approx(np.mean(np.abs(a - b)))

    def test_positive_when_different(self, rng):
        a = rng.random((8, 8))
        b = np.clip(a + 0.2, 0, 1)
        fg = rng.random((8, 8, 3))
        bg = rng.random((8, 8, 3))
        assert fusion_loss(b, a, fg, bg) > 0.0

    def test_dims_mismatch(self, rng):
        f = rng.random((8, 8, 3))
        with pytest.raises(ValueError, match="fusion loss"):
            fusion_loss(np.zeros((8, 8)), np.zeros((8, 7)), f, f)


class TestMatteIou:
    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="matte IoU"):
            matte_iou(np.zeros((8, 8)), np.zeros((7, 8)))


class TestComposite:
    def test_alpha_one_selects_foreground(self, rng):
        x = rng.random((6, 6, 3))
        b = rng.random((6, 6, 3))
        out = composite(x, b, np.ones((6, 6)))
        assert np.array_equal(out, x)

    def test_alpha_zero_selects_background(self, rng):
        x = rng.random((6, 6, 3))
        b = rng.random((6, 6, 3))
        out = composite(x, b, np.zeros((6, 6)))
        assert np.array_equal(out, b)

    def test_half_mix(self):
        out = composite(_frame(1.0), _frame(0.0), np.full((10, 10), 0.5))
        assert np.allclose(out, 0.5)

    def test_same_frame_fixed_point(self, rng):
        x = rng.random((6, 6, 3))
        out = composite(x, x, rng.random((6, 6)))
        assert np.allclose(out, x)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((5, 5, 3))
        b = rng.random((5, 5, 3))
        alpha = rng.random((5, 5))
        out = composite(x, b, alpha)
        lo = np.minimum(x, b) - 1e-12
        hi = np.maximum(x, b) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            composite(_frame(0.0), _frame(0.0), np.zeros((4, 4)))

    @pytest.mark.parametrize("value", [1.5, -0.1, np.nan])
    def test_alpha_outside_unit_interval_refused(self, value):
        alpha = np.full((10, 10), 0.5)
        alpha[3, 4] = value
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            composite(_frame(1.0), _frame(0.0), alpha)


# each function that takes a matte, called with the matte under test in one
# argument and valid 2x2 inputs in the others
MATTE_TAKERS = {
    "matte_iou[pred]": lambda m: matte_iou(m, np.ones((2, 2))),
    "matte_iou[reference]": lambda m: matte_iou(np.ones((2, 2)), m),
    "transition_mask": lambda m: transition_mask(m, 1),
    "semantic_loss[prediction]": lambda m: semantic_loss(m, np.zeros((4, 4)), 2),
    "semantic_loss[reference]": lambda m: semantic_loss(np.zeros((1, 1)), m, 2),
    "detail_loss[prediction]": lambda m: detail_loss(m, np.zeros((2, 2)), np.ones((2, 2))),
    "detail_loss[reference]": lambda m: detail_loss(np.zeros((2, 2)), m, np.ones((2, 2))),
    "composite": lambda m: composite(_frame(1.0, (2, 2, 3)), _frame(0.0, (2, 2, 3)), m),
}
BAD_MATTES = {
    "nan": [[np.nan, 1.0], [0.0, 1.0]],
    "above_one": [[0.0, 1.0], [0.0, 2.0]],
    "below_zero": [[0.0, -0.5], [0.0, 1.0]],
    "infinite": [[0.0, 1.0], [np.inf, 1.0]],
    "three_d": np.zeros((2, 2, 3)),
}


@pytest.mark.parametrize("bad", sorted(BAD_MATTES))
@pytest.mark.parametrize("taker", sorted(MATTE_TAKERS))
def test_bad_matte_refused(taker, bad):
    with pytest.raises(ValueError, match=r"matte (must be 2-D|values must lie in \[0, 1\])"):
        MATTE_TAKERS[taker](np.array(BAD_MATTES[bad]))


@pytest.mark.parametrize("case", sorted(pins.MATTING_CASES))
@pytest.mark.parametrize("what", ("mattes", "transition_masks", "composite", "losses"))
def test_matting_pinned(what, case):
    pins.check(f"synthesis.{what}[{case}]")
