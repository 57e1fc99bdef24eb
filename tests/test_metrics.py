import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semvid.metrics import (
    MS_SSIM_WEIGHTS,
    PSNR_CAP_DB,
    SSIM_SIGMA,
    SSIM_WINDOW,
    ClipMsSsim,
    average_jaccard,
    epe,
    mse,
    ms_ssim,
    ms_ssim_min_side,
    pck,
    psnr,
)
from semvid.pipeline import video_quality
from semvid.video import VideoSequence

import pins

_FRAME16 = np.random.default_rng(123).random((16, 16))


def _const(v, shape=(8, 8, 3)):
    return np.full(shape, float(v))


class TestMse:
    def test_identical(self):
        f = _const(0.3)
        assert mse(f, f) == 0.0

    def test_max_contrast(self):
        assert mse(_const(0.0), _const(1.0)) == 1.0

    def test_constant_offset(self):
        assert mse(_const(0.0), _const(0.5)) == 0.25

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mse(_const(0.0), _const(0.0, shape=(4, 4, 3)))


class TestPsnr:
    def test_log_arithmetic(self):
        assert psnr(_const(0.0), _const(0.1)) == pytest.approx(20.0, abs=1e-9)

    def test_identical_capped(self):
        f = _const(0.7)
        assert psnr(f, f) == PSNR_CAP_DB

    def test_unit_mse(self):
        assert psnr(_const(0.0), _const(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_mse_relation(self, rng):
        for _ in range(20):
            a = rng.random((6, 6, 3))
            b = rng.random((6, 6, 3))
            assert abs(psnr(a, b) - 10 * np.log10(1.0 / mse(a, b))) < 1e-9


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y", "both"])
@pytest.mark.parametrize("metric", [mse, psnr, lambda x, y: ms_ssim(x, y, scales=2),
                                    lambda x, y: ClipMsSsim([x], 2).frame_scores([y])],
                         ids=["mse", "psnr", "ms_ssim", "clip_ms_ssim"])
def test_non_finite_frame_refused(metric, side, value):
    # as epe, pck and average_jaccard refuse non-finite input.  One sample,
    # in a corner, which the fewest MS-SSIM windows reach; on both sides, so
    # that inf - inf makes NaN
    good = _const(0.5, (22, 22, 3))
    bad = good.copy()
    bad[-1, -1, 2] = value
    x, y = {"x": (bad, good), "y": (good, bad), "both": (bad, bad)}[side]
    with pytest.raises(ValueError, match="finite"):
        metric(x, y)


def _reference_ssim_components(a, b):
    """Independent scalar implementation: explicit valid-window loops."""
    offs = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    k1d = np.exp(-0.5 * (offs / SSIM_SIGMA) ** 2)
    k1d /= k1d.sum()
    kernel = np.outer(k1d, k1d)
    h, w = a.shape
    lums, css = [], []
    c1, c2 = 0.01**2, 0.03**2
    for i in range(h - SSIM_WINDOW + 1):
        for j in range(w - SSIM_WINDOW + 1):
            wa = a[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
            wb = b[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
            mua = float((kernel * wa).sum())
            mub = float((kernel * wb).sum())
            va = float((kernel * wa * wa).sum()) - mua * mua
            vb = float((kernel * wb * wb).sum()) - mub * mub
            cov = float((kernel * wa * wb).sum()) - mua * mub
            lums.append((2 * mua * mub + c1) / (mua**2 + mub**2 + c1))
            css.append((2 * cov + c2) / (va + vb + c2))
    return float(np.mean(lums)), float(np.mean(css))


def _reference_ms_ssim(a, b, scales):
    from semvid.video import box_downsample

    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    values = []
    for ch in range(a.shape[2]):
        ca, cb = a[:, :, ch], b[:, :, ch]
        cs_terms = []
        lum = 1.0
        for level in range(scales):
            lum, cs = _reference_ssim_components(ca, cb)
            cs_terms.append(max(cs, 0.0))
            if level < scales - 1:
                ca = box_downsample(ca, 2)
                cb = box_downsample(cb, 2)
        score = max(lum, 0.0) ** weights[-1]
        for wgt, cs in zip(weights[:-1], cs_terms[:-1]):
            score *= cs**wgt
        score *= cs_terms[-1] ** weights[-1]
        values.append(score)
    return float(np.mean(values))


class TestMsSsim:
    def test_identical(self, rng):
        f = rng.random((48, 48, 3))
        assert ms_ssim(f, f, scales=2) == 1.0

    def test_symmetric(self, rng):
        a = rng.random((48, 48, 3))
        b = rng.random((48, 48, 3))
        assert ms_ssim(a, b, scales=2) == ms_ssim(b, a, scales=2)

    def test_inverted_frame_low_similarity(self):
        # fixed structured test image; oracle is the scalar loop implementation
        ys, xs = np.mgrid[0:48, 0:48] / 48.0
        img = np.stack([0.2 + 0.6 * xs, 0.5 + 0.4 * np.sin(6 * ys), 0.3 + 0.5 * xs * ys], axis=-1)
        a = np.clip(img, 0, 1)
        b = 1.0 - a
        got = ms_ssim(a, b, scales=2)
        ref = _reference_ms_ssim(a, b, scales=2)
        assert got < 0.3
        assert got == pytest.approx(ref, abs=1e-7)

    def test_matches_reference_on_random_pair(self, rng):
        a = rng.random((30, 30, 3))
        b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1)
        got = ms_ssim(a, b, scales=1)
        ref = _reference_ms_ssim(a, b, scales=1)
        assert got == pytest.approx(ref, abs=1e-7)

    def test_too_small_frames_named_minimum(self):
        f = np.zeros((32, 32, 3))
        with pytest.raises(ValueError, match=str(SSIM_WINDOW * 2**4)):
            ms_ssim(f, f, scales=5)

    def test_min_side_is_the_edge_of_the_refusal(self):
        assert [ms_ssim_min_side(s) for s in range(1, 6)] == [11, 22, 44, 88, 176]
        for scales in range(1, 6):
            side = ms_ssim_min_side(scales)
            assert 0 <= ms_ssim(_const(0.5, (side, side, 3)), _const(0.5, (side, side, 3)), scales)
            with pytest.raises(ValueError, match=f"need at least {side} pixels"):
                ms_ssim(_const(0.5, (side - 1, side, 3)), _const(0.5, (side - 1, side, 3)), scales)

    @pytest.mark.parametrize("shape", [(48,), (16, 48, 48, 3)])
    def test_refuses_frames_of_another_rank(self, shape):
        x = np.zeros(shape)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")) as err:
            ms_ssim(x, x, scales=1)
        assert "reference clip" not in str(err.value)

    def test_scores_pinned_bit_for_bit(self):
        assert len(pins.ms_ssim_scores()) == 120
        pins.check("metrics.ms_ssim_scores")

    # a frame against itself, against its complement, and two constant
    # frames at the ends of the range: pairs that random draws never give
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(pair=hnp.arrays(np.float64, (2, 16, 16), elements=st.floats(0.0, 1.0)))
    @example(pair=np.stack([_FRAME16, _FRAME16]))
    @example(pair=np.stack([_FRAME16, 1.0 - _FRAME16]))
    @example(pair=np.stack([np.zeros((16, 16)), np.ones((16, 16))]))
    def test_range_on_random_pairs(self, pair):
        score = ms_ssim(pair[0], pair[1], scales=1)
        assert 0.0 <= score <= 1.0
        if np.array_equal(pair[0], pair[1]):
            assert score == 1.0


def _noisy_clip_pair(shape, seed):
    """A random reference clip and a noisy copy of it, in [0, 1]."""
    rng = np.random.default_rng(seed)
    ref = rng.random(shape)
    return ref, np.clip(ref + 0.2 * rng.standard_normal(shape), 0.0, 1.0)


def _score_clip(score, reference, clip, scales):
    """Frame scores of ``clip`` against ``reference``: cached by
    ``ClipMsSsim``, or one-shot, pair by pair, as ``video_quality`` scores."""
    if score == "cached":
        return ClipMsSsim(reference, scales).frame_scores(clip)
    return [ms_ssim(a, b, scales) for a, b in zip(reference, clip)]


class TestClipMsSsim:
    """The clip path must give per-pair ``ms_ssim`` bit for bit."""

    @pytest.mark.parametrize("shape, scales", [
        ((3, 45, 37, 3), 1),
        ((3, 45, 37, 3), 2),   # 45x37 -> 23x19: edge-padded on both axes
        ((2, 97, 89, 3), 3),   # 97x89 -> 49x45 -> 25x23: padded at every level
        ((4, 45, 37), 2),      # one channel
        ((2, 97, 89), 3),
    ])
    def test_frame_scores_equal_ms_ssim(self, shape, scales):
        ref, rec = _noisy_clip_pair(shape, seed=sum(shape) + scales)
        scorer = ClipMsSsim(ref, scales)
        for clip in (rec, ref, 1.0 - ref):
            want = [ms_ssim(a, b, scales=scales).hex() for a, b in zip(ref, clip)]
            assert [x.hex() for x in scorer.frame_scores(clip)] == want
            assert [x.hex() for x in scorer.frame_scores(list(clip))] == want

    def test_reference_reused_across_clips(self):
        ref, rec = _noisy_clip_pair((2, 40, 40, 3), seed=1)
        scorer = ClipMsSsim(ref, 2)
        first = scorer.frame_scores(rec)
        scorer.frame_scores(1.0 - rec)
        assert scorer.frame_scores(rec) == first

    @pytest.mark.parametrize("score", ["cached", "one-shot"])
    def test_length_mismatch_names_both_lengths(self, score):
        ref, rec = _noisy_clip_pair((4, 24, 24, 3), seed=2)
        with pytest.raises(ValueError, match="4 frames.*has 3"):
            if score == "cached":
                ClipMsSsim(ref, 1).frame_scores(rec[:3])
            else:
                video_quality(*(VideoSequence(c, 8.0) for c in (ref, rec[:3])), 1)

    @pytest.mark.parametrize("score", ["cached", "one-shot"])
    def test_frame_shape_mismatch_names_both_shapes(self, score):
        ref, _ = _noisy_clip_pair((2, 24, 24, 3), seed=3)
        with pytest.raises(ValueError, match=r"\(24, 24, 3\) vs \(24, 30, 3\)"):
            _score_clip(score, ref, np.zeros((2, 24, 30, 3)), 1)
        with pytest.raises(ValueError, match=r"\(24, 24, 3\) vs \(24, 24\)"):
            _score_clip(score, ref, np.zeros((2, 24, 24)), 1)
        # one odd frame in a list of frames
        with pytest.raises(ValueError, match=r"\(24, 24, 3\) vs \(24, 30, 3\)"):
            _score_clip(score, ref, [ref[0], np.zeros((24, 30, 3))], 1)

    def test_reference_frames_must_share_a_shape(self):
        with pytest.raises(ValueError, match="one .* shape"):
            ClipMsSsim([np.zeros((24, 24, 3)), np.zeros((24, 30, 3))], 1)
        with pytest.raises(ValueError, match="one .* shape"):
            ClipMsSsim(np.zeros((2, 24)), 1)

    def test_too_small_frames_named_minimum(self):
        with pytest.raises(ValueError, match=str(SSIM_WINDOW * 2**2)):
            ClipMsSsim(np.zeros((2, 40, 40, 3)), 3)


class TestPointMetrics:
    def test_epe_identical(self):
        pts = [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert epe(pts, pts) == 0.0

    def test_epe_uniform_translation(self):
        gt = np.zeros((5, 3))
        pred = gt + [0.03, 0.0, 0.0]
        assert epe(pred, gt) == pytest.approx(0.03)

    def test_epe_mean(self):
        gt = np.zeros((2, 3))
        pred = np.array([[0.1, 0, 0], [0.3, 0, 0]])
        assert epe(pred, gt) == pytest.approx(0.2)

    def test_epe_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            epe(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_pck_identical(self):
        pts = np.random.default_rng(0).random((4, 3))
        assert pck(pts, pts, 0.01) == 1.0

    def test_pck_threshold_straddle(self):
        gt = np.zeros((4, 3))
        pred = gt + [0.07, 0.0, 0.0]
        assert pck(pred, gt, 0.05) == 0.0
        assert pck(pred, gt, 0.10) == 1.0

    def test_pck_half(self):
        gt = np.zeros((4, 3))
        pred = gt.copy()
        pred[:2, 0] = 0.2
        assert pck(pred, gt, 0.1) == 0.5

    def test_pck_strict_inequality(self):
        gt = np.zeros((1, 3))
        pred = np.array([[0.05, 0.0, 0.0]])
        assert pck(pred, gt, 0.05) == 0.0

    @pytest.mark.parametrize("tau", [0.0, -0.1, float("nan")])
    def test_pck_tau_must_be_positive(self, tau):
        # NaN compares False to everything, so it must not slip past as "not <= 0"
        pts = np.zeros((2, 3))
        with pytest.raises(ValueError, match="tau must be positive"):
            pck(pts, pts, tau)

    def test_permutation_invariance(self, rng):
        pred = rng.random((6, 3))
        gt = rng.random((6, 3))
        perm = rng.permutation(6)
        assert epe(pred[perm], gt[perm]) == pytest.approx(epe(pred, gt))
        assert pck(pred[perm], gt[perm], 0.3) == pck(pred, gt, 0.3)


class TestAverageJaccard:
    def test_identical(self):
        boxes = np.array([[0.0, 0.0, 2.0, 2.0], [1.0, 1.0, 4.0, 3.0]])
        assert average_jaccard(boxes, boxes) == 1.0

    def test_disjoint(self):
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        b = np.array([[5.0, 5.0, 6.0, 6.0]])
        assert average_jaccard(a, b) == 0.0

    def test_half_shift(self):
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        b = np.array([[0.5, 0.0, 1.5, 1.0]])
        assert average_jaccard(a, b) == pytest.approx(1.0 / 3.0)

    def test_zero_union_warns(self):
        degenerate = np.array([[1.0, 1.0, 1.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert average_jaccard(degenerate, degenerate) == 0.0
        assert caught

    def test_mismatch(self):
        with pytest.raises(ValueError):
            average_jaccard(np.zeros((1, 4)), np.zeros((2, 4)))

    def test_empty_box_sets_rejected(self):
        # as epe and pck refuse empty point sets; the mean of no IoUs is NaN
        with pytest.raises(ValueError, match="non-empty"):
            average_jaccard(np.zeros((0, 4)), np.zeros((0, 4)))

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            average_jaccard(np.array([[1.0, 0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, 1.0, 1.0]]))

    @pytest.mark.parametrize("box", [[np.nan, 0, 1, 1], [0, 0, np.inf, 1], [-np.inf, 0, 1, 1]])
    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_non_finite_box_refused(self, box, side):
        # as epe and pck refuse non-finite points; each box passes min <= max
        bad, good = np.array([box]), np.array([[0.0, 0.0, 1.0, 1.0]])
        pred, gt = (bad, good) if side == "pred" else (good, bad)
        with pytest.raises(ValueError, match="finite"):
            average_jaccard(pred, gt)

    def test_permutation_invariance(self, rng):
        lo = rng.random((5, 2))
        a = np.hstack([lo, lo + rng.random((5, 2))])
        lo2 = rng.random((5, 2))
        b = np.hstack([lo2, lo2 + rng.random((5, 2))])
        perm = rng.permutation(5)
        assert average_jaccard(a[perm], b[perm]) == pytest.approx(average_jaccard(a, b))
