"""The pin registry: every exact value the tests pin, by name.

``TABLE`` maps a pin's name to a function of no arguments that computes
its value, and ``pins.json`` holds the values recorded from it: a SHA-256
(``sha256``) or, where one computation gives several, a dict of them and
of the exact values that go with them (a send's ``TxStats``, optimizer
counts).  The tests only compare (``check``); ``record_pins.py`` is the
only writer.  The module imports without pytest.
"""

import hashlib
import io
import json
import tempfile
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict, replace
from functools import cache, lru_cache, partial
from pathlib import Path
from unittest import mock

import numpy as np

from semvid import (channel, classical, cli, config, fixtures, ldpc, metrics, pipeline, semantic,
                    synthesis)
from semvid.recon import fit, save_scene
from semvid.video import VideoSequence, box_downsample, save_raw

from scenes import make_gradient_check_scene, mutable_params

PINS_FILE = Path(__file__).with_name("pins.json")
SEMANTIC_CFG = semantic.SemanticCodecConfig()
# budgets around the common map's size (n_common), a service-sized one and
# ten times every element
SEMANTIC_BUDGETS = ("100", "n_common", "n_common+1", "18000", "10*total")
CODER_CLIPS = {
    "reference": (112, 112, 8, 8.0, 2024),  # the reference config's user clip
    "40x24": (40, 24, 3, 8.0, 9),           # not a multiple of the macroblock
}
CODER_QPS = (1.0, 5.0, 16.0)
CODE_KEYS = ((512, 11), (256, 11), (128, 5), (64, 3), (72, 3), (512, 2024), (512, 2031),
             (1024, 11))
CODE_FIELDS = ("parity_check", "check_neighbors", "var_edge_check", "var_edge_slot",
               "info_positions", "parity_positions", "encode_matrix")
# the -10 dB blocks fail the channel pre-test, the 0 dB ones pass it and
# never converge, the 2 and 5 dB ones converge part-way
MIXED_SNRS_DB = (-10.0, -10.0, 0.0, 0.0, 2.0, 2.0, 5.0, 5.0)
# the settings that switch each early exit of LDPC BP off: a pre-test every
# block passes, a ceiling of all 512 checks per 512, a stall count no block
# reaches in 50 iterations
EXITS_OFF = {"pretest": {"PRETEST_MEAN": 0.0}, "ceiling": {"COUNT_CEILINGS": (512,)},
             "stall": {"STALL_ITERS": 50}}
WATERFALL_SNRS_DB = (1.5, 2.0)  # some of the reference clip's 1,026 LDPC blocks fail
MULTI_GOP_SENDS = tuple((chain, snr) for chain in ("classical", "semantic")
                        for snr in (0.0, 2.0, 25.0))


def sha256(*parts) -> str:
    """SHA-256 of the concatenated parts: bytes as they are, anything else
    as the bytes of a C-contiguous array of it."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def noise_gop(seed=42, n=4, size=64):
    """``n`` smoothed-noise frames, quantized to 8 bits."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        x = rng.standard_normal((size, size, 3))
        for _ in range(2):
            x = (np.roll(x, 1, 0) + np.roll(x, -1, 0) + np.roll(x, 1, 1) + np.roll(x, -1, 1) + 4 * x) / 8
        frames.append(np.clip(0.5 + 0.25 * x / np.abs(x).std(), 0, 1))
    return VideoSequence(np.round(np.stack(frames) * 255) / 255, 8.0)


# GOPs of 3 to 16 frames; "noise50" and "clip12x50" are odd-sized, so
# their frames are padded
SEMANTIC_GOPS = {
    "reference": partial(fixtures.make_test_clip, 112, 112),
    "noise50": partial(noise_gop, n=3, size=50),
    "clip16x64": partial(fixtures.make_test_clip, 64, 64, 16),
    "clip12x50": partial(fixtures.make_test_clip, 50, 50, 12),
}


def semantic_chain(gop_name, budget):
    """What ``prepare_semantic`` sends (both masks, the symbols and their
    rms, the locations, the scales, the side-information bits), and the
    frames ``transmit_packet`` gives at three SNRs."""
    gop = SEMANTIC_GOPS[gop_name]()
    latent = semantic.latent_transform(gop, SEMANTIC_CFG)
    common, individual = semantic.extract_common(semantic.jscc_encode(latent, SEMANTIC_CFG))
    n_common, total = common.size, common.size + individual.size
    symbols = {"100": 100, "n_common": n_common, "n_common+1": n_common + 1,
               "18000": 18000, "10*total": 10 * total}[budget]
    p = semantic.prepare_semantic(gop, symbols, SEMANTIC_CFG)
    pin = {"packet": sha256(p.kept_common, p.kept_individual, p.symbols,
                            np.float64(p.rms), p.locations, p.scales,
                            np.int64(p.side_info_bits))}
    for snr in (-10.0, 5.0, 300.0):
        received, _ = semantic.transmit_packet(p, snr, 5, SEMANTIC_CFG)
        pin[f"snr{snr}"] = sha256(received)
    return pin


def classical_coder(clip, qp):
    """The bits and block map; the clean decode; a decode with every 7th
    512-bit block flagged corrupted; and one with every 997th bit flipped
    and nothing flagged, so the parser meets the damage.  Both damaged
    decodes conceal from the GOP's last frame."""
    gop = fixtures.make_test_clip(*CODER_CLIPS[clip])
    bs = classical.source_encode(gop, qp)
    n = bs.bit_length
    corrupted = [(b, min(b + 512, n)) for b in range(0, n, 7 * 512)]
    flipped = bs.bits.copy()
    flipped[::997] ^= 1
    decodes = {"clean": (bs,), "flagged": (bs, corrupted, gop.frames[-1]),
               "flipped": (replace(bs, bits=flipped), None, gop.frames[-1])}
    return {"stream": sha256(bs.bits, bs.block_map),
            **{name: sha256(classical.source_decode(*args))
               for name, args in decodes.items()}}


def code_arrays(k, seed):
    """Each array of the code, after its name, dtype and shape."""
    code = ldpc.make_ldpc_code(k, seed)
    parts = []
    for name in CODE_FIELDS:
        arr = getattr(code, name)
        parts += [name.encode(), str(arr.dtype).encode(), str(arr.shape).encode(), arr]
    return sha256(*parts)


def noisy_llrs(code, snrs_db, seed):
    """One block per SNR: random info bits, BPSK over AWGN, channel LLRs."""
    info = np.random.default_rng(seed).integers(0, 2, code.k * len(snrs_db)).astype(np.uint8)
    coded = ldpc.ldpc_encode(info, code).reshape(len(snrs_db), -1)
    llrs = []
    for b, snr in enumerate(snrs_db):
        received = channel.awgn(ldpc.bpsk_modulate(coded[b]), snr, b)
        llrs.append(ldpc.bpsk_demodulate(received, channel.noise_variance(snr)))
    return np.concatenate(llrs)


@cache
def mixed_llrs():
    return noisy_llrs(ldpc.make_ldpc_code(512, 11), MIXED_SNRS_DB, seed=2024)


def mixed_batch(early_exits):
    """The decoded mixed batch and its converged flags.  Without the early
    exits every block runs every iteration until its syndrome clears."""
    with exits_off(*([] if early_exits else EXITS_OFF)):
        return sha256(*ldpc.ldpc_decode(mixed_llrs(), ldpc.make_ldpc_code(512, 11),
                                        max_iters=50))


def exits_off(*names):
    """Patch ``ldpc`` so that the early exits of BP in ``names`` (keys of
    ``EXITS_OFF``) never fire; the syndrome check always does."""
    patches = {key: value for name in names for key, value in EXITS_OFF[name].items()}
    return mock.patch.multiple(ldpc, **patches) if patches else nullcontext()


@cache
def reference_clip(chain, gop_size):
    """The reference config with GOPs of ``gop_size``, and its clip prepared."""
    base = config.reference_config()
    cfg = replace(base, semantic=replace(base.semantic, gop_size=gop_size))
    return cfg, pipeline.prepare_clip(pipeline.resolve_video(cfg.video), chain, cfg)


@lru_cache(maxsize=1)  # a test's send, reused by its check
def reference_send(chain, gop_size, snr_db, label):
    """A send of ``reference_clip``; ``semvid transmit`` draws its channel
    seeds under the label "cli".  As GOPs of 3, 3 and 2 frames at 0 dB the
    classical chain loses every LDPC block, so every frame is concealed
    gray; at 2 dB it loses some, and GOPs 2 and 3 conceal them from the
    previous GOP's last frame."""
    cfg, clip = reference_clip(chain, gop_size)
    return pipeline.send(clip, cfg, snr_db, chain, label, f"{snr_db:.3f}")


def sent(*send_args):
    """The received frames and the ``TxStats`` of ``reference_send``."""
    received, stats = reference_send(*send_args)
    return {"frames": sha256(received.frames), "stats": asdict(stats)}


def service_reports_without_fit():
    """The service report when the scene fit does not run, so no fit floats
    go in: disabled in the config, or never reached as compositing raises."""
    ref = config.reference_config()
    disabled = pipeline.run_service(
        replace(ref, reconstruction=replace(ref.reconstruction, enabled=False)))
    with mock.patch.object(pipeline, "composite", side_effect=ValueError("boom")):
        raising = pipeline.run_service(ref)
    return {"reconstruction_disabled": sha256(disabled.to_json().encode()),
            "composite_raises": sha256(raising.to_json().encode())}


# at the reference settings the matte is binary and equals the truth, so
# the losses are 0 and the IoU 1; the non-square case's softer ramp gives
# soft mattes
MATTING_CASES = {
    "64x64": (64, 64, config.reference_config().synthesis),
    "50x40": (50, 40, config.SynthesisSettings(threshold=0.3, softness=0.25)),
}


@cache
def matting(case):
    """The 8-frame matting set of ``case`` matted against its plate and
    composited over the background clip, without a channel: the clip, the
    background, the ground-truth mattes, the estimated mattes, the
    composite and the settings."""
    width, height, syn = MATTING_CASES[case]
    user, plate, gt = fixtures.make_matting_set(width, height, 8)
    background = fixtures.make_background_clip(width, height, 8, 8.0, 55)
    mattes, comp = pipeline.matte_composite(user, background, plate, syn)
    return user, background, gt, mattes, comp, syn


def matting_mattes(case):
    return sha256(matting(case)[3])


def matting_masks(case):
    """The transition masks of the ground-truth and the estimated mattes."""
    _, _, gt, mattes, _, syn = matting(case)
    return sha256([synthesis.transition_mask(m, syn.radius) for m in gt + mattes])


def matting_composite(case):
    return sha256(matting(case)[4].frames)


def matting_losses(case):
    """``float.hex`` of each frame's matte IoU and semantic, detail and
    fusion losses against the ground truth, as the service computes them."""
    user, background, gt, mattes, _, syn = matting(case)
    f = syn.downsample_factor
    losses = {"matte_iou": [], "semantic": [], "detail": [], "fusion": []}
    for i, (m, g) in enumerate(zip(mattes, gt)):
        thumb = box_downsample(m, f)
        losses["matte_iou"].append(synthesis.matte_iou(m, g))
        losses["semantic"].append(synthesis.semantic_loss(thumb, g, f))
        losses["detail"].append(
            synthesis.detail_loss(m, g, synthesis.transition_mask(g, syn.radius)))
        losses["fusion"].append(
            synthesis.fusion_loss(m, g, user.frames[i], background.frames[i]))
    return {name: [x.hex() for x in values] for name, values in losses.items()}


def video_fixtures():
    """The synthetic clips at the reference config's sizes (the test clip;
    the matting set's clip, plate and mattes; the background clip), the
    frames and depths ``make_fit_inputs`` renders for the reference fit,
    and the two files ``save_raw`` writes for the test clip."""
    ref = config.reference_config()
    test_clip = pipeline.resolve_video(ref.video)
    user, plate, mattes = pipeline.user_clip(ref.user_video)
    background = pipeline.resolve_video(ref.background_video)
    rc = ref.reconstruction
    frames, depths, _ = fixtures.make_fit_inputs(
        fixtures.make_benchmark_scene(rc.n_timesteps, rc.image_size, rc.n_bases), rc.n_tracks)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.rgb"
        save_raw(test_clip, path)
        raw = {"raw_rgb": sha256(path.read_bytes()),
               "raw_json": sha256(path.with_suffix(".json").read_bytes())}
    return {"test_clip": sha256(test_clip.frames),
            "matting_clip": sha256(user.frames),
            "matting_plate": sha256(plate),
            "matting_mattes": sha256(mattes),
            "background_clip": sha256(background.frames),
            "fit_frames": sha256(frames),
            "fit_depths": sha256(depths),
            **raw}


def show_config_output():
    """The reference config file's keys, defaults and layout."""
    with redirect_stdout(io.StringIO()) as out:
        cli.main(["show-config"])
    return sha256(out.getvalue().encode())


def track_weights(case):
    """The reference fit's track assignments (benchmark scene, 4 tracks,
    assigned on its perturbed start), or the gradient check scene's (2)."""
    if case == "reference":
        gt = fixtures.make_benchmark_scene(8, 48, 20)
        scene, n_tracks = fixtures.perturb_scene(gt, 5), 4
    else:
        gt = scene = make_gradient_check_scene()
        n_tracks = 2
    _, _, tracks = fixtures.make_fit_inputs(gt, n_tracks)
    return sha256(fit.track_assignments(scene, tracks.query_pixels))


def scene_file():
    """The benchmark scene's file; it holds exact constants only, so it does
    not depend on the platform's libm."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        save_scene(fixtures.make_benchmark_scene(), path)
        return sha256(path.read_bytes())


class L1Objective:
    """A stand-in for the fit objective that calls no BLAS: the L1 distance
    of the parameters to ``target`` (``np.abs``, ``np.sum`` and ``np.sign``
    only), so a fit against it gives the same bits under every BLAS
    kernel."""

    def __init__(self, target):
        self.target = target

    def forward(self, params):
        total = 0.0
        for key in fit.PARAM_KEYS:
            total += float(np.sum(np.abs(params[key] - self.target[key])))
        return total, "placeholder"

    def backward(self, params, fwd) -> dict:
        return {key: np.sign(params[key] - self.target[key]) for key in fit.PARAM_KEYS}


@cache
def l1_fit(max_backtracks):
    """80 iterations of the optimizer against ``L1Objective``, with a target
    beyond the upper and the lower edges of the box."""
    gt = fixtures.make_benchmark_scene(8, 48, 20)
    target = mutable_params(gt)
    target["opacities"][:] = 1.0            # above 1 - OPACITY_EPS
    target["colors"][0, 2] = -0.25          # below 0
    target["scales"][0, 2] = fit.SCALE_FLOOR / 10
    target["means"] += 0.03
    target["coeffs"][:, 0] += 0.2
    target["basis_trans"] -= 0.01
    n = gt.n_timesteps
    with (mock.patch.object(fit, "_Objective", lambda *args: L1Objective(target)),
          mock.patch.object(fit, "LEARNING_RATES", {k: 0.05 for k in fit.PARAM_KEYS}),
          mock.patch.object(fit, "MAX_BACKTRACKS", max_backtracks)):
        return fit.fit_scene([None] * n, [None] * n, None, fixtures.perturb_scene(gt, seed=5), 80)


def fit_bits(result):
    """A fit's counts, and a digest of its losses, fitted arrays and counts."""
    counts = f"{result.backtracks} {result.rejected_steps}"
    return {"backtracks": result.backtracks, "rejected_steps": result.rejected_steps,
            "bits": sha256(" ".join(x.hex() for x in result.losses).encode(),
                           *(getattr(result.scene, key) for key in fit.PARAM_KEYS),
                           counts.encode())}


@cache
def reference_fit_inputs():
    """The reference config's fit: its frames, depths and tracks, and its
    perturbed start."""
    rc = config.reference_config().reconstruction
    gt = fixtures.make_benchmark_scene(rc.n_timesteps, rc.image_size, rc.n_bases)
    frames, depths, tracks = fixtures.make_fit_inputs(gt, rc.n_tracks)
    return frames, depths, tracks, fixtures.perturb_scene(gt, rc.perturb_seed)


def objective_pass():
    """One forward and one backward pass of the real objective at the
    reference fit's start: the loss, every frame's image and depth, and
    the flat gradient."""
    frames, depths, tracks, start = reference_fit_inputs()
    objective = fit._Objective(frames, depths, tracks, start)
    params = mutable_params(start)
    loss, fwd = objective.forward(params)
    grads = objective.backward(params, fwd)
    return sha256(np.float64(loss), *(a for frame in fwd["frames"]
                                      for a in (frame["image"], frame["depth"])),
                  fit._flatten(grads))


def short_fit():
    """The reference inputs fitted for 20 iterations, as :func:`fit_bits`."""
    frames, depths, tracks, start = reference_fit_inputs()
    return fit_bits(fit.fit_scene(frames, depths, tracks, start, 20))


@cache
def ms_ssim_scores():
    """``ms_ssim(...).hex()`` of a fixed battery of calls: one- and
    three-channel frames of even and odd sizes at every scale count they
    allow, as ndarrays and as a clip's frame views, against a noisy copy, a
    blurred-looking copy, an inverted copy and the frame itself."""
    scores = []
    for seed, shape in enumerate([(24, 24), (45, 37), (45, 37, 3), (97, 89), (97, 89, 3),
                                  (181, 177, 3)]):
        rng = np.random.default_rng(seed)
        a = rng.random(shape)
        others = (np.clip(a + 0.1 * rng.standard_normal(shape), 0.0, 1.0),
                  0.5 * (a + np.roll(a, 1, axis=0)), 1.0 - a, a)
        max_scales = int(np.log2(min(shape[:2]) / metrics.SSIM_WINDOW)) + 1
        for scales in range(1, min(max_scales, len(metrics.MS_SSIM_WEIGHTS)) + 1):
            for b in others:
                scores.append(metrics.ms_ssim(a, b, scales).hex())
                if a.ndim == 3:
                    a_view, b_view = (VideoSequence(x[None], 8.0).frames[0] for x in (a, b))
                    scores.append(metrics.ms_ssim(a_view, b_view, scales).hex())
    return scores


def ms_ssim_digest():
    return sha256("\n".join(ms_ssim_scores()).encode())


TABLE = {
    **{f"semantic.chain[{gop},{budget}]": partial(semantic_chain, gop, budget)
       for gop in SEMANTIC_GOPS for budget in SEMANTIC_BUDGETS},
    **{f"classical.coder[{clip},{qp}]": partial(classical_coder, clip, qp)
       for clip in CODER_CLIPS for qp in CODER_QPS},
    **{f"ldpc.code[{k},{seed}]": partial(code_arrays, k, seed) for k, seed in CODE_KEYS},
    # one value today, under two names, so that a change to the stall exit
    # can move one and not the other
    "ldpc.mixed_batch": partial(mixed_batch, True),
    "ldpc.mixed_batch_without_stall_exit": partial(mixed_batch, False),
    **{f"pipeline.waterfall[{snr}]": partial(sent, "classical", 8, snr, "cli")
       for snr in WATERFALL_SNRS_DB},
    **{f"pipeline.multi_gop[{chain},{snr}]": partial(sent, chain, 3, snr, "multi_gop")
       for chain, snr in MULTI_GOP_SENDS},
    "pipeline.service_reports_without_fit": service_reports_without_fit,
    **{f"synthesis.{what}[{case}]": partial(row, case)
       for what, row in (("mattes", matting_mattes), ("transition_masks", matting_masks),
                         ("composite", matting_composite), ("losses", matting_losses))
       for case in MATTING_CASES},
    "video.fixtures": video_fixtures,
    "cli.show_config": show_config_output,
    **{f"recon.track_assignments[{case}]": partial(track_weights, case)
       for case in ("reference", "gradient_check")},
    "recon.scene_file": scene_file,
    **{f"recon.l1_fit[{n}]": lambda n=n: fit_bits(l1_fit(n)) for n in (1, 3)},
    "recon.objective_pass": objective_pass,
    "recon.short_fit": short_fit,
    "metrics.ms_ssim_scores": ms_ssim_digest,
}


def check(name: str) -> None:
    """Compute the pin ``name`` and compare it with its value in ``pins.json``."""
    assert TABLE[name]() == json.loads(PINS_FILE.read_text()).get(name)
