import hashlib
import json
import re
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

import semvid
import semvid.classical
import semvid.ldpc
import semvid.recon
import semvid.semantic
from semvid.channel import ChannelConfig
from semvid.cli import main as cli_main
from semvid.config import (
    ClassicalSettings,
    LinkSettings,
    NodeSettings,
    VideoSource,
    ReconSettings,
    config_from_dict,
    config_to_dict,
    load_config,
    reference_config,
    save_config,
)
import semvid.pipeline
from semvid.metrics import ClipMsSsim, ms_ssim, psnr
from semvid.semantic import SemanticCodecConfig
from semvid.pipeline import (
    compare_baselines,
    prepare_clip,
    resolve_video,
    run_service,
    send,
    snr_sweep,
    stage_latency,
    transmit_video,
    video_quality,
)
from semvid.video import Frame, VideoSequence, load_raw, save_raw


def _float_leaves(node, path=()):
    """Key paths to the float leaves of a config dict, list elements included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float):
            yield path + (key,)
        elif isinstance(value, (dict, list)):
            yield from _float_leaves(value, path + (key,))


FLOAT_LEAVES = list(_float_leaves(config_to_dict(reference_config())))


@pytest.mark.parametrize("module", [semvid, semvid.recon], ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.fixture(scope="module")
def tiny_config():
    """A configuration small enough for fast unit tests."""
    base = reference_config()
    return replace(
        base,
        video=VideoSource(width=48, height=48, frames=4, seed=9),
        user_video=VideoSource(variant="matting", width=48, height=48, frames=4, seed=77),
        background_video=VideoSource(variant="background", width=48, height=48, frames=4, seed=55),
        sweep_snrs_db=(0.0, 25.0),
        classical=ClassicalSettings(qp=5.0, ldpc_k=256, ldpc_seed=11),
        semantic=replace(base.semantic, symbol_budget=200, service_symbol_budget=4000, gop_size=4),
        reconstruction=ReconSettings(enabled=True, image_size=32, n_timesteps=4, iterations=25),
        metrics=replace(base.metrics, ms_ssim_scales=2),
    )


class TestStageLatency:
    def _link(self, bps):
        return LinkSettings(bps)

    def _node(self, flops):
        return NodeSettings(flops)

    def test_transmission_only(self):
        assert stage_latency(8e6, self._link(1e6), 0.0, self._node(1e12)) == pytest.approx(8.0)

    def test_compute_only(self):
        assert stage_latency(0.0, self._link(1e6), 10e12, self._node(10e12)) == pytest.approx(1.0)

    def test_reference_throughput_reproduces_published_delay(self):
        cfg = reference_config()
        delay = stage_latency(11.5e6 * 8, cfg.links.wireless, 0.0, self._node(1e12))
        assert delay == pytest.approx(5718.0, abs=1e-6)

    def test_linear_in_payload(self):
        link = self._link(2.5e5)
        node = self._node(1e12)
        base = stage_latency(1e6, link, 0.0, node)
        for k in (2, 5, 10):
            assert stage_latency(k * 1e6, link, 0.0, node) == pytest.approx(k * base)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stage_latency(-1.0, self._link(1e6), 0.0, self._node(1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSettings(0.0)
        with pytest.raises(ValueError):
            LinkSettings(0.0)
        with pytest.raises(ValueError, match="nodes.fog"):
            config_from_dict({"nodes": {"fog": {"flops": 1e12}}})
        with pytest.raises(ValueError, match="links.carrier-pigeon"):
            config_from_dict({"links": {"carrier-pigeon": {"throughput_bps": 1e6}}})
        with pytest.raises(ValueError, match="links.fiber"):
            config_from_dict({"links": {"fiber": {"throughput_bps": 0.0}}})


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = reference_config()
        path = tmp_path / "config.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"never_heard_of_it": 1})

    def test_dict_round_trip(self):
        cfg = reference_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_reference_values(self):
        cfg = reference_config()
        assert cfg.links.wireless.throughput_bps == pytest.approx(11.5e6 * 8 / 5718.0)
        assert cfg.nodes.end.flops == pytest.approx(1.35e12)
        assert cfg.compute.scene_preprocess_flops == pytest.approx(53e15)
        assert cfg.semantic.bits_per_symbol_eq == 32

    def test_partial_nodes_and_links_merge(self):
        ref = reference_config()
        cfg = config_from_dict({"nodes": {"end": {"flops": 2e12}},
                                "links": {"wireless": {"throughput_bps": 1e5}}})
        assert cfg.nodes == replace(ref.nodes, end=NodeSettings(2e12))
        assert cfg.links == replace(ref.links, wireless=LinkSettings(1e5))

    def test_configs_share_no_mutable_state(self):
        cfg = reference_config()
        other = replace(cfg, seed=3)
        with pytest.raises(FrozenInstanceError):
            other.nodes.end = NodeSettings(1.0)
        with pytest.raises(FrozenInstanceError):
            other.links.wireless = LinkSettings(1.0)
        assert cfg.nodes.end == NodeSettings(1.35e12)
        assert hash(cfg) == hash(reference_config())
        assert len({cfg, other, reference_config()}) == 2

    def test_partial_section_keeps_other_fields(self):
        ref = reference_config()
        cfg = config_from_dict({"semantic": {"symbol_budget": 100}})
        assert cfg.semantic == replace(ref.semantic, symbol_budget=100)
        assert cfg.semantic.gop_size == 8

    def test_misspelt_nested_key_named(self):
        with pytest.raises(ValueError, match=r"semantic\.symbol_budgt"):
            config_from_dict({"semantic": {"symbol_budgt": 100}})
        with pytest.raises(ValueError, match=r"user_video\.widht"):
            config_from_dict({"user_video": {"widht": 10}})

    def test_bad_values_rejected_at_load(self):
        with pytest.raises(ValueError, match="variant"):
            config_from_dict({"video": {"variant": "cartoon"}})
        with pytest.raises(ValueError, match="sweep_snrs_db"):
            config_from_dict({"sweep_snrs_db": []})
        with pytest.raises(ValueError, match="semantic"):
            config_from_dict({"semantic": {"gop_size": 0}})
        with pytest.raises(ValueError, match="snr_db"):
            config_from_dict({"snr_db": float("nan")})
        # finite, but 10**(-snr_db / 10) would overflow
        with pytest.raises(ValueError, match="snr_db"):
            config_from_dict({"snr_db": -4000})
        with pytest.raises(ValueError, match="sweep_snrs_db"):
            config_from_dict({"sweep_snrs_db": [0.0, -4000.0]})
        with pytest.raises(ValueError, match="classical"):
            config_from_dict({"classical": 5})
        bad_leaves = [
            ({"seed": 2.7}, "seed"),
            ({"classical": {"qp": "5"}}, r"classical\.qp"),
            ({"classical": {"max_iters": 0}}, "classical.*max_iters"),
            ({"classical": {"ldpc_k": 10}}, "classical.*ldpc_k"),
            ({"reconstruction": {"iterations": -3}}, "reconstruction.*iterations"),
            ({"reconstruction": {"enabled": 1}}, r"reconstruction\.enabled"),
            ({"reconstruction": {"n_timesteps": 1}}, "reconstruction.*n_timesteps"),
            ({"video": {"width": 1.5}}, r"video\.width"),
            ({"video": {"frames": True}}, r"video\.frames"),
            ({"synthesis": {"threshold": -1.0}}, "synthesis.*threshold"),
            ({"synthesis": {"softness": 0.0}}, "synthesis.*softness"),
            ({"compute": {"render_flops": -1.0}}, "compute.*render_flops"),
            ({"metrics": {"ms_ssim_scales": 6}}, "metrics.*ms_ssim_scales"),
            ({"nodes": {"end": {"flops": "fast"}}}, r"nodes\.end\.flops"),
            ({"video": {"frames": 0}}, "video.*frames"),
            ({"video": {"fps": -1.0}}, "video.*fps"),
            ({"video": {"fps": float("nan")}}, "video.*fps"),
            ({"video": {"seed": -1}}, "video.*seed"),
            ({"semantic": {"bits_per_symbol_eq": -32}}, "semantic.*bits_per_symbol_eq"),
            ({"semantic": {"entropy_floor": float("nan")}}, "semantic.*entropy_floor"),
            ({"links": {"wireless": {"throughput_bps": float("inf")}}},
             r"links\.wireless.*throughput_bps"),
            ({"compute": {"render_flops": float("inf")}}, "compute.*render_flops"),
            # inf passes these leaves' own positivity checks
            ({"classical": {"qp": float("inf")}}, r"classical\.qp must be finite"),
            ({"synthesis": {"threshold": float("inf")}}, r"synthesis\.threshold must be finite"),
            # a list of float leaves, each checked like any float leaf
            ({"sweep_snrs_db": "15"}, "sweep_snrs_db must be list"),
            ({"sweep_snrs_db": [True, False]}, r"sweep_snrs_db\.0 must be float"),
            ({"sweep_snrs_db": ["5"]}, r"sweep_snrs_db\.0 must be float"),
            # removed keys: a config saved before they went names the key to fix
            ({"channel": {"snr_db": 15.0}}, "unknown config key channel$"),
            ({"classical": {"ldpc_var_degree": 3}},
             r"unknown config key classical\.ldpc_var_degree"),
            ({"classical": {"ldpc_check_degree": 6}},
             r"unknown config key classical\.ldpc_check_degree"),
        ]
        for data, key in bad_leaves:
            with pytest.raises(ValueError, match=key):
                config_from_dict(data)
        # a float leaf takes an int and stores it as a float
        assert config_from_dict({"snr_db": 15}).snr_db == 15.0
        assert config_from_dict({"sweep_snrs_db": [5]}).sweep_snrs_db == (5.0,)

    @pytest.mark.parametrize("path", FLOAT_LEAVES, ids=lambda path: ".".join(map(str, path)))
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_float_leaf_must_be_finite(self, path, bad):
        data = config_to_dict(reference_config())
        *parents, last = path
        leaf_parent = data
        for key in parents:
            leaf_parent = leaf_parent[key]
        leaf_parent[last] = bad
        dotted = ".".join(map(str, path))
        with pytest.raises(ValueError, match=f"^{re.escape(dotted)} must be finite$"):
            config_from_dict(data)

    def test_qp_without_a_quantizer_step_refused(self):
        with pytest.raises(ValueError, match=r"classical: qp must be positive.*qp / 255"):
            config_from_dict({"classical": {"qp": 5e-324}})

    def test_float_leaves_found(self):
        found = {".".join(map(str, path)) for path in FLOAT_LEAVES}
        assert {"classical.qp", "synthesis.threshold", "snr_db", "sweep_snrs_db.0",
                "nodes.end.flops", "links.fiber.throughput_bps"} <= found

    def test_non_finite_json_literals_refused(self, tmp_path):
        path = tmp_path / "cfg.json"
        for text, key in (('{"classical": {"qp": Infinity}}', "classical.qp"),
                          ('{"snr_db": NaN}', "snr_db"),
                          # an int beyond the float range
                          ('{"links": {"fiber": {"throughput_bps": 1%s}}}' % ("0" * 400),
                           "links.fiber.throughput_bps")):
            path.write_text(text)
            with pytest.raises(ValueError, match=f"^{re.escape(key)} must be finite$"):
                load_config(path)

    def test_background_size_must_match_user_video(self):
        # a shorter plate would cut the composite short of the user clip
        for plate, key in (({"width": 32, "height": 32}, "background_video size"),
                           ({"frames": 3}, r"background_video\.frames is 3")):
            with pytest.raises(ValueError, match=key + ".*user_video"):
                config_from_dict({"background_video": plate})
        with pytest.raises(ValueError, match="background_video.*user_video"):
            replace(reference_config(), user_video=VideoSource(variant="matting", width=48))
        both = {"width": 48, "height": 48}
        assert config_from_dict({"user_video": both, "background_video": both})
        # a raw clip's size is read from its file, so it is not checked here
        raw = {"kind": "raw", "path": "plate.rgb", "width": 32, "height": 32}
        assert config_from_dict({"background_video": raw})

    def test_ms_ssim_scored_clip_large_enough(self):
        # 3 scales need 11 * 2**2 = 44 px per side
        too_small = [
            ({"video": {"width": 120, "height": 40}}, r"video\.height is 40 px.*44 px"),
            ({"reconstruction": {"image_size": 40}}, r"reconstruction\.image_size is 40"),
            ({"metrics": {"ms_ssim_scales": 4}}, r"user_video\.width is 64 px.*88 px"),
            ({"user_video": {"width": 40, "height": 40},
              "background_video": {"width": 40, "height": 40}}, r"user_video\.width"),
        ]
        for data, message in too_small:
            with pytest.raises(ValueError, match=message):
                config_from_dict(data)
        assert config_from_dict({"video": {"width": 44, "height": 44}})
        # the scene fit is scored only when it runs
        assert config_from_dict({"reconstruction": {"image_size": 40, "enabled": False}})
        assert config_from_dict({"video": {"kind": "raw", "path": "clip.rgb", "width": 8}})


class TestSweep:
    def test_shape_and_determinism(self, tiny_config):
        curve = snr_sweep(tiny_config)
        assert len(curve.rows) == len(tiny_config.sweep_snrs_db) * 2
        chains = {r["chain"] for r in curve.rows}
        assert chains == {"semantic", "classical"}
        again = snr_sweep(tiny_config)
        assert curve.to_csv() == again.to_csv()

    def test_csv_header(self, tiny_config):
        csv = snr_sweep(tiny_config, [25.0]).to_csv()
        assert csv.splitlines()[0] == "snr_db,chain,psnr_db,ms_ssim"

    def test_empty_sweep_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            snr_sweep(tiny_config, [])


@pytest.fixture(scope="module")
def reference_sweep():
    """``compare``'s sweep on the reference config: its rows, every received
    video in row order, and how many clips ``ClipMsSsim`` scored."""
    cfg = reference_config()
    received, scored = [], [0]
    real_send, real_scores = semvid.pipeline.send, ClipMsSsim.frame_scores

    def recording_send(*args, **kwargs):
        out = real_send(*args, **kwargs)
        received.append(out[0])
        return out

    def counting_scores(self, clip):
        scored[0] += 1
        return real_scores(self, clip)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semvid.pipeline, "send", recording_send)
        mp.setattr(ClipMsSsim, "frame_scores", counting_scores)
        video, clips = semvid.pipeline._prepare_reference(cfg)
        curve = semvid.pipeline._sweep(cfg, cfg.sweep_snrs_db, video, clips)
    return cfg, video, curve.rows, received, scored[0]


@pytest.fixture(scope="module")
def per_pair_ms_ssim(reference_sweep):
    """Per-pair ``ms_ssim`` of every frame of every received video."""
    cfg, video, _, received, _ = reference_sweep
    return [[ms_ssim(a, b, cfg.metrics.ms_ssim_scales) for a, b in zip(video.frames, clip.frames)]
            for clip in received]


class TestSweepScoring:
    def test_rows_equal_a_per_pair_loop(self, reference_sweep, per_pair_ms_ssim):
        cfg, video, rows, received, _ = reference_sweep
        assert len(received) == len(rows) == 16
        for row, clip, scores in zip(rows, received, per_pair_ms_ssim):
            psnrs = [psnr(a, b) for a, b in zip(video.frames, clip.frames)]
            assert row["psnr_db"] == float(np.mean(psnrs))
            assert row["ms_ssim"] == float(np.mean(scores))
            # the one-shot scorer gives the same row
            one_shot = video_quality(video, clip, cfg.metrics.ms_ssim_scales)
            assert one_shot == {"psnr_db": row["psnr_db"], "ms_ssim": row["ms_ssim"]}

    def test_clip_scores_equal_ms_ssim(self, reference_sweep, per_pair_ms_ssim):
        cfg, video, _, received, _ = reference_sweep
        scorer = ClipMsSsim(video.to_array(), cfg.metrics.ms_ssim_scales)
        for clip, scores in zip(received, per_pair_ms_ssim):
            got = scorer.frame_scores(clip.to_array())
            assert [x.hex() for x in got] == [x.hex() for x in scores]

    def test_each_distinct_received_video_scored_once(self, reference_sweep):
        *_, received, scored = reference_sweep
        distinct = {hashlib.sha1(clip.to_array().tobytes()).digest() for clip in received}
        # the classical chain conceals every block at -10, -5 and 0 dB and
        # decodes cleanly from 5 dB up
        assert len(distinct) == 10
        assert scored == len(distinct)


def test_video_quality_refuses_clips_of_another_length(small_clip):
    short = VideoSequence(small_clip.frames[:-1], small_clip.fps)
    with pytest.raises(ValueError, match="8 frames.*has 7"):
        video_quality(small_clip, short, scales=1)


def test_video_quality_refuses_empty_clips():
    empty = VideoSequence((), 8.0)
    with pytest.raises(ValueError, match="0 frames.*has 0"):
        video_quality(empty, empty, scales=1)


def test_video_quality_refuses_another_frame_size(small_clip):
    wide = VideoSequence(tuple(Frame(np.zeros((64, 72, 3))) for _ in small_clip.frames),
                         small_clip.fps)
    with pytest.raises(ValueError, match=r"\(64, 64, 3\) vs \(64, 72, 3\)"):
        video_quality(small_clip, wide, scales=1)


class TestTransmitVideo:
    def test_semantic_stats(self, tiny_config):
        video_cfg = tiny_config.video
        from semvid.pipeline import resolve_video

        video = resolve_video(video_cfg)
        received, stats = transmit_video(video, "semantic", tiny_config, 25.0, "unit")
        assert len(received) == len(video)
        assert stats.channel_symbols == tiny_config.semantic.symbol_budget
        assert stats.decode_failures == 0

    def test_unknown_chain(self, tiny_config):
        from semvid.pipeline import resolve_video

        video = resolve_video(tiny_config.video)
        with pytest.raises(ValueError):
            transmit_video(video, "quantum", tiny_config, 10.0, "unit")


# The reference clip through the classical chain on the LDPC waterfall, with
# the channel seeds of `semvid transmit --chain classical --snr <snr>`: some of
# the 1,026 blocks fail and their macroblocks are concealed, the rest converge.
# SHA-256 of the received frames and the send's accounting, per SNR.
WATERFALL_SENDS = {
    1.5: ("7d31d6ca270b7bb8d97ae25884c21bfa7817779a5a0e0d6f545f1d79b486652c",
          {"payload_bits": 525215, "channel_symbols": 1050624, "wireless_delay_seconds": 0.0,
           "decode_failures": 317, "side_info_bits": 12672}),
    2.0: ("640c3747b1a8bda0104e8ae883478dd7596644780a475c51f748e1cb7247a821",
          {"payload_bits": 525215, "channel_symbols": 1050624, "wireless_delay_seconds": 0.0,
           "decode_failures": 43, "side_info_bits": 12672}),
}


@pytest.fixture(scope="module")
def reference_classical_clip():
    cfg = reference_config()
    return prepare_clip(resolve_video(cfg.video), "classical", cfg)


@pytest.mark.parametrize("snr_db", sorted(WATERFALL_SENDS))
def test_waterfall_classical_send_pinned(snr_db, reference_classical_clip):
    received, stats = send(reference_classical_clip, reference_config(), snr_db,
                           "classical", "cli", f"{snr_db:.3f}")
    digest = hashlib.sha256(received.to_array().tobytes()).hexdigest()
    assert (digest, asdict(stats)) == WATERFALL_SENDS[snr_db]


# (chain, SNR) -> SHA-256 of the received reference clip and its decode
# failures, sent as three GOPs of 3, 3 and 2 frames.  At 0 dB the classical
# chain loses every LDPC block, so every frame is concealed gray; at 2 dB it
# loses some, and GOPs 2 and 3 conceal them from the previous GOP's last frame.
MULTI_GOP_SENDS = {
    ("semantic", 0.0): ("d7c05dcd618e2079753a0e4db8f6023283f214ecec61bb6a7de101752fe826cc", 0),
    ("semantic", 2.0): ("803d56220fddc100c26a27164b482a7ac8c70d1e0ba7288c54beb3dc7a6d6df9", 0),
    ("semantic", 25.0): ("fa1fa618757d031c75854ac428a93e365f1b2457ecf8b5d824f07c2a68f38a60", 0),
    ("classical", 0.0): ("16a2fe9aa699235e9cc6ed3b484268982974c3fcaf7d71294fd68c71f50f25b0", 1027),
    ("classical", 2.0): ("dcea73e4eccdd5d0de81e0a66c65e4eaf25b80aea1bb3b832d6ea9fbb510dd2d", 47),
    ("classical", 25.0): ("da8869cf6c641726508360b9cee1171e459dcccb24988838a147885018a17c65", 0),
}
MULTI_GOP_STATS = {
    "semantic": {"payload_bits": 36288, "channel_symbols": 1134, "side_info_bits": 20548},
    "classical": {"payload_bits": 525215, "channel_symbols": 1051648, "side_info_bits": 12928},
}


@pytest.fixture(scope="module")
def multi_gop_clips():
    base = reference_config()
    cfg = replace(base, semantic=replace(base.semantic, gop_size=3))
    video = resolve_video(cfg.video)
    return cfg, {chain: prepare_clip(video, chain, cfg) for chain in MULTI_GOP_STATS}


@pytest.mark.parametrize("chain, snr_db", sorted(MULTI_GOP_SENDS))
def test_multi_gop_send_pinned(chain, snr_db, multi_gop_clips):
    cfg, clips = multi_gop_clips
    received, stats = send(clips[chain], cfg, snr_db, chain, "multi_gop", f"{snr_db:.3f}")
    assert [len(p.kept_individual) if chain == "semantic" else p.bitstream.n_frames
            for p in clips[chain].payloads] == [3, 3, 2]
    assert (len(received), received.fps) == (8, cfg.video.fps)
    digest = hashlib.sha256(received.to_array().tobytes()).hexdigest()
    assert (digest, stats.decode_failures) == MULTI_GOP_SENDS[chain, snr_db]
    assert asdict(stats) == {**MULTI_GOP_STATS[chain], "wireless_delay_seconds": 0.0,
                             "decode_failures": stats.decode_failures}


@pytest.mark.parametrize("encode", [
    lambda clip: semvid.classical.source_encode(clip, 5.0),
    lambda clip: semvid.classical.prepare_classical(
        clip, 5.0, semvid.ldpc.make_ldpc_code(256, 11)),
    lambda clip: semvid.semantic.latent_transform(clip, SemanticCodecConfig()),
    lambda clip: semvid.semantic.prepare_semantic(clip, 200, SemanticCodecConfig()),
    lambda clip: semvid.semantic.semantic_transmit(
        clip, ChannelConfig(25.0, 0), 200, SemanticCodecConfig()),
], ids=["source_encode", "prepare_classical", "latent_transform", "prepare_semantic",
        "semantic_transmit"])
def test_encoders_refuse_an_empty_clip(encode):
    with pytest.raises(ValueError):
        encode(VideoSequence((), 8.0))


class TestCompare:
    def test_reports_delay_and_quality(self, tiny_config):
        report = compare_baselines(tiny_config)
        assert report.semantic_delay_seconds < report.classical_delay_seconds
        assert 0 < report.delay_reduction_pct < 100
        payload = json.loads(report.to_json())
        assert "delays" in payload and "curve" in payload
        assert payload["notes"]["lpips"].startswith("unavailable")

    def test_high_snr_within_3db_of_channel_free(self, tiny_config):
        # at 25 dB both chains sit within 3 dB of their channel-free quality
        from semvid.classical import prepare_classical, source_decode
        from semvid.metrics import psnr
        from semvid.ldpc import make_ldpc_code
        from semvid.pipeline import resolve_video
        from semvid.semantic import semantic_transmit
        from semvid.video import segment_gops

        curve = snr_sweep(tiny_config, [25.0])
        by_chain = {r["chain"]: r["psnr_db"] for r in curve.rows}

        video = resolve_video(tiny_config.video)
        gops = segment_gops(video, tiny_config.semantic.gop_size)
        code = make_ldpc_code(tiny_config.classical.ldpc_k, tiny_config.classical.ldpc_seed)
        cls_free, sem_free = [], []
        for gop in gops:
            decoded = source_decode(prepare_classical(gop, tiny_config.classical.qp, code).bitstream)
            cls_free.extend(psnr(a, b) for a, b in zip(gop.frames, decoded))
            clean, _ = semantic_transmit(
                gop, ChannelConfig(snr_db=300.0, seed=0),
                tiny_config.semantic.symbol_budget, tiny_config.semantic,
            )
            sem_free.extend(psnr(a, b) for a, b in zip(gop.frames, clean))
        assert abs(by_chain["classical"] - np.mean(cls_free)) <= 3.0
        assert abs(by_chain["semantic"] - np.mean(sem_free)) <= 3.0


class TestService:
    def test_stage_structure_and_totals(self, tiny_config):
        report = run_service(tiny_config)
        names = [s.name for s in report.stages]
        assert names == [
            "upload_user_video", "upload_background", "forward_to_cloud",
            "video_synthesis", "scene_preprocess", "edge_render", "download_3d_video",
        ]
        assert all(s.status == "ok" for s in report.stages)
        total = sum(s.delay_seconds for s in report.stages)
        assert report.total_delay_seconds == pytest.approx(total, abs=0)
        payload = report.to_dict()
        assert payload["totals"]["total_delay_seconds"] == pytest.approx(total)
        assert payload["notes"]["lpips"].startswith("unavailable")

    def test_reconstruction_disabled_marks_skipped(self, tiny_config):
        cfg = replace(tiny_config, reconstruction=replace(tiny_config.reconstruction, enabled=False))
        report = run_service(cfg)
        status = {s.name: s.status for s in report.stages}
        assert status["scene_preprocess"] == "skipped"
        assert status["edge_render"] == "skipped"
        assert status["video_synthesis"] == "ok"
        vs = [s for s in report.stages if s.name == "video_synthesis"][0]
        assert "composite_vs_reference" in vs.metrics

    @pytest.mark.parametrize("patched, failing", [
        ("user_clip", "upload_user_video"),
        ("resolve_video", "upload_background"),
        ("composite", "video_synthesis"),
        ("fit_scene", "scene_preprocess"),
        ("render", "edge_render"),
    ])
    def test_failed_stage_aborts_downstream(self, tiny_config, monkeypatch, patched, failing):
        def broken(*args, **kwargs):
            raise ValueError(f"{patched} broke")

        monkeypatch.setattr(f"semvid.pipeline.{patched}", broken)
        report = run_service(tiny_config)  # records the failure, does not raise
        names = [s.name for s in report.stages]
        at = names.index(failing)
        assert [s.status for s in report.stages[:at]] == ["ok"] * at
        failed = report.stages[at]
        assert (failed.status, failed.error) == ("failed", f"{patched} broke")
        assert [s.status for s in report.stages[at + 1:]] == ["skipped"] * (len(names) - at - 1)

    def test_short_raw_background_fails_synthesis(self, tiny_config, tmp_path):
        # a raw clip's length is known only once it is read, so it is checked
        # where the composite is made, not at config load
        plate = tmp_path / "plate.rgb"
        save_raw(resolve_video(replace(tiny_config.background_video, frames=3)), plate)
        cfg = replace(tiny_config, background_video=VideoSource(
            kind="raw", path=str(plate), width=48, height=48))
        report = run_service(cfg)
        status = {s.name: s.status for s in report.stages}
        assert status["upload_background"] == "ok"
        synthesis = [s for s in report.stages if s.name == "video_synthesis"][0]
        assert synthesis.status == "failed"
        assert "background has 3 frames" in synthesis.error
        assert "user clip's 4" in synthesis.error
        for later in ("scene_preprocess", "edge_render", "download_3d_video"):
            assert status[later] == "skipped"

    def test_reports_without_fit_pinned(self, monkeypatch):
        # SHA-256 of the service report when the scene fit does not run; no
        # fit floats go in, so the hashes are exact
        def digest(cfg):
            return hashlib.sha256(run_service(cfg).to_json().encode()).hexdigest()

        def boom(*args):
            raise ValueError("boom")

        ref = reference_config()
        disabled = replace(ref, reconstruction=replace(ref.reconstruction, enabled=False))
        assert digest(disabled) == (
            "f66f7ce9d5b8b604dc9c86316ee7e1547220d567c01530738413ca1383f5c581")
        monkeypatch.setattr("semvid.pipeline.composite", boom)
        assert digest(ref) == "8cbbe698b377ee37d3cde71170247232474023d526320201ff99c8987d9fe162"

    def test_bypass_channel_composite_matches_local(self, tiny_config):
        cfg = replace(
            tiny_config,
            snr_db=300.0,
            semantic=replace(tiny_config.semantic, service_symbol_budget=10**9),
            reconstruction=replace(tiny_config.reconstruction, enabled=False),
        )
        report = run_service(cfg)
        vs = [s for s in report.stages if s.name == "video_synthesis"][0]
        assert vs.metrics["composite_vs_reference"]["psnr_db"] >= 40.0

    def test_wireless_delay_scales_with_payload(self, tiny_config):
        report = run_service(tiny_config)
        upload = report.stages[0]
        link_bps = tiny_config.links.wireless.throughput_bps
        expected = (upload.tx.payload_bits + upload.tx.side_info_bits) / link_bps
        assert upload.transmission_seconds == pytest.approx(expected)


class TestCli:
    def test_show_config(self, capsys):
        assert cli_main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["seed"] == 2024

    def test_show_config_schema_pinned(self, capsys):
        # the reference config file's keys, defaults and layout; a change here
        # changes what saved configs mean
        assert cli_main(["show-config"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "bd914da96dcb192a8b78cd42f36abbf80ce55c1aa70d8c54740302ae6a19f02f"

    def test_bad_config_and_show_config_create_no_out_dir(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"classical": {"bogus": 1}}')
        out = tmp_path / "X"
        with pytest.raises(ValueError, match=r"classical\.bogus"):
            cli_main(["compare", "--config", str(bad), "--out", str(out)])
        assert not out.exists()
        assert cli_main(["show-config", "--out", str(out)]) == 0
        assert not out.exists()

    def test_transmit_writes_outputs(self, tmp_path, tiny_config):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config, cfg_path)
        out = tmp_path / "out"
        rc = cli_main(["transmit", "--config", str(cfg_path), "--chain", "semantic",
                       "--snr", "25", "--out", str(out)])
        assert rc == 0
        video = load_raw(out / "received_semantic.rgb")
        assert len(video) == tiny_config.video.frames
        payload = json.loads((out / "transmit_semantic.json").read_text())
        assert payload["snr_db"] == 25.0

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "1e400", "-4000", "300.5"])
    def test_transmit_rejects_non_finite_snr(self, snr, capsys):
        # refused while parsing, before the clip is encoded; -4000 dB is
        # finite, but its noise variance would overflow
        with pytest.raises(SystemExit) as exc:
            cli_main(["transmit", f"--snr={snr}"])
        assert exc.value.code == 2
        assert "argument --snr: must be finite" in capsys.readouterr().err

    def test_sweep_and_compare(self, tmp_path, tiny_config):
        cfg_path = tmp_path / "cfg.json"
        save_config(replace(tiny_config, sweep_snrs_db=(25.0,)), cfg_path)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "curves.csv").exists()
        out2 = tmp_path / "cmp"
        assert cli_main(["compare", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out2 / "comparison.json").exists()

    def test_composite(self, tmp_path, tiny_config):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config, cfg_path)
        out = tmp_path / "comp"
        assert cli_main(["composite", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = json.loads((out / "composite_metrics.json").read_text())
        assert payload["matte_iou"] > 0.9
        fused = load_raw(out / "composite.rgb")
        assert len(fused) == payload["frames"] == tiny_config.user_video.frames
        assert fused.frames[0].data.shape == (48, 48, 3)

    def test_composite_uses_configured_user_clip(self, tmp_path, tiny_config):
        # a test-pattern clip has no ground-truth mattes and is matted against
        # its own first frame, so that frame composites to pure background
        cfg = replace(tiny_config, user_video=replace(tiny_config.user_video, variant="test"))
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        out = tmp_path / "comp"
        assert cli_main(["composite", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = json.loads((out / "composite_metrics.json").read_text())
        assert payload == {"frames": cfg.user_video.frames}
        fused = load_raw(out / "composite.rgb")
        background = resolve_video(cfg.background_video)
        assert np.max(np.abs(fused.frames[0].data - background.frames[0].data)) <= 0.5 / 255

    def test_reconstruct(self, tmp_path, tiny_config):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config, cfg_path)
        out = tmp_path / "rec"
        assert cli_main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "scene.json").exists()
        payload = json.loads((out / "reconstruct.json").read_text())
        assert payload["final_loss"] >= 0.0
        assert 0.0 <= payload["center_pck_0p1"] <= 1.0
        assert payload["backtracks"] >= 0 and payload["rejected_steps"] >= 0

    def test_pipeline_command(self, tmp_path, tiny_config):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config, cfg_path)
        out = tmp_path / "svc"
        assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = json.loads((out / "service_report.json").read_text())
        assert len(payload["stages"]) == 7

    def test_seed_override(self, tmp_path, tiny_config):
        cfg_path = tmp_path / "cfg.json"
        save_config(replace(tiny_config, sweep_snrs_db=(25.0,)), cfg_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli_main(["sweep", "--config", str(cfg_path), "--seed", "1", "--out", str(out_a)])
        cli_main(["sweep", "--config", str(cfg_path), "--seed", "2", "--out", str(out_b)])
        assert (out_a / "curves.csv").read_text() != (out_b / "curves.csv").read_text()
