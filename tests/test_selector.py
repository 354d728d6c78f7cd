import tracemalloc

import numpy as np
import pytest

from sparsepatch import numcore as nc
from sparsepatch import selector
from sparsepatch.errors import ShapeError, ValidationError
from sparsepatch.gopcodec import encode_gop
from sparsepatch.numcore import Tensor
from sparsepatch.selector import (
    CNN_CHANNELS,
    FEATURE_DIM,
    init_selector_params,
    patch_semantics,
    progressive_residual,
    score_gate,
    select_patches,
    shallow_3dcnn,
)
from sparsepatch.spectral import prominent_eigvec
from sparsepatch.videoio import RawClip, SynthSpec, synth_clip


def _conv3d_oracle(x, w, b, offset=0):
    """Plain-loop 3x3x3 conv, spatial stride 2, temporal stride 1, zero pad.

    ``offset`` shifts the spatial sampling centers by one input cell; the
    library uses it on the last layer so stacked receptive fields land on
    patch centers.
    """
    t_len, h, wid, cin = x.shape
    cout = w.shape[1]
    ho, wo = h // 2, wid // 2
    out = np.zeros((t_len, ho, wo, cout))
    for t in range(t_len):
        for yo in range(ho):
            for xo in range(wo):
                acc = b[0].copy()
                k = 0
                for dt in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            tt = t + dt
                            yy = 2 * yo + offset + dy
                            xx = 2 * xo + offset + dx
                            if 0 <= tt < t_len and 0 <= yy < h and 0 <= xx < wid:
                                acc = acc + x[tt, yy, xx] @ w[k * cin:(k + 1) * cin]
                            k += 1
                out[t, yo, xo] = np.maximum(acc, 0.0)
    return out


def _small_clip(t=2, h=16, w=32, seed=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    return RawClip(pixels=rng.integers(0, 256, size=(t, h, w, 3), dtype=np.uint8))


def test_cnn_matches_loop_oracle():
    clip = _small_clip()
    params = init_selector_params(seed=3)
    sem = shallow_3dcnn(clip, params)

    x = clip.pixels.astype(np.float64) / 255.0 - 0.5
    for i, offset in enumerate((0, 0, 0, 1)):
        x = _conv3d_oracle(x, params[f"sel.conv{i}.w"].data,
                           params[f"sel.conv{i}.b"].data, offset=offset)
    assert x.shape == (2, 1, 2, CNN_CHANNELS[-1])
    # one map per P-frame: frame 0's last layer is never built
    assert len(sem) == clip.frames - 1
    for t in range(1, clip.frames):
        got = sem[t - 1].data
        want = x[t].reshape(-1, CNN_CHANNELS[-1])
        assert np.allclose(got, want, atol=1e-10), f"frame {t} mismatch"


def test_cnn_output_geometry():
    clip = _small_clip(t=3, h=32, w=64)
    sem = shallow_3dcnn(clip, init_selector_params(seed=0))
    assert len(sem) == 2
    assert all(f.shape == (2 * 4, 64) for f in sem)
    assert shallow_3dcnn(_small_clip(t=1, h=32, w=64), init_selector_params(seed=0)) == []


def test_cnn_gradients_reach_first_layer():
    clip = _small_clip(t=2, h=16, w=16)
    params = init_selector_params(seed=1)
    err = nc.grad_check(
        lambda: nc.mean(shallow_3dcnn(clip, params)[0], None),
        params, ["sel.conv0.w"], max_coords=6, seed=0)["sel.conv0.w"]
    assert err < 1e-4


def _cnn_loss_and_grads(clip, params, weights):
    """Per-frame maps and every conv parameter's gradient of a weighted sum."""
    for _, t in params.items():
        t.grad = None
    with nc.tape() as tp:
        sem = shallow_3dcnn(clip, params)
        tp.backward(nc.sum_(nc.mul(nc.concat(sem, 0), Tensor(weights)), None))
    grads = {name: t.grad.copy() for name, t in params.items() if name.startswith("sel.conv")}
    return [f.data for f in sem], grads


def test_blocked_cnn_matches_one_block(monkeypatch):
    # with the budget below one frame's im2col every layer runs frame by
    # frame; maps and parameter gradients are those of the one-block run
    clip = _small_clip(t=3, h=32, w=48)
    params = init_selector_params(seed=4)
    weights = np.random.Generator(np.random.PCG64(5)).standard_normal((2 * 2 * 3, 64))
    whole, whole_grads = _cnn_loss_and_grads(clip, params, weights)
    monkeypatch.setattr(selector, "_CNN_BLOCK_BYTES", 1)
    ranges = []
    rows = nc.neighborhood_rows
    monkeypatch.setattr(nc, "neighborhood_rows",
                        lambda *a: ranges.append(a[-1]) or rows(*a))
    blocked, blocked_grads = _cnn_loss_and_grads(clip, params, weights)
    # the last layer runs the P-frames only
    assert ranges == [range(t, t + 1) for t in range(3)] * 3 + [range(1, 2), range(2, 3)]
    for got, want in zip(blocked, whole):
        assert np.abs(got - want).max() <= 1e-12
    for name, want in whole_grads.items():
        assert np.abs(blocked_grads[name] - want).max() <= 1e-12, name


def _cnn_peak(clip, params):
    tracemalloc.start()
    try:
        shallow_3dcnn(clip, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_cnn_peak_memory_stays_within_predicted_bound(monkeypatch):
    # a layer holds its input and output, one block's im2col and the
    # zero-padded frames that block's windows read (one frame per block,
    # so three); one block of the whole clip needs more
    t, h, w = 5, 64, 96
    clip = _small_clip(t=t, h=h, w=w)
    params = init_selector_params(seed=6)
    bound = 0
    for cin, cout in zip(CNN_CHANNELS, CNN_CHANNELS[1:]):
        ho, wo = h // 2, w // 2
        bound = max(bound, 8 * (t * h * w * cin + t * ho * wo * cout
                                + ho * wo * 27 * cin + 3 * (h + 2) * (w + 2) * cin))
        h, w = ho, wo
    slack = 64 << 10
    assert _cnn_peak(clip, params) > bound + slack
    monkeypatch.setattr(selector, "_CNN_BLOCK_BYTES", 1)
    peak = _cnn_peak(clip, params)
    assert peak <= bound + slack, (peak, bound)


def test_patch_semantics_scales_rows():
    f = Tensor([[2.0, 4.0], [1.0, -3.0]])
    s = patch_semantics(f, np.array([0.5, -1.0]))
    assert s.data.tolist() == [[1.0, 2.0], [-1.0, 3.0]]
    with pytest.raises(ValidationError):
        patch_semantics(f, np.zeros(3))


def test_progressive_residual_exact_zero_on_duplicates():
    rng = np.random.Generator(np.random.PCG64(2))
    pool = rng.integers(0, 256, size=(4, 6)).astype(np.int16)
    pool[3] = pool[1]  # duplicate entry later in the pool
    assert not progressive_residual(pool[1:2], pool).any()
    assert np.all(progressive_residual(pool[1:2] + 1, pool) == 1)


def _gate_params(seed=0):
    params = nc.ParamSet()
    for i, (fi, fo) in enumerate([(FEATURE_DIM, 256), (256, 64), (64, 1)]):
        rng = nc.rng_stream(seed, "t", i)
        params.add(f"sel.mlp{i}.w", rng.standard_normal((fi, fo)) / np.sqrt(fi))
        params.add(f"sel.mlp{i}.b", np.zeros((1, fo)))
    return params


def _spy_scores(monkeypatch) -> list:
    """The scores ``select_patches`` gets from ``score_gate``, in call order."""
    scores = []
    real = selector.score_gate
    monkeypatch.setattr(selector, "score_gate",
                        lambda f, p: scores.append(real(f, p)) or scores[-1])
    return scores


def test_score_gate_train_vs_infer(monkeypatch):
    # score_gate is the MLP alone; select_patches keeps a patch when its
    # score plus the frame's seeded noise is positive in training, and
    # when its score is positive at inference
    params = _gate_params()
    rng = np.random.Generator(np.random.PCG64(9))
    feats = rng.standard_normal((5, FEATURE_DIM)) * 0.2
    score = score_gate(Tensor(feats), params)
    p = {name: params[name].data for name in params.names()}
    h = np.maximum(feats @ p["sel.mlp0.w"] + p["sel.mlp0.b"], 0.0)
    h = np.maximum(h @ p["sel.mlp1.w"] + p["sel.mlp1.b"], 0.0)
    assert isinstance(score, Tensor) and score.shape == (5, 1)
    assert not score.requires_grad  # no tape, nothing recorded
    assert np.allclose(score.data, h @ p["sel.mlp2.w"] + p["sel.mlp2.b"], rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        score_gate(Tensor(np.zeros((2, 7))), params)

    _, gop = _synth_gop(seed=8)
    sel_params = init_selector_params(seed=2)
    scores = _spy_scores(monkeypatch)
    kept = {}
    for mode in ("train", "infer"):
        scores.clear()
        result = select_patches(gop, sel_params, mode=mode, seed=3)
        assert len(scores) == gop.frames - 1
        for t, (keep, gate, s) in enumerate(zip(result.selected, result.gates, scores), 1):
            shifted = s.data
            if mode == "train":
                shifted = shifted + nc.rng_stream(3, "gate-noise", t).standard_normal(s.shape)
            assert np.array_equal(keep, np.flatnonzero(shifted[:, 0] > 0))
            assert np.array_equal(gate.data, (shifted > 0).astype(np.float64))
        kept[mode] = result.selected
    assert not all(np.array_equal(a, b) for a, b in zip(kept["train"], kept["infer"]))


def test_score_gate_gradient_flows_through_hard_gate():
    # select_patches' 0/1 decisions carry a straight-through gradient back
    # through score_gate to the MLP, with and without the training noise
    _, gop = _synth_gop(seed=8)
    params = init_selector_params(seed=2)
    for mode in ("train", "infer"):
        params.zero_grad()
        with nc.tape() as t:
            result = select_patches(gop, params, mode=mode, seed=3)
            t.backward(nc.sum_(nc.concat(result.gates, 0), None))
        assert params["sel.mlp0.w"].grad is not None
        assert np.abs(params["sel.mlp0.w"].grad).max() > 0, mode


def test_select_patches_rejects_unknown_mode_before_compute():
    _, gop = _synth_gop(t=3)
    counter = nc.MacCounter()
    with nc.mac_counting(counter), pytest.raises(ValidationError):
        select_patches(gop, init_selector_params(seed=0), mode="predict")
    assert counter.total == 0 and not counter.by_stage and not counter.uncounted


def _synth_gop(t=4, hw=64, seed=6, background="textured"):
    spec = SynthSpec(identity_count=3, clips_per_identity=1, height=hw, width=hw,
                     frames=t, background=background, motion_amplitude=5.0,
                     seed=seed)
    clip = synth_clip(spec, identity=1, clip_seed=0)
    return clip, encode_gop(clip)


def test_select_patches_end_to_end(monkeypatch):
    clip, gop = _synth_gop()
    params = init_selector_params(seed=11)
    scores = _spy_scores(monkeypatch)
    result = select_patches(gop, params, mode="infer", seed=0)
    n = gop.i_frame.count
    assert len(result.selected) == 3
    # infer mode gates the raw scores: keep exactly score > 0
    assert len(scores) == 3
    for keep, gate, score in zip(result.selected, result.gates, scores):
        assert np.array_equal(keep, np.nonzero(score.data[:, 0] > 0)[0])
        assert np.array_equal(keep, np.nonzero(gate.data[:, 0])[0])
        assert np.all(np.diff(keep) > 0)
    assert result.pool.shape[0] == n + sum(result.kept_counts)

    again = select_patches(gop, params, mode="infer", seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(result.selected, again.selected))
    assert all(np.array_equal(a.data, b.data) for a, b in zip(result.gates, again.gates))


def test_select_patches_pool_is_iframe_then_kept_patches_in_frame_order():
    # the pool's row order is the nearest-patch tie-break order: I-frame
    # patches by index, then each P-frame's kept patches by ascending index
    clip, gop = _synth_gop()
    result = select_patches(gop, init_selector_params(seed=11))
    assert sum(result.kept_counts) > 0
    want = np.concatenate([gop.i_frame.patches]
                          + [gop.frame_patches(t)[keep]
                             for t, keep in enumerate(result.selected, start=1)])
    assert result.pool.dtype == np.int16
    assert np.array_equal(result.pool, want)


def test_select_patches_rejects_mismatched_semantics():
    clip, gop = _synth_gop(t=3, hw=32)
    params = init_selector_params(seed=1)
    sem = shallow_3dcnn(clip, params)
    # one map per P-frame: one short, or one per frame, does not match
    for wrong in (sem[:1], [sem[0], *sem]):
        with pytest.raises(ValidationError, match="semantics do not match"):
            select_patches(gop, params, semantics=wrong)
    with pytest.raises(ValidationError, match="semantics do not match"):
        select_patches(gop, params, semantics=[nc.slice_(f, 0, 3, 0) for f in sem])


def test_select_patches_train_mode_jitters_and_backprops():
    clip, gop = _synth_gop(seed=8)
    params = init_selector_params(seed=2)
    params.zero_grad()
    with nc.tape() as t:
        result = select_patches(gop, params, mode="train", seed=3)
        total = nc.sum_(nc.concat(result.gates, 0), None)
        t.backward(total)
    assert params["sel.conv0.w"].grad is not None
    assert params["sel.mlp2.w"].grad is not None

    def same(a, b):
        return (all(np.array_equal(x, y) for x, y in zip(a.selected, b.selected))
                and all(np.array_equal(x.data, y.data) for x, y in zip(a.gates, b.gates)))

    assert same(result, select_patches(gop, params, mode="train", seed=3))
    assert not same(result, select_patches(gop, params, mode="train", seed=4))
    assert not same(result, select_patches(gop, params, mode="infer"))


def test_select_patches_single_frame_clip():
    clip = _small_clip(t=1, h=32, w=32)
    gop = encode_gop(clip)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        result = select_patches(gop, init_selector_params(seed=0))
    # nothing to select, so the CNN builds no map and nothing is counted
    assert counter.total == 0 and not counter.by_stage
    assert result.gates == [] and result.selected == []
    assert result.pool.shape[0] == 4


def test_select_patches_degenerate_features_fall_back():
    # a zeroed final conv layer gives every patch the same features, so
    # the saliency graph has no usable split: each P-frame serves with
    # zero saliency and counts one fallback, after one decomposition
    clip, gop = _synth_gop(t=3, hw=48)
    params = init_selector_params(seed=0)
    params["sel.conv3.w"].data[:] = 0.0
    assert not prominent_eigvec(shallow_3dcnn(clip, params)[0].data).any()
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        result = select_patches(gop, params)
    assert counter.uncounted["saliency_fallbacks"] == 2
    assert counter.uncounted["eig_decompositions"] == 2
    assert all(not s.any() for s in result.saliency)
    assert len(result.selected) == 2


def test_select_patches_zero_features_fall_back_without_eigendecomposition():
    # zeroed final conv weights and bias give all-zero features: the graph
    # has no edges and is refused before any eigendecomposition runs, so
    # nothing may be tallied as one
    clip, gop = _synth_gop(t=3, hw=48)
    params = init_selector_params(seed=0)
    params["sel.conv3.w"].data[:] = 0.0
    params["sel.conv3.b"].data[:] = 0.0
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        result = select_patches(gop, params)
    assert counter.uncounted["saliency_fallbacks"] == 2
    assert "eig_decompositions" not in counter.uncounted
    assert all(not s.any() for s in result.saliency)


def test_select_patches_takes_no_fallback_on_noise():
    gop = encode_gop(_small_clip(t=3, h=32, w=64))
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        select_patches(gop, init_selector_params(seed=0))
    assert "saliency_fallbacks" not in counter.uncounted


def test_select_patches_counts_macs():
    clip, gop = _synth_gop(t=2, hw=32)
    params = init_selector_params(seed=1)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        select_patches(gop, params)
    assert counter.by_stage.get("selection_cnn", 0) > 0
    assert counter.by_stage.get("selector_mlp", 0) > 0
    assert counter.uncounted.get("eig_decompositions") == 1
    assert counter.uncounted.get("sad_compares", 0) > 0


def test_init_motion_channels_cancel_on_static_content():
    # any clip with identical frames must produce exactly zero response in
    # the temporal-difference channels (first 8) for interior frames
    rng = np.random.Generator(np.random.PCG64(2))
    frame = rng.integers(0, 256, size=(32, 48, 3), dtype=np.uint8)
    clip = RawClip(pixels=np.stack([frame] * 3))
    params = init_selector_params(seed=5)
    x = Tensor(clip.pixels.reshape(-1, 3) / 255.0 - 0.5)
    cols = nc.neighborhood_rows(x, 3, 32, 48, 0, range(3))
    out = nc.matmul(cols, params["sel.conv0.w"])
    perframe = out.data.reshape(3, -1, CNN_CHANNELS[1])
    assert np.abs(perframe[1, :, :8]).max() < 1e-12


def test_init_color_channels_cancel_on_gray_content():
    rng = np.random.Generator(np.random.PCG64(3))
    gray = rng.integers(0, 256, size=(2, 32, 48, 1), dtype=np.uint8)
    clip = RawClip(pixels=np.repeat(gray, 3, axis=3))
    params = init_selector_params(seed=5)
    x = Tensor(clip.pixels.reshape(-1, 3) / 255.0 - 0.5)
    cols = nc.neighborhood_rows(x, 2, 32, 48, 0, range(2))
    out = nc.matmul(cols, params["sel.conv0.w"])
    assert np.abs(out.data[:, 8:12]).max() < 1e-12


def test_untrained_saliency_finds_the_walker():
    # miniature of the acceptance bar: thresholded saliency vs truth masks
    from sparsepatch.spectral import prominent_eigvec
    ious = []
    for c in range(6):
        spec = SynthSpec(identity_count=6, clips_per_identity=1,
                         background="distractor", motion_amplitude=2.0, seed=0)
        clip = synth_clip(spec, identity=c, clip_seed=c)
        params = init_selector_params(seed=c + 7)
        sem = shallow_3dcnn(clip, params)
        for t in range(1, clip.frames):
            sal = prominent_eigvec(sem[t - 1].data)
            pred = sal > 0.0
            truth = clip.masks[t].reshape(-1).astype(bool)
            union = np.logical_or(pred, truth).sum()
            ious.append(np.logical_and(pred, truth).sum() / union if union else 1.0)
    assert np.mean(ious) >= 0.7
