from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsepatch import numcore as nc
from sparsepatch import psformer
from sparsepatch.errors import ValidationError
from sparsepatch.gopcodec import GopClip, encode_gop
from sparsepatch.numcore import ParamSet, Tensor
from sparsepatch.psformer import (
    PsformerConfig,
    dense_forward,
    init_psformer_params,
    msa_block,
    psformer_forward,
    warp_hidden,
)
from sparsepatch.selector import init_selector_params, select_patches
from sparsepatch.videoio import SynthSpec, synth_clip


def _toy_config(**kw):
    base = dict(dim=64, layers=2, heads=4, grid_h=4, grid_w=4, max_frames=8)
    base.update(kw)
    return PsformerConfig(**base)


def _toy_inputs(frames=4, seed=0, width=64):
    spec = SynthSpec(identity_count=4, clips_per_identity=1, height=64,
                     width=width, frames=frames, background="textured",
                     motion_amplitude=2.0, seed=seed)
    clip = synth_clip(spec, identity=1, clip_seed=seed)
    gop = encode_gop(clip)
    sel = select_patches(gop, init_selector_params(seed=3), mode="infer", seed=0)
    return gop, sel


def _keeping(gop, sel, selected):
    """``sel`` with P-frame t keeping ``selected[t - 1]``, and the pool
    rows that selection lays out."""
    pool = np.concatenate([gop.i_frame.patches,
                           *(gop.frame_patches(t)[s] for t, s in enumerate(selected, 1))])
    return replace(sel, selected=selected, pool=pool)


def _np_layer_norm(x, g, b, eps=1e-6):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _np_gelu(x):
    from scipy.special import erf
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _np_msa_block(main, aux, params, layer, cfg):
    """Independent plain-numpy reimplementation of one block."""
    p = {k: params[k].data for k in params.names()}
    pre = f"layer{layer}"
    normed = _np_layer_norm(main, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
    if aux is not None:
        aux_n = _np_layer_norm(aux, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        kv_src = np.vstack([normed, aux_n])
    else:
        kv_src = normed
    q = normed @ p[f"{pre}.attn.q.w"] + p[f"{pre}.attn.q.b"]
    kv = kv_src @ p[f"{pre}.attn.kv.w"] + p[f"{pre}.attn.kv.b"]
    k, v = kv[:, :cfg.dim], kv[:, cfg.dim:]
    dk = cfg.head_dim
    outs = []
    for h in range(cfg.heads):
        qh, kh, vh = (a[:, h * dk:(h + 1) * dk] for a in (q, k, v))
        s = qh @ kh.T / np.sqrt(dk)
        s = s - s.max(axis=1, keepdims=True)
        w = np.exp(s)
        w /= w.sum(axis=1, keepdims=True)
        outs.append(w @ vh)
    attn = np.hstack(outs)
    main = main + attn @ p[f"{pre}.attn.out.w"] + p[f"{pre}.attn.out.b"]
    n2 = _np_layer_norm(main, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
    ffn = _np_gelu(n2 @ p[f"{pre}.ffn.l1.w"] + p[f"{pre}.ffn.l1.b"])
    ffn = ffn @ p[f"{pre}.ffn.l2.w"] + p[f"{pre}.ffn.l2.b"]
    return main + ffn


def test_msa_block_matches_numpy_oracle():
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=9)
    rng = np.random.Generator(np.random.PCG64(4))
    main = rng.standard_normal((7, cfg.dim))
    aux = rng.standard_normal((3, cfg.dim))
    got = msa_block(Tensor(main), Tensor(aux), params, 1, cfg, [(7, 3, "block")])
    want = _np_msa_block(main, aux, params, 1, cfg)
    assert got.shape == (7, cfg.dim)
    assert np.allclose(got.data, want, atol=1e-10)
    got_no_aux = msa_block(Tensor(main), Tensor(np.zeros((0, cfg.dim))), params, 0, cfg,
                           [(7, 0, "block")])
    want_no_aux = _np_msa_block(main, None, params, 0, cfg)
    assert np.allclose(got_no_aux.data, want_no_aux, atol=1e-10)


def test_aux_tokens_change_output_but_not_shape():
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=2)
    rng = np.random.Generator(np.random.PCG64(5))
    main = Tensor(rng.standard_normal((5, cfg.dim)))
    aux = Tensor(rng.standard_normal((2, cfg.dim)))
    with_aux = msa_block(main, aux, params, 0, cfg, [(5, 2, "block")])
    without = msa_block(main, Tensor(np.zeros((0, cfg.dim))), params, 0, cfg,
                        [(5, 0, "block")])
    assert with_aux.shape == without.shape == (5, cfg.dim)
    assert not np.allclose(with_aux.data, without.data)


def test_config_validation():
    with pytest.raises(ValidationError):
        PsformerConfig(dim=60, layers=2, heads=7, grid_h=4, grid_w=4)
    with pytest.raises(ValidationError):
        PsformerConfig(dim=0, layers=2, heads=1, grid_h=4, grid_w=4)
    cfg = _toy_config(max_frames=2)
    gop, sel = _toy_inputs(frames=4)
    params = init_psformer_params(cfg, seed=0)
    with pytest.raises(ValidationError):
        psformer_forward(gop, sel, params, cfg, threshold=3.0)


@pytest.mark.parametrize("forward, fault", [
    ("sparse", "grid"), ("dense", "grid"), ("sparse", "length"), ("dense", "length"),
    ("sparse", "selection grid"), ("sparse", "selection frames")])
def test_forwards_refuse_a_clip_before_any_compute(forward, fault):
    # both forwards share one door check of the clip against the config;
    # the sparse one also checks that the selection is of the clip
    cfg = _toy_config(**{"grid": {"grid_w": 8}, "length": {"max_frames": 3}}.get(fault, {}))
    gop, sel = _toy_inputs(frames=4)
    if fault.startswith("selection"):
        _, sel = _toy_inputs(frames=3) if fault == "selection frames" else _toy_inputs(width=128)
    params = init_psformer_params(cfg, seed=0)
    counter = nc.MacCounter()
    with nc.mac_counting(counter), pytest.raises(ValidationError):
        if forward == "dense":
            dense_forward(gop, params, cfg)
        else:
            psformer_forward(gop, sel, params, cfg, threshold=0.5)
    assert counter.total == 0


@st.composite
def _kept_subsets(draw):
    n = draw(st.integers(1, 12))
    masks = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=4))
    return n, [np.flatnonzero(m) for m in masks]


@settings(max_examples=60, deadline=None)
@given(case=_kept_subsets())
@example(case=(8, []))  # a one-frame clip
@example(case=(8, [np.arange(8)] * 3))  # every patch kept
@example(case=(8, [np.arange(0)] * 3))  # no patch kept
@example(case=(8, [np.arange(8), np.arange(0), np.array([1, 6])]))
def test_stack_plan_lays_out_the_sparse_stack(case):
    n, selected = case
    grid_index, skip, at = psformer._stack_plan(selected, n)
    assert np.all(np.diff(grid_index) > 0)
    assert np.array_equal(grid_index[:n], np.arange(n))
    assert grid_index.size == n + sum(s.size for s in selected)
    assert skip.shape == at.shape == (len(selected), n)
    for f, kept in enumerate(selected):
        assert np.array_equal(np.flatnonzero(~skip[f]), kept)
        # a kept patch's entry is its own row; a skipped one's its rank
        assert np.array_equal(grid_index[at[f, kept]], (f + 1) * n + kept)
        assert np.array_equal(at[f, skip[f]], np.arange(n - kept.size))


def test_routing_extremes():
    cfg = _toy_config()
    gop, sel = _toy_inputs()
    params = init_psformer_params(cfg, seed=5)
    closed = psformer_forward(gop, sel, params, cfg, threshold=3.0)
    assert closed.open_rate == 0.0
    assert len(closed.routing) == cfg.layers * (gop.frames - 1)
    assert all(0.0 <= r.cost <= 2.0 for r in closed.routing)
    opened = psformer_forward(gop, sel, params, cfg, threshold=-1.0)
    assert opened.open_rate == 1.0
    assert not np.allclose(closed.feature.data, opened.feature.data)


def test_each_opened_grid_is_gathered_once(monkeypatch):
    # with every frame open, a layer gathers each opened frame's grid once
    # and takes both the whole-grid and the cell means from that one copy
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=5)
    gop, sel = _toy_inputs()
    sizes = []
    gather = nc.gather_rows
    monkeypatch.setattr(nc, "gather_rows",
                        lambda x, idx: sizes.append(np.size(idx)) or gather(x, idx))
    res = psformer_forward(gop, sel, params, cfg, threshold=-1.0)
    assert res.open_rate == 1.0
    grids = (gop.frames - 1) * cfg.patch_count
    assert sizes.count(grids) == cfg.layers
    assert 2 * grids not in sizes


@pytest.mark.parametrize("threshold", [3.0, -1.0])
def test_attention_segments_read_rows_by_slice(threshold, monkeypatch):
    # every block segment's query rows are one run, and so are the keys of
    # the first frame, which has no aux rows; the warp refinement (one
    # head) takes all of its queries and keys as one segment of slices
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=5)
    gop, sel = _toy_inputs()
    calls = []
    attention = nc.multihead_attention
    monkeypatch.setattr(nc, "multihead_attention",
                        lambda q, k, v, heads, segments: calls.append(
                            (heads, segments)) or attention(q, k, v, heads, segments))
    psformer_forward(gop, sel, params, cfg, threshold=threshold)
    blocks = [segments for heads, segments in calls if heads == cfg.heads]
    refinements = [segments for heads, segments in calls if heads == 1]
    assert len(blocks) == cfg.layers and refinements
    n = cfg.patch_count
    for segments in blocks:
        assert len(segments) == gop.frames
        assert all(isinstance(rows, slice) for rows, _ in segments)
        assert segments[0] == (slice(0, n), slice(0, n))
    for segments in refinements:
        assert len(segments) == 1
        assert all(isinstance(part, slice) for part in segments[0])


def test_feature_single_frame_equals_token_mean():
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=64,
                     width=64, frames=1, background="textured",
                     motion_amplitude=0.0, seed=1)
    clip = synth_clip(spec, identity=0, clip_seed=0)
    gop = encode_gop(clip)
    sel = select_patches(gop, init_selector_params(seed=1), mode="infer", seed=0)
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=1)
    res = psformer_forward(gop, sel, params, cfg, threshold=0.5)
    assert res.routing == []
    # independent recomputation: embed, run layers, mean
    from sparsepatch.psformer import _embed_frames
    x = _embed_frames(gop.i_frame.patches, np.arange(16), params)
    for l in range(cfg.layers):
        x = msa_block(x, Tensor(np.zeros((0, cfg.dim))), params, l, cfg,
                      [(16, 0, "i_frame_msa")])
    assert np.allclose(res.feature.data, x.data.mean(axis=0, keepdims=True),
                       atol=1e-10)


def _expected_msa_macs(m, a, d):
    return m * 12 * d * d + a * 2 * d * d + 2 * m * (m + a) * d


def _expected_warp_macs(d, h, dk, n, skipped, calls, rows):
    """The patchwise warp's MACs, by hand. Once per clip: the residual half
    of warp.pw.l1 over every skipped patch (768 -> h), and warp.pw.l3
    composed with warp.q (an h x d by d x dk product, and d x dk for the
    composed bias). Per refinement call, over the n first-frame tokens: the
    token half of warp.pw.l1 (d -> h), keys (d -> dk) and values (d -> d).
    Per refined row: warp.pw.l2 (h -> h), the composed query (h -> dk), and
    one-head attention over n keys (n * dk scores, n * d value sums)."""
    clip = skipped * 768 * h + h * d * dk + d * dk
    call = n * d * h + n * d * dk + n * d * d
    row = h * h + h * dk + n * dk + n * d
    return clip + calls * call + rows * row


def test_closed_path_macs_match_analytic():
    cfg = _toy_config(layers=3)
    gop, sel = _toy_inputs(frames=4)
    params = init_psformer_params(cfg, seed=5)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        psformer_forward(gop, sel, params, cfg, threshold=3.0)
    d, h, dk, n = cfg.dim, warp_hidden(cfg.dim), cfg.head_dim, cfg.patch_count
    t = gop.frames
    kept = sel.kept_counts
    unsel = [n - k for k in kept]
    assert counter.by_stage["embedding"] == (n + sum(kept)) * 768 * d
    assert counter.by_stage["i_frame_msa"] == cfg.layers * _expected_msa_macs(n, 0, d)
    assert counter.by_stage["p_frame_msa"] == cfg.layers * sum(
        _expected_msa_macs(k, 1, d) for k in kept if k > 0)
    assert counter.by_stage["global_warp"] == cfg.layers * (t - 1) * 6 * d * h
    assert counter.by_stage["routing"] == cfg.layers * (t - 1) * 6 * d * h
    # closed everywhere: only the final reinstatement warp runs
    assert sum(unsel) > 0
    assert counter.by_stage["patchwise_warp"] == _expected_warp_macs(
        d, h, dk, n, sum(unsel), calls=1, rows=sum(unsel))


def test_open_path_macs_match_analytic():
    cfg = _toy_config(layers=2)
    gop, sel = _toy_inputs(frames=3)
    params = init_psformer_params(cfg, seed=6)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        psformer_forward(gop, sel, params, cfg, threshold=-1.0)
    d, h, dk, n = cfg.dim, warp_hidden(cfg.dim), cfg.head_dim, cfg.patch_count
    kept = sel.kept_counts
    unsel = [n - k for k in kept]
    assert counter.by_stage["p_frame_msa"] == cfg.layers * sum(
        _expected_msa_macs(k, 9, d) for k in kept if k > 0)
    # open everywhere: one refinement per layer, then the final one, each
    # over every skipped patch
    assert sum(unsel) > 0
    assert counter.by_stage["patchwise_warp"] == _expected_warp_macs(
        d, h, dk, n, sum(unsel), calls=cfg.layers + 1, rows=(cfg.layers + 1) * sum(unsel))


@pytest.mark.parametrize("dim, rows", [(32, 9), (96, 23), (32, 0)])
def test_composed_warp_matches_the_plain_formula(dim, rows):
    # the warp forms warp.pw.l1 in two halves and composes warp.pw.l3 with
    # warp.q; a plain-numpy reference runs the uncomposed formula
    cfg = _toy_config(dim=dim)
    params = init_psformer_params(cfg, seed=21)
    rng = np.random.Generator(np.random.PCG64(dim + rows))
    # biases start at zero; random ones make the composed bias count
    for name in params.names():
        if name.startswith("warp.") and name.endswith(".b"):
            params[name].data = rng.standard_normal(params[name].shape)
    n = cfg.patch_count
    x_i = rng.standard_normal((n, dim))
    motion = rng.integers(0, n, rows)
    residual = rng.integers(-255, 256, (rows, 768)).astype(np.int16)
    half, maps = psformer._warp_maps(residual, params, dim)
    got = psformer._refine_unselected(Tensor(x_i), motion, half, params, maps).data

    p = {k: params[k].data for k in params.names()}
    relu = lambda a: np.maximum(a, 0.0)
    hidden = relu(np.hstack([x_i[motion], residual / 255.0]) @ p["warp.pw.l1.w"]
                  + p["warp.pw.l1.b"])
    hidden = relu(hidden @ p["warp.pw.l2.w"] + p["warp.pw.l2.b"])
    q = (hidden @ p["warp.pw.l3.w"] + p["warp.pw.l3.b"]) @ p["warp.q.w"] + p["warp.q.b"]
    k = x_i @ p["warp.k.w"] + p["warp.k.b"]
    v = x_i @ p["warp.v.w"] + p["warp.v.b"]
    scores = q @ k.T / np.sqrt(q.shape[1])
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    want = weights / weights.sum(axis=1, keepdims=True) @ v
    assert got.shape == want.shape == (rows, dim)
    if rows:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_dense_forward_macs_and_pairs():
    cfg = _toy_config(layers=2)
    gop, _ = _toy_inputs(frames=3)
    params = init_psformer_params(cfg, seed=7)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        res = dense_forward(gop, params, cfg)
    d, n, t = cfg.dim, cfg.patch_count, gop.frames
    assert counter.by_stage["embedding"] == n * t * 768 * d
    assert counter.by_stage["i_frame_msa"] == cfg.layers * _expected_msa_macs(n, 1, d)
    assert counter.by_stage["p_frame_msa"] == cfg.layers * (t - 1) * _expected_msa_macs(n, 1, d)
    # only the sparse pass's pairs feed the error-constraint loss
    assert res.context_pairs == []


def test_sparse_layer0_context_is_the_iframe_token_mean():
    cfg = _toy_config()
    gop, sel = _toy_inputs(frames=3)
    params = init_psformer_params(cfg, seed=8)
    sparse = psformer_forward(gop, sel, params, cfg, threshold=3.0)
    p = {name: params[name].data for name in params.names()}
    tokens = ((gop.i_frame.patches / 255.0 - 0.5) @ p["embed.w"] + p["embed.b"]
              + p["pos"] + p["frame"][0])
    c0_cur, c0_prev = sparse.context_pairs[0]
    assert np.allclose(c0_cur.data, tokens.mean(axis=0, keepdims=True), rtol=0, atol=1e-12)
    assert np.array_equal(c0_cur.data, c0_prev.data)


def test_forward_deterministic():
    cfg = _toy_config()
    gop, sel = _toy_inputs()
    params = init_psformer_params(cfg, seed=11)
    a = psformer_forward(gop, sel, params, cfg, threshold=0.5)
    b = psformer_forward(gop, sel, params, cfg, threshold=0.5)
    assert a.feature.data.tobytes() == b.feature.data.tobytes()
    assert [r.cost for r in a.routing] == [r.cost for r in b.routing]


def test_small_grid_rejects_open_path_pooling():
    # the open path pools every P-frame into 2x4 cells, so a smaller grid
    # is refused before any compute, whatever the routing
    for gh, gw in ((2, 3), (1, 4)):
        with pytest.raises(ValidationError, match="too small for 2x4 pooling"):
            _toy_config(grid_h=gh, grid_w=gw)


@pytest.mark.parametrize("threshold", [3.0, -1.0])
def test_psformer_gradcheck(threshold):
    cfg = PsformerConfig(dim=16, layers=1, heads=2, grid_h=2, grid_w=4,
                         max_frames=4)
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=32,
                     width=64, frames=2, background="textured",
                     motion_amplitude=2.0, seed=2)
    clip = synth_clip(spec, identity=0, clip_seed=1)
    gop = encode_gop(clip)
    sel = select_patches(gop, init_selector_params(seed=4), mode="infer", seed=0)
    params = init_psformer_params(cfg, seed=3)
    probe = Tensor(np.random.Generator(np.random.PCG64(6))
                   .standard_normal((cfg.dim, 1)))

    def build_loss():
        res = psformer_forward(gop, sel, params, cfg, threshold=threshold)
        loss = nc.matmul(res.feature, probe)
        for cur, prev in res.context_pairs:
            loss = nc.add(loss, nc.matmul(nc.mul(cur, prev), probe))
        return nc.sum_(loss, None)

    names = ["embed.w", "pos", "frame", "layer0.attn.kv.w", "layer0.ffn.l1.w",
             "warp.pw.l1.w", "warp.pw.l1.b", "warp.pw.l3.w", "warp.pw.l3.b",
             "warp.q.w", "warp.q.b", "warp.ev.l1.w", "warp.gw.l2.w", "warp.k.w"]
    errs = nc.grad_check(build_loss, params, names, eps=1e-5, max_coords=4,
                         seed=0)
    for name, err in errs.items():
        assert err < 1e-4, f"{name}: {err}"

    # the first dim rows of warp.pw.l1.w weigh the motion-source token, the
    # rest the residual; the warp forms the two halves apart, so check the
    # largest gradient entry of each half and two seeded ones besides
    w1 = params["warp.pw.l1.w"]
    # the check above leaves every parameter as it found it
    assert w1.grad is None
    with nc.tape() as t:
        t.backward(build_loss())
    analytic, w1.grad = w1.grad, None
    rng = np.random.Generator(np.random.PCG64(7))
    for rows in (slice(0, cfg.dim), slice(cfg.dim, w1.shape[0])):
        half = np.abs(analytic[rows])
        assert half.max() > 0
        coords = [np.unravel_index(half.argmax(), half.shape),
                  *zip(rng.integers(0, half.shape[0], 2), rng.integers(0, half.shape[1], 2))]
        for r, c in coords:
            r += rows.start
            keep = w1.data[r, c]
            w1.data[r, c] = keep + 1e-5
            up = build_loss().item()
            w1.data[r, c] = keep - 1e-5
            down = build_loss().item()
            w1.data[r, c] = keep
            numeric = (up - down) / 2e-5
            err = abs(analytic[r, c] - numeric) / (abs(numeric) + 1e-8)
            assert err < 1e-4, f"warp.pw.l1.w[{r}, {c}]: {err}"


def test_gate_gradient_reaches_selector():
    cfg = _toy_config(layers=1)
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=64,
                     width=64, frames=3, background="textured",
                     motion_amplitude=2.0, seed=5)
    clip = synth_clip(spec, identity=1, clip_seed=2)
    gop = encode_gop(clip)
    sel_params = init_selector_params(seed=6)
    params = init_psformer_params(cfg, seed=7)
    with nc.tape() as t:
        sel = select_patches(gop, sel_params, mode="train", seed=1)
        res = psformer_forward(gop, sel, params, cfg, threshold=3.0)
        loss = nc.sum_(res.feature, None)
        t.backward(loss)
    g_mlp = sel_params["sel.mlp0.w"].grad
    g_conv = sel_params["sel.conv0.w"].grad
    assert g_mlp is not None and np.abs(g_mlp).max() > 0
    assert g_conv is not None and np.abs(g_conv).max() > 0


def test_stacked_msa_block_equals_per_frame_calls():
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=12)
    rng = np.random.Generator(np.random.PCG64(13))
    # (main rows, aux rows, stage) per frame
    frames = [(4, 1, "first"), (6, 9, "rest"), (3, 2, "rest"), (5, 0, "first")]
    mains = [rng.standard_normal((m, cfg.dim)) for m, _, _ in frames]
    auxes = [rng.standard_normal((a, cfg.dim)) for _, a, _ in frames]
    single, stacked = nc.MacCounter(), nc.MacCounter()
    with nc.mac_counting(single):
        want = [msa_block(Tensor(m), Tensor(a), params, 1, cfg, [frame]).data
                for m, a, frame in zip(mains, auxes, frames)]
    with nc.mac_counting(stacked):
        got = msa_block(Tensor(np.vstack(mains)), Tensor(np.vstack(auxes)),
                        params, 1, cfg, frames)
    assert np.abs(got.data - np.vstack(want)).max() < 1e-12
    assert stacked.by_stage == single.by_stage
    assert set(stacked.by_stage) == {"first", "rest"}
    assert stacked.total == single.total


def test_msa_block_normalizes_main_and_aux_rows_as_one_stack(monkeypatch):
    # ln1 runs once over the main and key/value-only aux rows together,
    # ln2 once over the main rows
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=16)
    rng = np.random.Generator(np.random.PCG64(17))
    shapes = []
    layer_norm = nc.layer_norm
    monkeypatch.setattr(nc, "layer_norm",
                        lambda x, g, b: shapes.append(x.shape) or layer_norm(x, g, b))
    msa_block(Tensor(rng.standard_normal((5, cfg.dim))),
              Tensor(rng.standard_normal((3, cfg.dim))), params, 0, cfg,
              [(2, 1, "first"), (3, 2, "rest")])
    assert shapes == [(8, cfg.dim), (5, cfg.dim)]


def test_sparse_forward_embeds_the_selection_pool(monkeypatch):
    # the selection's pool holds the stack's pixel rows in stack order, so
    # the forward embeds it as it is and rebuilds no frame
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=15)
    gop, sel = _toy_inputs(frames=4)
    assert sum(sel.kept_counts) > 0
    rebuilt, embedded = [], []
    monkeypatch.setattr(GopClip, "frame_patches", lambda self, t: rebuilt.append(t))
    embed = psformer._embed_frames
    monkeypatch.setattr(psformer, "_embed_frames",
                        lambda patches, *a: embedded.append(patches) or embed(patches, *a))
    psformer_forward(gop, sel, params, cfg, threshold=-1.0)
    assert rebuilt == []
    assert len(embedded) == 1
    assert embedded[0].dtype == sel.pool.dtype and embedded[0].shape == sel.pool.shape
    assert embedded[0].tobytes() == sel.pool.tobytes()


def test_sparse_forward_refuses_a_pool_that_does_not_hold_the_stack():
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=15)
    gop, sel = _toy_inputs(frames=4)
    counter = nc.MacCounter()
    with nc.mac_counting(counter), pytest.raises(ValidationError, match="stack rows"):
        psformer_forward(gop, replace(sel, pool=sel.pool[:-1]), params, cfg, threshold=0.5)
    assert counter.total == 0


def test_one_embedding_product_per_clip(monkeypatch):
    # the first frame and the kept P-frame patches are embedded together
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=15)
    gop, sel = _toy_inputs(frames=4)
    assert sum(sel.kept_counts) > 0
    names = []
    linear = psformer._linear
    monkeypatch.setattr(psformer, "_linear",
                        lambda x, p, name: names.append(name) or linear(x, p, name))
    psformer_forward(gop, sel, params, cfg, threshold=0.5)
    assert names.count("embed") == 1


@pytest.mark.parametrize("threshold", [3.0, -1.0, None])
def test_every_layer_runs_one_block(threshold, monkeypatch):
    # the first frame and the P-frames share one block call per layer,
    # also when a P-frame keeps nothing and when the clip has one frame;
    # threshold None runs the dense pass
    cfg = _toy_config(layers=3)
    params = init_psformer_params(cfg, seed=15)
    calls = []
    block = psformer.msa_block
    monkeypatch.setattr(psformer, "msa_block",
                        lambda *a, **kw: calls.append(1) or block(*a, **kw))
    gop, sel = _toy_inputs(frames=4)
    sel = _keeping(gop, sel, [sel.selected[0], np.array([], dtype=np.intp), *sel.selected[2:]])
    single = _toy_inputs(frames=1)
    for gop, sel in ((gop, sel), single):
        calls.clear()
        if threshold is None:
            dense_forward(gop, params, cfg)
        else:
            psformer_forward(gop, sel, params, cfg, threshold=threshold)
        assert len(calls) == cfg.layers


@pytest.mark.parametrize("threshold", [3.0, -1.0])
def test_matmul_calls_do_not_grow_with_frames(threshold, monkeypatch):
    # every layer runs its P-frames as one stacked pass, so the number of
    # matrix products is the same for 3 and 5 frames
    cfg = _toy_config()
    params = init_psformer_params(cfg, seed=14)
    calls = []
    matmul = nc.matmul

    def counted(*args):
        calls.append(1)
        return matmul(*args)

    monkeypatch.setattr(nc, "matmul", counted)
    counts = []
    for frames in (3, 5):
        gop, sel = _toy_inputs(frames=frames)
        assert all(sel.kept_counts)
        calls.clear()
        res = psformer_forward(gop, sel, params, cfg, threshold=threshold)
        assert res.open_rate == (1.0 if threshold < 0 else 0.0)
        counts.append(len(calls))
    assert counts[0] == counts[1]
