"""Sparse-token video transformer over GOP-coded clips.

The first frame contributes all of its patch tokens every layer; later
frames contribute only the patches the selector kept. What the attention
would otherwise lose is reinstated two ways:

* a per-frame context token, predicted cheaply from the first-frame
  context trajectory ("global warp"), stands in for the frame when the
  prediction is judged reliable;
* otherwise the skipped patches themselves are approximated from their
  motion-source tokens plus the coded residual ("patchwise warp"),
  refined by one-head attention over the first-frame tokens, and folded
  back in as pooled summary tokens.

The reliability judgment is a per-layer, per-frame routing gate: run the
context predictor round-trip and compare against the actual first-frame
context by cosine distance; distances above the threshold mean the cheap
path cannot be trusted for that frame at that layer.

Auxiliary tokens (context and pooled summaries) join attention as
keys/values only: queries, projections, and the feed-forward run on the
frame's own tokens, which is what keeps the cost of an extra aux token
at 2*d^2 MACs instead of a full token's 12*d^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .errors import ShapeError, ValidationError
from .gopcodec import PATCH_DIM, GopClip
from .numcore import ParamSet, Tensor
from .selector import SelectionResult

_LOCAL_ROWS = 2
_LOCAL_COLS = 4
# key/value-only aux tokens a P-frame attends over: the coarse context
# token on the closed path; the refined context token plus the pooled
# summaries on the open path
CLOSED_AUX = 1
OPEN_AUX = 1 + _LOCAL_ROWS * _LOCAL_COLS


def warp_hidden(dim: int) -> int:
    """Hidden width of the warp and context MLPs at model width ``dim``."""
    return max(32, dim // 6)


@dataclass(frozen=True)
class PsformerConfig:
    dim: int
    layers: int
    heads: int
    grid_h: int
    grid_w: int
    max_frames: int = 16

    def __post_init__(self):
        if self.dim <= 0 or self.layers <= 0 or self.heads <= 0:
            raise ValidationError("dim, layers, and heads must be positive")
        if self.dim % self.heads:
            raise ValidationError(
                f"dim {self.dim} not divisible by heads {self.heads}")
        if self.grid_h < _LOCAL_ROWS or self.grid_w < _LOCAL_COLS:
            raise ValidationError(
                f"grid {self.grid_h}x{self.grid_w} too small for "
                f"{_LOCAL_ROWS}x{_LOCAL_COLS} pooling")
        if self.max_frames < 1:
            raise ValidationError("max_frames must be positive")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def warp_hidden(self) -> int:
        return warp_hidden(self.dim)

    @property
    def patch_count(self) -> int:
        return self.grid_h * self.grid_w


def init_psformer_params(config: PsformerConfig,
                         seed: int,
                         params: ParamSet | None = None) -> ParamSet:
    if params is None:
        params = ParamSet()
    d, h = config.dim, config.warp_hidden
    dk = config.head_dim

    def lin(name: str, fan_in: int, fan_out: int, gain: float = 1.0):
        rng = nc.rng_stream(seed, "init", name)
        params.add(f"{name}.w",
                   rng.standard_normal((fan_in, fan_out)) * np.sqrt(gain / fan_in))
        params.add(f"{name}.b", np.zeros((1, fan_out)))

    lin("embed", PATCH_DIM, d)
    rng = nc.rng_stream(seed, "init", "pos")
    params.add("pos", rng.standard_normal((config.patch_count, d)) * 0.02)
    rng = nc.rng_stream(seed, "init", "frame")
    params.add("frame", rng.standard_normal((config.max_frames, d)) * 0.02)
    for l in range(config.layers):
        params.add(f"layer{l}.ln1.g", np.ones((1, d)))
        params.add(f"layer{l}.ln1.b", np.zeros((1, d)))
        lin(f"layer{l}.attn.q", d, d)
        lin(f"layer{l}.attn.kv", d, 2 * d)
        lin(f"layer{l}.attn.out", d, d)
        params.add(f"layer{l}.ln2.g", np.ones((1, d)))
        params.add(f"layer{l}.ln2.b", np.zeros((1, d)))
        lin(f"layer{l}.ffn.l1", d, 4 * d, gain=2.0)
        lin(f"layer{l}.ffn.l2", 4 * d, d)
    lin("warp.pw.l1", d + PATCH_DIM, h, gain=2.0)
    lin("warp.pw.l2", h, h, gain=2.0)
    lin("warp.pw.l3", h, d)
    lin("warp.q", d, dk)
    lin("warp.k", d, dk)
    lin("warp.v", d, d)
    lin("warp.ev.l1", 2 * d, h, gain=2.0)
    lin("warp.ev.l2", h, d)
    lin("warp.gw.l1", 2 * d, h, gain=2.0)
    lin("warp.gw.l2", h, d)
    return params


def _linear(x: Tensor, params: ParamSet, name: str) -> Tensor:
    return nc.add(nc.matmul(x, params[f"{name}.w"]), params[f"{name}.b"])


def _ev(x: Tensor, params: ParamSet) -> Tensor:
    return _linear(nc.relu(_linear(x, params, "warp.ev.l1")), params, "warp.ev.l2")


def _gw(x: Tensor, params: ParamSet) -> Tensor:
    return _linear(nc.relu(_linear(x, params, "warp.gw.l1")), params, "warp.gw.l2")


def msa_block(main: Tensor, aux: Tensor | None, params: ParamSet,
              layer: int, config: PsformerConfig) -> Tensor:
    """One pre-norm attention + feed-forward block.

    ``main`` rows are the frame's own tokens: they query, attend, and
    pass through the FFN, with residual connections. ``aux`` rows only
    extend the key/value set.
    """
    if main.shape[1] != config.dim:
        raise ShapeError(f"token width {main.shape[1]} != dim {config.dim}")
    p = f"layer{layer}"
    normed = nc.layer_norm(main, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
    if aux is not None:
        aux_normed = nc.layer_norm(aux, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        kv_src = nc.concat_rows([normed, aux_normed])
    else:
        kv_src = normed
    q = _linear(normed, params, f"{p}.attn.q")
    kv = _linear(kv_src, params, f"{p}.attn.kv")
    k = nc.slice_cols(kv, 0, config.dim)
    v = nc.slice_cols(kv, config.dim, 2 * config.dim)
    dk = config.head_dim
    heads = []
    for hh in range(config.heads):
        qh = nc.slice_cols(q, hh * dk, (hh + 1) * dk)
        kh = nc.slice_cols(k, hh * dk, (hh + 1) * dk)
        vh = nc.slice_cols(v, hh * dk, (hh + 1) * dk)
        scores = nc.scale(nc.matmul(qh, nc.transpose(kh)), 1.0 / np.sqrt(dk))
        heads.append(nc.matmul(nc.softmax_rows(scores), vh))
    attn = nc.concat_cols(heads) if len(heads) > 1 else heads[0]
    main = nc.add(main, _linear(attn, params, f"{p}.attn.out"))
    normed2 = nc.layer_norm(main, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
    ffn = _linear(nc.gelu(_linear(normed2, params, f"{p}.ffn.l1")), params, f"{p}.ffn.l2")
    return nc.add(main, ffn)


def _embed_patches(patches: np.ndarray, params: ParamSet,
                   pos_idx: np.ndarray, frame_idx: int) -> Tensor:
    """Linear patch embedding plus positional and frame terms."""
    x = Tensor(patches.astype(np.float64) / 255.0 - 0.5)
    tok = _linear(x, params, "embed")
    pos = nc.gather_rows(params["pos"], pos_idx)
    tok = nc.add(tok, pos)
    fr = nc.gather_rows(params["frame"], np.array([frame_idx]))
    return nc.add(tok, fr)


def _pool_cells(gh: int, gw: int) -> list[np.ndarray]:
    """Grid positions of each 2x4 pooling cell, row-major over the cells."""
    row_edges = np.linspace(0, gh, _LOCAL_ROWS + 1).astype(int)
    col_edges = np.linspace(0, gw, _LOCAL_COLS + 1).astype(int)
    index = np.arange(gh * gw).reshape(gh, gw)
    return [index[row_edges[r]:row_edges[r + 1],
                  col_edges[c]:col_edges[c + 1]].reshape(-1)
            for r in range(_LOCAL_ROWS) for c in range(_LOCAL_COLS)]


@dataclass
class RoutingEntry:
    layer: int
    frame: int
    cost: float
    open_path: bool


@dataclass
class PsformerResult:
    feature: Tensor
    context_pairs: list  # per layer: (first-frame mean in, previous mean)
    routing: list[RoutingEntry] = field(default_factory=list)

    @property
    def open_rate(self) -> float:
        if not self.routing:
            return 0.0
        return sum(1.0 for r in self.routing if r.open_path) / len(self.routing)


def psformer_forward(gop: GopClip, selection: SelectionResult,
                     params: ParamSet, config: PsformerConfig,
                     threshold: float) -> PsformerResult:
    """Sparse forward pass: full first frame, selected patches elsewhere.

    ``threshold`` is the routing bar: a P-frame at a layer takes the open
    (patchwise-warp) path exactly when its context-prediction cosine
    distance strictly exceeds it. A P-frame with no kept patch carries
    zero token rows: it skips the attention block, and its context
    starts from the first frame's.
    """
    gh, gw = selection.grid_h, selection.grid_w
    n = gh * gw
    t_total = gop.frames
    if (gh, gw) != (config.grid_h, config.grid_w):
        raise ValidationError(
            f"selection grid {gh}x{gw} != config grid {config.grid_h}x{config.grid_w}")
    if gop.i_frame.grid_h != gh or gop.i_frame.grid_w != gw:
        raise ValidationError("gop and selection grids disagree")
    if t_total > config.max_frames:
        raise ValidationError(
            f"clip has {t_total} frames, config allows {config.max_frames}")
    if selection.frames != t_total:
        raise ValidationError("selection and gop frame counts disagree")

    all_idx = np.arange(n)
    with nc.stage("embedding"):
        x_i = _embed_patches(gop.i_frame.patches, params, all_idx, 0)
    c0 = nc.colmean(x_i)
    cells = _pool_cells(gh, gw)

    # per-P-frame state (index 0 is frame 1): kept tokens, the context
    # carried to the next layer, the warp inputs of the skipped patches
    # (motion sources, scaled residuals) and, per pooling cell, its rows
    # in the stacked [kept; warped] tokens
    x_p, cp_prev, warp_in, cell_rows = [], [], [], []
    for t in range(1, t_total):
        sel = selection.selected[t - 1]
        unsel = np.setdiff1d(all_idx, sel)
        warp_in.append((gop.motion[t - 1][unsel],
                        Tensor(gop.residual[t - 1][unsel].astype(np.float64) / 255.0)))
        row_of = np.argsort(np.concatenate([sel, unsel]))  # grid position -> row
        cell_rows.append([row_of[cell] for cell in cells])
        if sel.size:
            with nc.stage("embedding"):
                tok = _embed_patches(gop.frame_patches(t)[sel], params, sel, t)
            gate = nc.gather_rows(selection.gates[t - 1], sel)
            tok = nc.mul(tok, gate)  # straight-through path into the selector
            x_p.append(tok)
            cp_prev.append(nc.colmean(tok))
        else:
            x_p.append(Tensor(np.zeros((0, config.dim))))
            cp_prev.append(c0)

    routing: list[RoutingEntry] = []
    context_pairs = []
    ci_prev = c0
    for layer in range(config.layers):
        ci_cur = nc.colmean(x_i)
        context_pairs.append((ci_cur, ci_prev))
        kv = None
        for t in range(1, t_total):
            i = t - 1
            with nc.stage("global_warp"):
                e = _ev(nc.concat_cols([ci_cur, ci_prev]), params)
                cp_coarse = _gw(nc.concat_cols([e, cp_prev[i]]), params)
            with nc.stage("routing"):
                e_hat = _ev(nc.concat_cols([cp_coarse, cp_prev[i]]), params)
                ci_hat = _gw(nc.concat_cols([e_hat, ci_prev]), params)
                cost = nc.cosine_distance(ci_hat, ci_cur).item()
            open_path = cost > threshold
            routing.append(RoutingEntry(layer, t, cost, open_path))
            if open_path:
                with nc.stage("patchwise_warp"):
                    if kv is None:
                        kv = _warp_kv(x_i, params)
                    p_tilde = _refine_unselected(x_i, *warp_in[i], params, config, kv)
                context = nc.scale(nc.add(nc.colsum(x_p[i]), nc.colsum(p_tilde)), 1.0 / n)
                stacked = nc.concat_rows([x_p[i], p_tilde])
                aux = nc.concat_rows([context] + [
                    nc.colmean(nc.gather_rows(stacked, rows)) for rows in cell_rows[i]])
            else:
                context = aux = cp_coarse
            # a zero-row frame has nothing to attend; its aux key/value
            # projection would count MACs the cost model does not price
            if x_p[i].shape[0]:
                with nc.stage("p_frame_msa"):
                    x_p[i] = msa_block(x_p[i], aux, params, layer, config)
            cp_prev[i] = context
        with nc.stage("i_frame_msa"):
            x_i = msa_block(x_i, None, params, layer, config)
        ci_prev = ci_cur

    # reinstate every skipped patch once from the final first-frame tokens
    total = nc.colsum(x_i)
    if t_total > 1:
        with nc.stage("patchwise_warp"):
            kv = _warp_kv(x_i, params)
            for i in range(t_total - 1):
                total = nc.add(total, nc.colsum(x_p[i]))
                # with every patch kept, a zero-row refinement would still
                # hand the warp parameters zero gradients
                if warp_in[i][0].size:
                    p_tilde = _refine_unselected(x_i, *warp_in[i], params, config, kv)
                    total = nc.add(total, nc.colsum(p_tilde))
    feature = nc.scale(total, 1.0 / (n * t_total))
    return PsformerResult(feature=feature, context_pairs=context_pairs,
                          routing=routing)


def _warp_kv(x_i: Tensor, params: ParamSet) -> tuple[Tensor, Tensor]:
    """Key/value projections of the first-frame tokens for the refinement."""
    return _linear(x_i, params, "warp.k"), _linear(x_i, params, "warp.v")


def _refine_unselected(x_i: Tensor, motion: np.ndarray, residual: Tensor,
                       params: ParamSet, config: PsformerConfig,
                       kv: tuple[Tensor, Tensor]) -> Tensor:
    """Warp skipped patches from their motion sources, refine by attention.

    The coarse estimate feeds on the motion-source token and the coded
    residual; the refinement is one-head attention against the current
    first-frame tokens with their key/value projections ``kv``.
    """
    src = nc.gather_rows(x_i, motion)
    inp = nc.concat_cols([src, residual])
    hidden = nc.relu(_linear(inp, params, "warp.pw.l1"))
    hidden = nc.relu(_linear(hidden, params, "warp.pw.l2"))
    p_hat = _linear(hidden, params, "warp.pw.l3")
    q = _linear(p_hat, params, "warp.q")
    k, v = kv
    scores = nc.scale(nc.matmul(q, nc.transpose(k)), 1.0 / np.sqrt(config.head_dim))
    return nc.matmul(nc.softmax_rows(scores), v)


def dense_forward(gop: GopClip, params: ParamSet,
                  config: PsformerConfig) -> PsformerResult:
    """Dense reference pass: every frame contributes all of its patches.

    Used for the first training stage; each frame attends over its own
    full token set plus one aux token holding the frame's current mean,
    so the context operators see realistic inputs from the start.
    """
    gh, gw = config.grid_h, config.grid_w
    n = gh * gw
    t_total = gop.frames
    if gop.i_frame.grid_h != gh or gop.i_frame.grid_w != gw:
        raise ValidationError("gop grid does not match config grid")
    if t_total > config.max_frames:
        raise ValidationError(
            f"clip has {t_total} frames, config allows {config.max_frames}")
    all_idx = np.arange(n)
    with nc.stage("embedding"):
        frames = [_embed_patches(gop.frame_patches(t), params, all_idx, t)
                  for t in range(t_total)]
    context_pairs = []
    ci_prev = nc.colmean(frames[0])
    for layer in range(config.layers):
        ci_cur = nc.colmean(frames[0])
        context_pairs.append((ci_cur, ci_prev))
        for t in range(t_total):
            stage = "i_frame_msa" if t == 0 else "p_frame_msa"
            with nc.stage(stage):
                mean_tok = nc.colmean(frames[t])
                frames[t] = msa_block(frames[t], mean_tok, params, layer, config)
        ci_prev = ci_cur
    total = nc.colsum(frames[0])
    for t in range(1, t_total):
        total = nc.add(total, nc.colsum(frames[t]))
    feature = nc.scale(total, 1.0 / (n * t_total))
    return PsformerResult(feature=feature, context_pairs=context_pairs)
