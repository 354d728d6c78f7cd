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
path cannot be trusted for that frame at that layer. The global warp,
this routing cost and the error-constraint loss that trains it
(``training.error_constraint_loss``) share one predictor,
``predict_context``.

Auxiliary tokens (context and pooled summaries) join attention as
keys/values only: queries, projections, and the feed-forward run on the
frame's own tokens, which is what keeps the cost of an extra aux token
at 2*d^2 MACs instead of a full token's 12*d^2.

Each layer runs all of its frames as one stacked pass: one block takes
the first frame's tokens and the P-frames' kept tokens, and the routing
and warp MLPs and the refinement take the rows of every P-frame at
once, while attention and pooling stay within each frame
(``numcore.multihead_attention`` and ``numcore.segment_mean`` over
per-frame row segments). The block charges each row's MACs to its
frame's stage, so the count is the same as frame by frame.

The forward drops each intermediate once it is read (normalized rows,
projections, attention output, warped rows and pooling grids), so
outside a tape a layer holds little beyond its token stack and the
product in flight.
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
    def patch_count(self) -> int:
        return self.grid_h * self.grid_w


def psformer_param_table(config: PsformerConfig) -> dict[str, tuple[tuple[int, int], float]]:
    """Name, shape and init spread of every parameter, in init order. One
    with a spread starts as a seeded normal draw times it, from the stream of
    its name (``name.w`` from that of ``name``); the rest start at zero, and
    layer-norm gains ``.g`` at one. A linear layer ``name`` is a (fan_in,
    fan_out) ``name.w`` with He spread sqrt(gain / fan_in), gain 2 where a
    ReLU or GELU follows, and a (1, fan_out) ``name.b``."""
    d, h, dk = config.dim, warp_hidden(config.dim), config.head_dim
    table = {}

    def lin(name: str, fan_in: int, fan_out: int, gain: float):
        table[f"{name}.w"] = (fan_in, fan_out), np.sqrt(gain / fan_in)
        table[f"{name}.b"] = (1, fan_out), 0.0

    lin("embed", PATCH_DIM, d, 1.0)
    table["pos"], table["frame"] = ((config.patch_count, d), 0.02), ((config.max_frames, d), 0.02)
    for l in range(config.layers):
        table[f"layer{l}.ln1.g"] = table[f"layer{l}.ln1.b"] = (1, d), 0.0
        lin(f"layer{l}.attn.q", d, d, 1.0)
        lin(f"layer{l}.attn.kv", d, 2 * d, 1.0)
        lin(f"layer{l}.attn.out", d, d, 1.0)
        table[f"layer{l}.ln2.g"] = table[f"layer{l}.ln2.b"] = (1, d), 0.0
        lin(f"layer{l}.ffn.l1", d, 4 * d, 2.0)
        lin(f"layer{l}.ffn.l2", 4 * d, d, 1.0)
    lin("warp.pw.l1", d + PATCH_DIM, h, 2.0)
    lin("warp.pw.l2", h, h, 2.0)
    lin("warp.pw.l3", h, d, 1.0)
    lin("warp.q", d, dk, 1.0)
    lin("warp.k", d, dk, 1.0)
    lin("warp.v", d, d, 1.0)
    lin("warp.ev.l1", 2 * d, h, 2.0)
    lin("warp.ev.l2", h, d, 1.0)
    lin("warp.gw.l1", 2 * d, h, 2.0)
    lin("warp.gw.l2", h, d, 1.0)
    return table


def init_psformer_params(config: PsformerConfig, seed: int) -> ParamSet:
    params = ParamSet()
    for name, (shape, spread) in psformer_param_table(config).items():
        if spread:
            rng = nc.rng_stream(seed, "init", name.removesuffix(".w"))
            params.add(name, rng.standard_normal(shape) * spread)
        else:
            params.add(name, np.full(shape, 1.0 if name.endswith(".g") else 0.0))
    return params


def _linear(x: Tensor, params: ParamSet, name: str) -> Tensor:
    return nc.matmul(x, params[f"{name}.w"], params[f"{name}.b"])


def predict_context(ev_input: Tensor, gw_prev: Tensor, params: ParamSet) -> Tensor:
    """The context predictor's round trip ``gw([ev(ev_input), gw_prev])``.

    ``ev`` (context evolution) and ``gw`` (global warp) are two-layer ReLU
    MLPs over row pairs of contexts; every row is one prediction. The
    global warp, the routing cost and ``training.error_constraint_loss``
    all predict through this one function.
    """
    evolved = _linear(nc.relu(_linear(ev_input, params, "warp.ev.l1")),
                      params, "warp.ev.l2")
    hidden = nc.relu(_linear(nc.concat([evolved, gw_prev], 1), params, "warp.gw.l1"))
    return _linear(hidden, params, "warp.gw.l2")


def msa_block(main: Tensor, aux: Tensor, params: ParamSet, layer: int,
              config: PsformerConfig, frames: list[tuple[int, int, str]]) -> Tensor:
    """One pre-norm attention + feed-forward block over stacked frames.

    ``main`` rows are the frames' own tokens: they query, attend, and
    pass through the FFN, with residual connections. ``aux`` rows, of
    which there may be none, only extend the key/value set. ``frames``
    lists each frame's (main rows, aux rows, MAC stage) in stacking
    order, both stacks in that order. Normalization, projections and the
    FFN run once over all rows; a frame's tokens attend only to its own
    main and aux rows, and every row's MACs go to its frame's stage.
    """
    if main.shape[1] != config.dim:
        raise ShapeError(f"token width {main.shape[1]} != dim {config.dim}")
    sizes, aux_sizes, stages = zip(*frames)
    if sum(sizes) != main.shape[0] or sum(aux_sizes) != aux.shape[0]:
        raise ShapeError(f"frames {frames} do not split {main.shape[0]} main "
                         f"and {aux.shape[0]} aux rows")
    p = f"layer{layer}"
    segments = []
    m0, a0 = 0, main.shape[0]
    for m, a in zip(sizes, aux_sizes):
        rows = slice(m0, m0 + m)
        segments.append((rows, np.r_[rows, a0:a0 + a] if a else rows))
        m0, a0 = m0 + m, a0 + a
    # every product inside takes main rows, then (key/value) aux rows;
    # each intermediate is dropped once read, so outside a tape only the
    # arrays still ahead of the current product stay alive
    with nc.stage(np.repeat(stages * 2, sizes + aux_sizes)):
        normed = nc.layer_norm(nc.concat([main, aux], 0),
                               params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        q = _linear(nc.slice_(normed, 0, main.shape[0], 0), params, f"{p}.attn.q")
        kv = _linear(normed, params, f"{p}.attn.kv")
        del normed
        k = nc.slice_(kv, 0, config.dim, 1)
        v = nc.slice_(kv, config.dim, 2 * config.dim, 1)
        del kv
        attn = nc.multihead_attention(q, k, v, config.heads, segments)
        del q, k, v
        main = nc.add(main, _linear(attn, params, f"{p}.attn.out"))
        del attn
        ffn = _linear(nc.gelu(_linear(
            nc.layer_norm(main, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"]),
            params, f"{p}.ffn.l1")), params, f"{p}.ffn.l2")
    return nc.add(main, ffn)


def _embed_frames(gop: GopClip, params: ParamSet, grid_index: np.ndarray) -> Tensor:
    """Linear embedding plus positional and frame terms of the patches
    ``grid_index`` (``t * n + p`` for patch p of frame t), in frame order."""
    frame, pos = np.divmod(grid_index, gop.i_frame.count)
    patches = np.concatenate([gop.frame_patches(t)[pos[frame == t]] for t in range(gop.frames)])
    tok = _linear(Tensor(patches.astype(np.float64) / 255.0 - 0.5), params, "embed")
    tok = nc.add(tok, nc.gather_rows(params["pos"], pos))
    return nc.add(tok, nc.gather_rows(params["frame"], frame))


def _stack_plan(selected: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row layout of the sparse token stack: every patch of the first frame,
    then each P-frame's kept patches ``selected[t - 1]`` in ascending order.

    Returns ``grid_index``, ``t * n + p`` for each row holding patch p of
    frame t, in stack order; ``skip``, the (P-frames, n) mask of skipped
    patches; and ``at``, per P-frame and grid position, the row holding it
    when kept, its rank among the frame's skipped patches otherwise.
    """
    grid_index = np.concatenate([np.arange(n), *(t * n + s for t, s in enumerate(selected, 1))])
    x_row = np.full((1 + len(selected), n), -1)
    x_row.flat[grid_index] = np.arange(grid_index.size)
    skip = x_row[1:] < 0
    return grid_index, skip, np.where(skip, np.cumsum(skip, 1) - 1, x_row[1:])


def _pool_cells(gh: int, gw: int) -> list[np.ndarray]:
    """Grid positions of each 2x4 pooling cell, row-major over the cells."""
    row_edges = np.linspace(0, gh, _LOCAL_ROWS + 1).astype(int)
    col_edges = np.linspace(0, gw, _LOCAL_COLS + 1).astype(int)
    index = np.arange(gh * gw).reshape(gh, gw)
    return [index[row_edges[r]:row_edges[r + 1],
                  col_edges[c]:col_edges[c + 1]].reshape(-1)
            for r in range(_LOCAL_ROWS) for c in range(_LOCAL_COLS)]


def _check_clip(gop: GopClip, config: PsformerConfig) -> None:
    """Refuse, before any compute, a clip of a grid or length the config cannot serve."""
    if (gop.i_frame.grid_h, gop.i_frame.grid_w) != (config.grid_h, config.grid_w):
        raise ValidationError(f"clip grid {gop.i_frame.grid_h}x{gop.i_frame.grid_w} != "
                              f"config grid {config.grid_h}x{config.grid_w}")
    if gop.frames > config.max_frames:
        raise ValidationError(f"clip has {gop.frames} frames, config allows {config.max_frames}")


@dataclass
class RoutingEntry:
    layer: int
    frame: int
    cost: float
    open_path: bool


@dataclass
class PsformerResult:
    feature: Tensor
    context_pairs: list  # per layer: (first-frame mean in, previous mean); sparse only
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

    The token stack is one embedding call over the rows ``_stack_plan``
    lays out: every patch of the first frame, then each P-frame's kept
    patches in ascending order, each row scaled by its straight-through
    gate (1 on the first frame). The skipped patches are one (P-frames x
    patches) mask; their motion sources are read, and their residuals
    projected by the warp, once, frame-major, and a layer warps the rows
    of the frames it opens. Every
    layer runs its frames as one stacked pass: one attention block takes
    every frame's tokens, and routing, warp, refinement and pooling the
    rows of all P-frames, while attention and pooling stay per frame.
    """
    _check_clip(gop, config)
    sel = (selection.grid_h, selection.grid_w, selection.frames)
    if sel != (config.grid_h, config.grid_w, gop.frames):
        raise ValidationError(f"selection of grid {sel[0]}x{sel[1]} and {sel[2]} frames "
                              f"does not match the clip")
    n, t_total, p_count = config.patch_count, gop.frames, gop.frames - 1
    grid_index, skip, at = _stack_plan(selection.selected, n)
    sizes = n - skip.sum(1)  # kept rows per P-frame
    with nc.stage("embedding"):
        x = _embed_frames(gop, params, grid_index)
    # row t * n + p of the gates is patch p of frame t; the straight-through
    # path into the selector gives first-frame rows 1
    gates = nc.concat([Tensor(np.ones((n, 1))), *selection.gates], 0)
    x = nc.mul(x, nc.gather_rows(gates, grid_index))
    x_i = nc.slice_(x, 0, n, 0)
    # warp inputs of the skipped patches, frame-major with ascending
    # patches: motion sources, and the residual half of warp.pw.l1 over
    # them (``_warp_maps``, with the other operands every refinement shares)
    motion = gop.motion[skip]
    if p_count:
        with nc.stage("patchwise_warp"):
            residual_half, maps = _warp_maps(gop.residual[skip], params, config.dim)
    cells = _pool_cells(config.grid_h, config.grid_w)
    cell_sizes = [cell.size for cell in cells]
    cell_order = np.concatenate(cells)
    first = np.zeros(p_count, dtype=np.intp)  # every P-frame reads row 0

    # the context each P-frame carries: the mean of its kept tokens, or
    # the first frame's (row 0 of the frame means) when it has none
    cp_prev = nc.gather_rows(nc.segment_mean(x, [n, *sizes[sizes > 0]]),
                             np.where(sizes > 0, np.cumsum(sizes > 0), 0))

    routing: list[RoutingEntry] = []
    context_pairs = []
    for layer in range(config.layers):
        # at layer 0 the previous first-frame context is the current one
        ci_cur = nc.mean(x_i, 0)
        ci_prev = context_pairs[-1][0] if layer else ci_cur
        context_pairs.append((ci_cur, ci_prev))
        # a zero-row frame has nothing to attend; its aux key/value
        # projection would count MACs the cost model does not price
        frames = [(n, 0, "i_frame_msa")]
        aux = Tensor(np.zeros((0, config.dim)))
        if p_count:
            with nc.stage("global_warp"):
                cp_coarse = predict_context(
                    nc.gather_rows(nc.concat([ci_cur, ci_prev], 1), first), cp_prev, params)
            with nc.stage("routing"):
                ci_hat = predict_context(nc.concat([cp_coarse, cp_prev], 1),
                                         nc.gather_rows(ci_prev, first), params)
                costs = nc.cosine_distance(ci_hat, ci_cur).data[:, 0]
            is_open = costs > threshold
            routing.extend(RoutingEntry(layer, f + 1, float(costs[f]), bool(is_open[f]))
                           for f in range(p_count))
            opened = np.flatnonzero(is_open)

            # aux_rows[f]: rows of [cp_coarse; grid means; cell means] P-frame
            # f carries on as its context (column 0) and attends over if it
            # has kept rows: its coarse context when closed; when open, its own
            # context then its pooled summaries, the means of its [kept;
            # warped] tokens over the whole grid and over each pooling cell
            parts = [cp_coarse]
            aux_rows = np.repeat(np.arange(p_count)[:, None], OPEN_AUX, 1)
            aux_count = np.where(is_open, OPEN_AUX, CLOSED_AUX)
            if opened.size:
                # an opened frame that keeps every patch adds no rows; the
                # refinement runs even with none, so in training the warp
                # parameters still get (zero) gradients, which Adam's weight
                # decay steps
                warp = np.flatnonzero(np.repeat(is_open, n - sizes))
                with nc.stage("patchwise_warp"):
                    p_tilde = _refine_unselected(
                        x_i, motion[warp], nc.gather_rows(residual_half, warp), params, maps)
                # an opened frame's warped rows follow x and those of the
                # frames opened before it; each frame's grid is gathered
                # once, in cell order, for the whole-grid and cell means
                warped = n - sizes[opened]
                warped_at = x.shape[0] + np.cumsum(warped) - warped
                grid_rows = np.where(skip[opened], warped_at[:, None] + at[opened],
                                     at[opened])[:, cell_order]
                grid = nc.gather_rows(nc.concat([x, p_tilde], 0), grid_rows.ravel())
                del p_tilde
                k = opened.size
                parts += [nc.segment_mean(grid, [n] * k), nc.segment_mean(grid, cell_sizes * k)]
                del grid
                aux_rows[opened] = p_count + np.c_[np.arange(k),
                                                   np.arange(k, k * OPEN_AUX).reshape(k, -1)]
            sources = nc.concat(parts, 0)
            attends = (np.arange(OPEN_AUX) < aux_count[:, None]) & (sizes > 0)[:, None]
            aux = nc.gather_rows(sources, aux_rows[attends])
            frames += [(sizes[f], aux_count[f], "p_frame_msa") for f in np.flatnonzero(sizes)]
            cp_prev = nc.gather_rows(sources, aux_rows[:, 0])
        x = msa_block(x, aux, params, layer, config, frames)
        x_i = nc.slice_(x, 0, n, 0)

    # reinstate every skipped patch once from the final first-frame tokens;
    # with every patch kept there is nothing to reinstate, and no product
    # of the refinement is built (none would reach the feature or a loss)
    total = nc.sum_(x_i, 0)
    if p_count:
        total = nc.add(total, nc.sum_(nc.slice_(x, n, x.shape[0], 0), 0))
        if motion.size:
            with nc.stage("patchwise_warp"):
                p_tilde = _refine_unselected(x_i, motion, residual_half, params, maps)
            total = nc.add(total, nc.sum_(p_tilde, 0))
    feature = nc.scale(total, 1.0 / (n * t_total))
    return PsformerResult(feature=feature, context_pairs=context_pairs,
                          routing=routing)


def _warp_maps(residual: np.ndarray, params: ParamSet,
               dim: int) -> tuple[Tensor, tuple[Tensor, Tensor, Tensor]]:
    """The operands every refinement of a clip shares, formed once.

    ``warp.pw.l1`` reads ``[motion-source token | residual / 255]``, so its
    weight splits at row ``dim``. Returns the residual half of its product
    over every skipped patch's ``residual``, and the maps: the token half
    of its weight, and ``warp.pw.l3`` (which feeds only ``warp.q``)
    composed with ``warp.q`` as one weight and bias.
    """
    w1 = params["warp.pw.l1.w"]
    half = nc.matmul(Tensor(residual / 255.0), nc.slice_(w1, dim, w1.shape[0], 0))
    w3, wq = params["warp.pw.l3.w"], params["warp.q.w"]
    return half, (nc.slice_(w1, 0, dim, 0), nc.matmul(w3, wq),
                  nc.matmul(params["warp.pw.l3.b"], wq, params["warp.q.b"]))


def _refine_unselected(x_i: Tensor, motion: np.ndarray, residual_half: Tensor,
                       params: ParamSet, maps: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """Warp skipped patches from their motion sources, refine by attention.

    The rows may stack the skipped patches of several frames. The coarse
    estimate feeds on the motion-source token and the coded residual, whose
    half of the first warp layer's product ``residual_half`` holds
    (``_warp_maps``, which also gives ``maps``); the token half is formed
    over the first-frame grid and gathered by ``motion``. The refinement is one-head attention
    of every row against the current first-frame tokens.
    """
    w1_tokens, wq, bq = maps
    hidden = nc.gather_rows(nc.matmul(x_i, w1_tokens, params["warp.pw.l1.b"]), motion)
    hidden = nc.relu(nc.add(hidden, residual_half))
    hidden = nc.relu(_linear(hidden, params, "warp.pw.l2"))
    q = nc.matmul(hidden, wq, bq)
    del hidden
    k, v = _linear(x_i, params, "warp.k"), _linear(x_i, params, "warp.v")
    return nc.multihead_attention(q, k, v, 1,
                                  [(slice(0, q.shape[0]), slice(0, k.shape[0]))])


def dense_forward(gop: GopClip, params: ParamSet,
                  config: PsformerConfig) -> PsformerResult:
    """Dense reference pass: every frame contributes all of its patches.

    Used for the first training stage; each frame attends over its own
    full token set plus one aux token holding the frame's current mean,
    so the context operators see realistic inputs from the start. Each
    layer runs all frames as one stacked block. It returns no context
    pairs: the error-constraint loss reads them from sparse passes only.
    """
    _check_clip(gop, config)
    n, t_total = config.patch_count, gop.frames
    with nc.stage("embedding"):
        x = _embed_frames(gop, params, np.arange(n * t_total))
    frames = [(n, 1, "i_frame_msa")] + [(n, 1, "p_frame_msa")] * (t_total - 1)
    for layer in range(config.layers):
        # every frame's aux token is its mean
        x = msa_block(x, nc.segment_mean(x, [n] * t_total), params, layer, config, frames)
    return PsformerResult(feature=nc.mean(x, 0), context_pairs=[])
