"""Differentiable patch selection over an encoded clip.

Per P-frame patch, three feature blocks feed a small scoring MLP:

* the codec's motion residual (what the I-frame cannot explain),
* saliency-scaled semantics from a shallow 3-D CNN (where the mover is;
  ``spectral.prominent_eigvec`` gives the saliency, zero on a frame with
  no usable split),
* a progressive residual against a pool of already-kept pixel patches
  (what previous selections cannot explain either).

``select_patches`` owns the keep decision. ``score_gate`` gives each
patch its MLP score; in training ``select_patches`` jitters it with
seeded unit Gaussian noise, at inference it takes it as is, and either
way ``numcore.hard_gate`` keeps the patch when the result is positive:
a strict sign test whose 0/1 decision backpropagates through a
saturating-sigmoid surrogate. Selected patches join the pool so later
frames can skip content that was already kept.

The pool is one int16 array: the I-frame's patches, then each P-frame's
kept patches in ascending patch index, frame by frame. That row order is
the tie-break order of the nearest-patch search.

The CNN's memory is bounded by a byte budget, ``_CNN_BLOCK_BYTES``: each
layer forms its im2col for as many centre frames at a time as fit it,
and drops each one once its product is formed, so a layer holds its
input, its output and one block's im2col (with the zero-padded frames
that block reads). A clip whose layers fit the budget runs every layer
as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ShapeError, ValidationError
from .gopcodec import PATCH_DIM, GopClip, decode_gop, sad_nearest
from .numcore import ParamSet, Tensor
from .spectral import prominent_eigvec
from .videoio import PATCH, RawClip

CNN_CHANNELS = (3, 16, 32, 64, 64)
SEMANTIC_DIM = CNN_CHANNELS[-1]
FEATURE_DIM = PATCH_DIM + SEMANTIC_DIM + PATCH_DIM  # 1600
MLP_WIDTHS = (FEATURE_DIM, 256, 64, 1)


# ---------------------------------------------------------------------------
# shallow 3-D CNN
# ---------------------------------------------------------------------------

# the last layer samples at odd positions so the stacked receptive fields
# center on 16x16 patch centers (16*v + 8) instead of patch corners
_LAYER_OFFSETS = (0, 0, 0, 1)
# im2col bytes a conv layer may hold at once; see shallow_3dcnn
_CNN_BLOCK_BYTES = 1 << 23


# conv0 channel split: backward temporal difference / color-opponent /
# gray, with per-group gains. Bias channels on the last conv give every
# patch a shared feature floor. See init_selector_params.
_MOTION_CHANNELS = 8
_COLOR_CHANNELS = 4
_MOTION_GAIN = 8.0
_COLOR_GAIN = 4.0
_GRAY_GAIN = 0.3
_BIAS_CHANNELS = 8
_BIAS_VALUE = 0.3
_BIAS_W_SCALE = 0.1


def init_selector_params(seed: int, params: ParamSet | None = None) -> ParamSet:
    """Structured init that makes the untrained saliency informative.

    The first conv splits its channels into backward temporal difference
    (zero response on static content), color-opponent (zero on gray
    content), and low-gain gray groups; deeper convs start from their
    center tap so a patch's feature depends on (nearly) its own pixels;
    the last conv reserves a few positive-bias channels so every patch
    shares a feature floor and the frame graph stays connected. With
    inner-product affinities this seeds a clean mover-vs-rest spectral
    split before any training; training is free to reshape all of it.
    """
    if params is None:
        params = ParamSet()
    # each conv weight is a (3, 3, 3, cin, cout) window over (dt, dy, dx,
    # channel), flattened to the column order of numcore.neighborhood_rows
    rng = nc.rng_stream(seed, "init", "sel.conv0")
    cin = CNN_CHANNELS[0]
    w0 = np.zeros((3, 3, 3, cin, CNN_CHANNELS[1]))
    for ch in range(CNN_CHANNELS[1]):
        if ch < _MOTION_CHANNELS:
            g = rng.standard_normal((3, 3, cin)) * (np.sqrt(2.0 / (27 * cin)) * _MOTION_GAIN)
            w0[0, ..., ch] = g    # dt = -1
            w0[1, ..., ch] = -g   # dt = 0
        elif ch < _MOTION_CHANNELS + _COLOR_CHANNELS:
            ab = rng.standard_normal((3, 3, 2)) * (np.sqrt(2.0 / (9 * cin)) * _COLOR_GAIN)
            w0[1, ..., ch] = np.concatenate([ab, -ab[..., :1] - ab[..., 1:]], axis=2)
        else:
            lum = rng.standard_normal((3, 3, 1)) * (np.sqrt(2.0 / (9 * cin)) * _GRAY_GAIN)
            w0[1, ..., ch] = lum
    params.add("sel.conv0.w", w0.reshape(-1, CNN_CHANNELS[1]))
    params.add("sel.conv0.b", np.zeros((1, CNN_CHANNELS[1])))
    for i in (1, 2, 3):
        cin, cout = CNN_CHANNELS[i], CNN_CHANNELS[i + 1]
        rng = nc.rng_stream(seed, "init", f"sel.conv{i}")
        w = np.zeros((3, 3, 3, cin, cout))
        w[1, 1, 1] = rng.standard_normal((cin, cout)) * np.sqrt(2.0 / cin)  # centre tap
        w = w.reshape(-1, cout)
        b = np.zeros((1, cout))
        if i == 3:
            w[:, :_BIAS_CHANNELS] *= _BIAS_W_SCALE
            b[0, :_BIAS_CHANNELS] = _BIAS_VALUE
        params.add(f"sel.conv{i}.w", w)
        params.add(f"sel.conv{i}.b", b)
    for i in range(3):
        fan_in, fan_out = MLP_WIDTHS[i], MLP_WIDTHS[i + 1]
        rng = nc.rng_stream(seed, "init", f"sel.mlp{i}")
        gain = 2.0 if i < 2 else 1.0  # relu layers vs the linear head
        params.add(f"sel.mlp{i}.w",
                   rng.standard_normal((fan_in, fan_out)) * np.sqrt(gain / fan_in))
        params.add(f"sel.mlp{i}.b", np.zeros((1, fan_out)))
    return params


def shallow_3dcnn(clip: RawClip, params: ParamSet) -> list[Tensor]:
    """Four 3x3x3 conv+ReLU layers, spatial stride 2 each, temporal stride 1.

    Spatial extent shrinks 16x, so the output grid matches the patch grid:
    one (N, 64) map per frame, whose row v describes patch v exactly.

    Each layer runs over blocks of as many centre frames as fit
    ``_CNN_BLOCK_BYTES`` of im2col (at least one), stacked in frame
    order. Blocks split only product rows, so the MACs are those of one
    block.
    """
    t, h, w = clip.frames, clip.height, clip.width
    if h % PATCH or w % PATCH:
        raise ValidationError("clip dimensions must be multiples of 16")
    x = Tensor(clip.pixels.reshape(t * h * w, 3) / 255.0 - 0.5)
    n = (h // PATCH) * (w // PATCH)
    with nc.stage("selection_cnn"):
        for i, offset in enumerate(_LAYER_OFFSETS):
            weight, bias = params[f"sel.conv{i}.w"], params[f"sel.conv{i}.b"]
            step = max(1, _CNN_BLOCK_BYTES // ((h // 2) * (w // 2) * weight.shape[0] * 8))
            # each im2col is only an argument, so it goes once its product is formed
            blocks = [nc.relu(nc.matmul(
                nc.neighborhood_rows(x, t, h, w, offset, range(t0, min(t0 + step, t))),
                weight, bias)) for t0 in range(0, t, step)]
            x = blocks[0] if len(blocks) == 1 else nc.concat(blocks, 0)
            del blocks
            h, w = h // 2, w // 2
    return [nc.slice_(x, ti * n, (ti + 1) * n, 0) for ti in range(t)]


def patch_semantics(f_map: Tensor, saliency: np.ndarray) -> Tensor:
    """Scale each patch's feature row by its saliency score."""
    if f_map.shape[0] != saliency.shape[0]:
        raise ValidationError(
            f"saliency length {saliency.shape[0]} != patch count {f_map.shape[0]}")
    weights = Tensor(saliency.reshape(-1, 1))
    return nc.mul(f_map, weights)


def gate_features(residual: np.ndarray, f_map: Tensor, saliency: np.ndarray,
                  progressive: np.ndarray) -> Tensor:
    """One P-frame's (N, FEATURE_DIM) gate input: the codec residual / 255,
    the saliency-scaled semantics, and the progressive residual / 255."""
    return nc.concat([Tensor(residual / 255.0),
                      patch_semantics(f_map, saliency),
                      Tensor(progressive / 255.0)], 1)


# ---------------------------------------------------------------------------
# progressive residual
# ---------------------------------------------------------------------------


def progressive_residual(patches: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Signed (M, dim) differences of the int16 ``patches`` to each row's
    L1-nearest pool row (earliest on ties). Both hold pixel values in
    [0, 255], the domain ``sad_nearest`` takes."""
    idx, _ = sad_nearest(patches, pool)
    return patches - pool[idx]


# ---------------------------------------------------------------------------
# scoring gate
# ---------------------------------------------------------------------------


def score_gate(features: Tensor, params: ParamSet) -> Tensor:
    """The gate MLP's (N, 1) score for each row of ``features``."""
    if features.shape[1] != FEATURE_DIM:
        raise ShapeError(f"gate features must be (N, {FEATURE_DIM}), got {features.shape}")
    h = nc.relu(nc.matmul(features, params["sel.mlp0.w"], params["sel.mlp0.b"]))
    h = nc.relu(nc.matmul(h, params["sel.mlp1.w"], params["sel.mlp1.b"]))
    return nc.matmul(h, params["sel.mlp2.w"], params["sel.mlp2.b"])


# ---------------------------------------------------------------------------
# full selection pass
# ---------------------------------------------------------------------------


@dataclass
class SelectionResult:
    """Everything downstream consumers need about one clip's selection.

    ``selected[t-1]`` holds ascending kept patch indices for P-frame t;
    ``gates[t-1]`` is the (N, 1) multiplier tensor whose straight-through
    gradients reach the CNN and scoring MLP when the selection runs under
    a tape, in either mode. ``pool`` is the final progressive pool: the
    I-frame patches, then every kept patch.
    """

    frames: int
    grid_h: int
    grid_w: int
    mode: str
    selected: list[np.ndarray]
    gates: list[Tensor]
    saliency: list[np.ndarray]
    pool: np.ndarray

    @property
    def patch_count(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def kept_counts(self) -> list[int]:
        return [int(s.size) for s in self.selected]

    @property
    def kept_fraction(self) -> float:
        if self.frames < 2:
            return 0.0
        return sum(self.kept_counts) / (self.patch_count * (self.frames - 1))

    def summary(self) -> dict:
        return {
            "frames": self.frames,
            "grid": [self.grid_h, self.grid_w],
            "mode": self.mode,
            "kept_per_frame": self.kept_counts,
            "kept_fraction": round(self.kept_fraction, 6),
            "pool_size": self.pool.shape[0],
            "selected": [s.tolist() for s in self.selected],
        }


def select_patches(gop: GopClip, params: ParamSet, mode: str = "infer",
                   seed: int = 0,
                   semantics: list[Tensor] | None = None) -> SelectionResult:
    """Run the full selection pipeline over an encoded clip.

    Frames are processed in time order; each P-frame's progressive
    residuals are measured against the pool as it stood *before* that
    frame, then its kept patches are appended. ``semantics``, when given,
    is ``shallow_3dcnn``'s per-frame maps of the decoded clip. A clip with
    one frame yields an empty selection and runs no CNN. A frame whose
    semantics give no usable saliency split (a static or blank frame, say)
    gets zero saliency from ``prominent_eigvec``, which tallies it as
    ``saliency_fallbacks``, so its residual terms decide.

    A patch is kept when its ``score_gate`` score is positive after
    ``"train"`` mode adds seeded unit Gaussian noise (``"infer"`` adds
    none). ``numcore.hard_gate`` makes that 0/1 decision and carries its
    straight-through gradient.
    """
    if mode not in ("train", "infer"):
        raise ValidationError(f"mode must be 'train' or 'infer', got {mode!r}")
    n = gop.i_frame.count
    if semantics is None:
        semantics = shallow_3dcnn(decode_gop(gop), params) if gop.frames > 1 else []
    elif len(semantics) != gop.frames or any(f.shape[0] != n for f in semantics):
        raise ValidationError("semantics do not match the encoded clip")

    pool = gop.i_frame.patches.copy()
    selected: list[np.ndarray] = []
    gates: list[Tensor] = []
    saliencies: list[np.ndarray] = []

    for t in range(1, gop.frames):
        f_map = semantics[t]
        # the saliency graph's Gram product is charged to the CNN's stage
        with nc.stage("selection_cnn"):
            sal = prominent_eigvec(f_map.data)

        recon = gop.frame_patches(t)
        prog = progressive_residual(recon, pool)
        feats = gate_features(gop.residual[t - 1], f_map, sal, prog)
        with nc.stage("selector_mlp"):
            score = score_gate(feats, params)
            if mode == "train":
                noise = nc.rng_stream(seed, "gate-noise", t).standard_normal(score.shape)
                score = nc.add(score, Tensor(noise))
            gate = nc.hard_gate(score)

        keep = np.flatnonzero(gate.data)
        pool = np.concatenate([pool, recon[keep]])
        selected.append(keep)
        gates.append(gate)
        saliencies.append(sal)

    return SelectionResult(
        frames=gop.frames, grid_h=gop.i_frame.grid_h, grid_w=gop.i_frame.grid_w,
        mode=mode, selected=selected, gates=gates, saliency=saliencies, pool=pool)
