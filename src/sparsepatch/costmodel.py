"""Analytic MAC estimators, and the exact cost a runtime counter must equal.

Two estimators share one cost kernel. ``estimate_vit`` prices a plain
per-frame transformer over every patch of every frame. ``estimate_ours``
prices the selective pipeline: the first frame at full width, later
frames at their kept-patch widths, warp and routing overheads per
(layer, frame), and optionally the selection network itself.

The counting rule everywhere: one MAC per multiply-accumulate of a
matmul; elementwise work, normalization, softmax, reductions, the SAD
search, and eigendecompositions cost zero and are disclosed separately
as uncounted operations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .gopcodec import PATCH_DIM
from .numcore import MacCounter
from .psformer import CLOSED_AUX, OPEN_AUX, warp_hidden
from .selector import CNN_CHANNELS, MLP_WIDTHS, SEMANTIC_DIM
from .videoio import PATCH

__all__ = [
    "Geometry",
    "CostReport",
    "STAGES",
    "msa_macs",
    "estimate_vit",
    "estimate_ours",
    "exact_cost",
    "runtime_counter_report",
    "bisect_kept_fraction",
]

STAGES = ("embedding", "i_frame_msa", "p_frame_msa", "patchwise_warp",
          "global_warp", "routing", "selection_cnn", "selector_mlp")


@dataclass(frozen=True)
class Geometry:
    height: int = 128
    width: int = 256
    frames: int = 8
    dim: int = 768
    layers: int = 12
    heads: int = 12

    def __post_init__(self):
        if min(self.height, self.width, self.frames, self.dim,
               self.layers, self.heads) < 1:
            raise ValidationError("geometry fields must be positive")
        if self.height % PATCH or self.width % PATCH:
            raise ValidationError("height and width must be multiples of 16")
        if self.dim % self.heads:
            raise ValidationError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def patch_count(self) -> int:
        return (self.height // PATCH) * (self.width // PATCH)

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class CostReport:
    """A priced cost: the total GMACs, its per-stage breakdown and the
    inputs it was priced at."""

    analytic_gmacs: float
    breakdown: dict[str, float]
    inputs: dict


# ---------------------------------------------------------------------------
# shared cost kernel
# ---------------------------------------------------------------------------


def msa_macs(m: float, aux: float, d: int) -> float:
    """One pre-norm MSA+FFN block over m main and aux key/value-only rows."""
    if m <= 0:
        return 0.0
    return m * 12 * d * d + aux * 2 * d * d + 2 * m * (m + aux) * d


def _warp_row_macs(geom: Geometry) -> float:
    """Per-row cost of a refinement: ``warp.pw.l2``, the query map composed
    of ``warp.pw.l3`` and ``warp.q``, and one-head attention over the
    first-frame grid (a row gathers its ``warp.pw.l1`` product)."""
    d, h, dk, n = geom.dim, warp_hidden(geom.dim), geom.head_dim, geom.patch_count
    return h * h + h * dk + n * dk + n * d


def _warp_call_macs(geom: Geometry) -> float:
    """Per-call cost of a refinement over the first-frame grid: the token
    half of ``warp.pw.l1`` and the key/value projections."""
    n, d, dk = geom.patch_count, geom.dim, geom.head_dim
    return n * d * warp_hidden(d) + n * d * dk + n * d * d


def _context_mlp_macs(geom: Geometry) -> float:
    """One evolution MLP plus one warp MLP evaluation (a 2d->h->d pair)."""
    return 6 * geom.dim * warp_hidden(geom.dim)


def _selection_macs(geom: Geometry) -> tuple[float, float]:
    """(selection_cnn, selector_mlp) MACs for one clip; the CNN's last layer
    runs the T-1 P-frames only, and a one-frame clip runs no CNN."""
    t, n = geom.frames, geom.patch_count
    if t < 2:
        return 0.0, 0.0
    cnn = 0.0
    hw = geom.height * geom.width
    for i, frames in enumerate([t] * (len(CNN_CHANNELS) - 2) + [t - 1]):
        positions = frames * hw // (4 ** (i + 1))
        cnn += positions * 27 * CNN_CHANNELS[i] * CNN_CHANNELS[i + 1]
    cnn += (t - 1) * n * n * SEMANTIC_DIM  # saliency-graph Gram product
    mlp = (t - 1) * n * sum(a * b for a, b in zip(MLP_WIDTHS, MLP_WIDTHS[1:]))
    return cnn, mlp


def _pipeline_macs(geom: Geometry, kept: list[float],
                   open_weights: list[list[float]],
                   include_selection: bool) -> dict[str, float]:
    """MACs per stage of the selective pipeline.

    ``kept[t-1]`` is P-frame t's kept patch count and
    ``open_weights[layer][t-1]`` the weight of its open route at that
    layer: 0 or 1 for a concrete run, the open rate for an estimate.
    Embedding, I-frame MSA, the global-warp and routing context MLPs, the
    post-stack reinstatement of every skipped patch and the selection
    network do not depend on routing. A layer runs one refinement call,
    of no rows if need be, when any of its frames opens, so it is charged
    1 - prod(1 - w) calls; the reinstatement runs one only when some
    patch was skipped.
    """
    n, d, l, t = geom.patch_count, geom.dim, geom.layers, geom.frames
    h, dk = warp_hidden(d), geom.head_dim
    w_row, w_call = _warp_row_macs(geom), _warp_call_macs(geom)
    skipped = sum(n - k for k in kept)
    breakdown = {k: 0.0 for k in STAGES}
    breakdown["embedding"] = n * PATCH_DIM * d + sum(kept) * PATCH_DIM * d
    breakdown["i_frame_msa"] = l * msa_macs(n, 0, d)
    breakdown["global_warp"] = l * (t - 1) * _context_mlp_macs(geom)
    breakdown["routing"] = l * (t - 1) * _context_mlp_macs(geom)
    if t > 1:
        # once per clip: the residual half of warp.pw.l1 over every skipped
        # patch, and the composed query map's weight and bias
        breakdown["patchwise_warp"] = skipped * PATCH_DIM * h + (h + 1) * d * dk
    if skipped > 0:
        breakdown["patchwise_warp"] += w_call + skipped * w_row
    if include_selection:
        breakdown["selection_cnn"], breakdown["selector_mlp"] = _selection_macs(geom)
    for weights in open_weights:
        all_closed = 1.0
        for w, k in zip(weights, kept):
            breakdown["p_frame_msa"] += (1 - w) * msa_macs(k, CLOSED_AUX, d) \
                + w * msa_macs(k, OPEN_AUX, d)
            breakdown["patchwise_warp"] += w * (n - k) * w_row
            all_closed *= 1 - w
        breakdown["patchwise_warp"] += (1 - all_closed) * w_call
    return breakdown


def _report(breakdown_macs: dict[str, float], inputs: dict) -> CostReport:
    breakdown = {k: v / 1e9 for k, v in breakdown_macs.items()}
    return CostReport(
        analytic_gmacs=sum(breakdown.values()),
        breakdown=breakdown,
        inputs=inputs,
    )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def estimate_vit(geom: Geometry) -> CostReport:
    """Plain per-frame transformer over all patches of all frames."""
    n, d, l, t = geom.patch_count, geom.dim, geom.layers, geom.frames
    per_frame_layers = l * msa_macs(n, 0, d)
    breakdown = {k: 0.0 for k in STAGES}
    breakdown["embedding"] = t * n * PATCH_DIM * d
    breakdown["i_frame_msa"] = per_frame_layers
    breakdown["p_frame_msa"] = (t - 1) * per_frame_layers
    return _report(breakdown, {"kept_fraction": 1.0, "gate_open_rate": 0.0,
                               "geometry": asdict(geom)})


def estimate_ours(geom: Geometry, kept_fraction: float, gate_open_rate: float,
                  include_selection: bool) -> CostReport:
    """Selective pipeline cost at a uniform kept fraction and open rate.

    ``kept_fraction`` applies to every P-frame and ``gate_open_rate`` to
    every (layer, frame). A warp refinement's products over the
    first-frame grid are charged once per layer that opens at least one
    frame, so at rate g the expected number of charged layers is
    L * (1 - (1-g)^(T-1)), plus one for the post-stack reinstatement when
    the kept fraction is below 1.
    """
    for name, rate in (("kept_fraction", kept_fraction),
                       ("gate_open_rate", gate_open_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"{name} {rate} outside [0, 1]")
    kept = [kept_fraction * geom.patch_count] * (geom.frames - 1)
    weights = [[gate_open_rate] * len(kept)] * geom.layers
    breakdown = _pipeline_macs(geom, kept, weights, include_selection)
    return _report(breakdown, {"kept_fraction": float(kept_fraction),
                               "gate_open_rate": float(gate_open_rate),
                               "geometry": asdict(geom)})


def exact_cost(geom: Geometry, kept_counts: list[int],
               open_pattern: list[tuple[int, int]]) -> CostReport:
    """Cost of one concrete run, selection network included: integer kept
    counts, explicit open set.

    ``open_pattern`` holds (layer, frame) pairs with frame >= 1; this is
    the exact accounting the runtime counter should reproduce MAC for MAC.
    """
    n, l, t = geom.patch_count, geom.layers, geom.frames
    if len(kept_counts) != t - 1:
        raise ValidationError(f"need {t - 1} kept counts, got {len(kept_counts)}")
    for k in kept_counts:
        if not 0 <= k <= n:
            raise ValidationError(f"kept count {k} outside [0, {n}]")
    open_set = set()
    for layer, frame in open_pattern:
        if not (0 <= layer < l and 1 <= frame < t):
            raise ValidationError(f"open entry ({layer}, {frame}) out of range")
        open_set.add((layer, frame))
    open_weights = [[int((layer, frame) in open_set) for frame in range(1, t)]
                    for layer in range(l)]
    breakdown = _pipeline_macs(geom, kept_counts, open_weights,
                               include_selection=True)
    mean_f = float(np.mean([k / n for k in kept_counts])) if kept_counts else 0.0
    rate = len(open_set) / (l * (t - 1)) if t > 1 else 0.0
    return _report(breakdown, {"kept_fraction": mean_f,
                               "gate_open_rate": rate,
                               "geometry": asdict(geom)})


def runtime_counter_report(counter: MacCounter, geom: Geometry,
                           kept_counts: list[int],
                           open_pattern: list[tuple[int, int]]) -> CostReport:
    """The exact cost of the run a live counter tallied, for comparing
    the counter with it stage by stage."""
    if counter is None or counter.total == 0:
        raise ValidationError("runtime report needs a counter with recorded MACs")
    return exact_cost(geom, kept_counts, open_pattern)


_BISECT_STEPS = 80


def bisect_kept_fraction(geom: Geometry, target_gmacs: float,
                         gate_open_rate: float, bounds: tuple[float, float],
                         include_selection: bool) -> tuple[float, CostReport]:
    """Uniform kept_fraction whose estimate is closest to the target.

    The estimate is strictly increasing in the fraction below 1, so
    bisection converges; targets outside the reachable range clamp to a
    bound. At a fraction of exactly 1 nothing is reinstated, so the
    estimate there drops by one refinement call's products.
    """
    lo, hi = bounds
    if not 0.0 <= lo < hi <= 1.0:
        raise ValidationError(f"bad bounds {bounds}")
    if target_gmacs <= 0:
        raise ValidationError("target must be positive")

    def value(f):
        return estimate_ours(geom, f, gate_open_rate,
                             include_selection).analytic_gmacs

    if value(lo) >= target_gmacs:
        f = lo
    elif value(hi) <= target_gmacs:
        f = hi
    else:
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if value(mid) < target_gmacs:
                lo = mid
            else:
                hi = mid
        f = 0.5 * (lo + hi)
    return f, estimate_ours(geom, f, gate_open_rate, include_selection)
