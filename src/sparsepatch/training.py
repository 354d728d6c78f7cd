"""Losses and the two-stage optimization loop over synthetic identities.

Stage 1 trains the transformer densely: every frame contributes all of
its patches and the per-layer context token is the true mean of that
frame's tokens. Stage 2 switches to the sparse pipeline (selection,
warping, routing) and adds a ranking penalty that teaches the context
reconstruction cost to grow with the amount of noise injected into the
context it reconstructs, which is what makes the cost usable as a
routing signal. The penalty and the router share one predictor,
``psformer.predict_context``, so they price the same reconstruction:
the router over one row per P-frame, the penalty over one row per
(layer, noise level), each in a single stacked pass.

Identity supervision uses a linear classifier head (cross entropy) plus
a batch-hard triplet loss on the clip features. Batches follow the P x K
convention: a handful of identities, a fixed number of clips each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .errors import ValidationError
from .gopcodec import GopClip, encode_gop
from .numcore import ParamSet, Tensor
from .psformer import (
    PsformerConfig,
    PsformerResult,
    dense_forward,
    init_psformer_params,
    predict_context,
    psformer_forward,
)
from .selector import init_selector_params, select_patches
from .videoio import SynthSpec, synth_clip

__all__ = [
    "TrainConfig",
    "ClipRecord",
    "TrainResult",
    "cross_entropy",
    "hard_triplet",
    "error_constraint_loss",
    "Adam",
    "lr_for_epoch",
    "make_dataset",
    "extract_feature",
    "rank1",
    "two_stage_train",
    "log_to_csv",
]


@dataclass(frozen=True)
class TrainConfig:
    stage1_epochs: int = 20
    stage2_epochs: int = 20
    learning_rate: float = 5e-4
    decay_every: int = 40
    decay_factor: float = 0.1
    weight_decay: float = 5e-4
    triplet_margin: float = 0.3
    noise_samples: int = 4
    batch_identities: int = 4
    batch_clips: int = 2
    error_weight: float = 1.0
    threshold: float = 0.5
    heldout_clips: int = 2
    # evaluate every this many epochs and always after the last; <= 0
    # evaluates only the last epoch
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ValidationError("epoch counts must be >= 0")
        if self.noise_samples < 2:
            raise ValidationError("noise_samples must be >= 2")
        if self.batch_identities < 2 or self.batch_clips < 2:
            raise ValidationError(
                "triplet mining needs >= 2 identities and >= 2 clips each")
        if self.heldout_clips < 0:
            raise ValidationError("heldout_clips must be >= 0")
        if self.decay_every < 1:
            raise ValidationError("decay_every must be >= 1")

    @property
    def total_epochs(self) -> int:
        return self.stage1_epochs + self.stage2_epochs


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class."""
    # the row maxima shift out as a constant, so they carry no gradient
    shifted = nc.sub(logits, Tensor(logits.data.max(axis=1, keepdims=True)))
    log_z = nc.log_(nc.sum_(nc.exp_(shifted), 1))
    log_p = nc.sub(nc.gather_labels(shifted, labels), log_z)
    return nc.scale(nc.mean(log_p, None), -1.0)


def hard_triplet(features: Tensor, labels, margin: float) -> Tensor:
    """Batch-hard triplet loss with Euclidean distances.

    Per anchor: hardest (farthest) positive minus hardest (closest)
    negative plus margin, hinged at zero, averaged over anchors.
    """
    labels = np.asarray(labels).ravel()
    b = features.shape[0]
    if labels.shape[0] != b:
        raise ValidationError(f"need {b} labels, got {labels.shape[0]}")
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(b, dtype=bool)
    neg_mask = ~same
    if not pos_mask.any(axis=1).all():
        raise ValidationError("some anchor has no positive in the batch")
    if not neg_mask.any(axis=1).all():
        raise ValidationError("some anchor has no negative in the batch")

    sq = nc.sum_(nc.mul(features, features), 1)
    cross = nc.matmul(features, nc.transpose(features))
    d2 = nc.add(nc.add(sq, nc.transpose(sq)), nc.scale(cross, -2.0))
    dist = nc.sqrt_(nc.add_const(nc.relu(d2), 1e-12))

    pos = nc.add(dist, Tensor(np.where(pos_mask, 0.0, -1e18)))
    hardest_pos = nc.gather_labels(pos, pos.data.argmax(axis=1))
    neg = nc.add(dist, Tensor(np.where(neg_mask, 0.0, 1e18)))
    hardest_neg = nc.gather_labels(neg, neg.data.argmin(axis=1))
    hinge = nc.relu(nc.add_const(nc.sub(hardest_pos, hardest_neg), margin))
    return nc.mean(hinge, None)


def error_constraint_loss(context_pairs, params: ParamSet,
                          noise_samples: int, seed: int) -> Tensor:
    """Ranking penalty tying reconstruction cost to injected noise level.

    For each layer's (current, previous) context pair, blend the current
    context with standard Gaussian noise at ``noise_samples`` sorted
    mixing levels, and penalize every sample pair whose reconstruction
    cost fails to increase with the mixing level. Every (layer, level)
    is one row of a single pass through ``psformer.predict_context``
    (the predictor whose cost routes the sparse forward), so the op
    count does not depend on the number of layers or levels.
    """
    if noise_samples < 2:
        raise ValidationError("noise_samples must be >= 2")
    if not context_pairs:
        return Tensor(np.zeros((1, 1)))
    layers, s = len(context_pairs), noise_samples
    alphas, noise = [], []
    for layer, (c_cur, _) in enumerate(context_pairs):
        rng = nc.rng_stream(seed, "errloss", layer)
        alphas.append(np.sort(rng.uniform(0.0, 1.0, size=s)))
        noise.append(rng.standard_normal((s, c_cur.shape[1])))
    alpha = np.concatenate(alphas)[:, None]
    # row layer * s + k is layer's k-th mixing level
    rows = np.repeat(np.arange(layers), s)
    cur = nc.gather_rows(nc.concat([c for c, _ in context_pairs], 0), rows)
    prev = nc.gather_rows(nc.concat([p for _, p in context_pairs], 0), rows)
    mixed = nc.add(nc.mul(cur, Tensor(1.0 - alpha)), Tensor(alpha * np.vstack(noise)))
    costs = nc.cosine_distance(predict_context(nc.concat([mixed, prev], 1), prev, params), cur)
    i, j = np.triu_indices(s, 1)
    first = np.arange(0, layers * s, s)[:, None]
    gap = nc.sub(nc.gather_rows(costs, first + i), nc.gather_rows(costs, first + j))
    return nc.sum_(nc.relu(gap), None)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


class Adam:
    """Adaptive moment estimation over a ParamSet.

    Only parameters that received a gradient in the current step are
    touched; everything else keeps its value and its moment state. The
    weight decay is classic L2 (added to the gradient).
    """

    def __init__(self, params: ParamSet, weight_decay: float):
        self.params = params
        self.weight_decay = weight_decay
        self._state: dict[str, list] = {}

    def step(self, lr: float) -> None:
        b1, b2 = _ADAM_BETAS
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            if name not in self._state:
                self._state[name] = [np.zeros_like(p.data),
                                     np.zeros_like(p.data), 0]
            m, v, t = self._state[name]
            t += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            self._state[name] = [m, v, t]
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def lr_for_epoch(base: float, epoch: int, decay_every: int,
                 decay_factor: float) -> float:
    return base * decay_factor ** (epoch // decay_every)


# ---------------------------------------------------------------------------
# dataset and evaluation
# ---------------------------------------------------------------------------


@dataclass
class ClipRecord:
    gop: GopClip
    identity: int
    clip: int


def make_dataset(spec: SynthSpec) -> list[ClipRecord]:
    """Render and encode every (identity, clip) combination of a SynthSpec."""
    records = []
    for ident in range(spec.identity_count):
        for clip in range(spec.clips_per_identity):
            raw = synth_clip(spec, identity=ident, clip_seed=clip)
            records.append(ClipRecord(gop=encode_gop(raw), identity=ident,
                                      clip=clip))
    return records


def extract_feature(gop: GopClip, params: ParamSet, model: PsformerConfig,
                    threshold: float, dense: bool) -> tuple[PsformerResult, list[int]]:
    """One clip's inference pass by the dense (stage 1) or sparse
    (stage 2) path: the forward's result and each P-frame's kept patch
    count, every patch when dense."""
    if dense:
        return dense_forward(gop, params, model), [model.patch_count] * (gop.frames - 1)
    sel = select_patches(gop, params, mode="infer")
    return psformer_forward(gop, sel, params, model, threshold=threshold), sel.kept_counts


def rank1(features: np.ndarray, labels) -> float:
    """Leave-one-out nearest-neighbor identity accuracy."""
    labels = np.asarray(labels).ravel()
    m = features.shape[0]
    if m < 2:
        raise ValidationError("rank-1 needs at least two samples")
    d2 = ((features[:, None, :] - features[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nearest = d2.argmin(axis=1)
    return float((labels[nearest] == labels).mean())


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ParamSet
    log: list = field(default_factory=list)

    @property
    def final_heldout_rank1(self) -> float:
        return self.log[-1]["heldout_rank1"] if self.log else 0.0


def _pk_batches(records: list[ClipRecord], config: TrainConfig,
                rng: np.random.Generator) -> list[list[ClipRecord]]:
    """Partition identities into P-sized groups, K random clips each."""
    by_id: dict[int, list[ClipRecord]] = {}
    for rec in records:
        by_id.setdefault(rec.identity, []).append(rec)
    order = rng.permutation(sorted(by_id))
    batches = []
    p = config.batch_identities
    for start in range(0, len(order), p):
        group = order[start:start + p]
        if len(group) < 2:
            continue  # a lone trailing identity cannot form triplets
        batch = []
        for ident in group:
            clips = by_id[int(ident)]
            picks = rng.choice(len(clips), size=config.batch_clips,
                               replace=False)
            batch.extend(clips[i] for i in picks)
        batches.append(batch)
    return batches


def _eval_rank1(records: list[ClipRecord], params: ParamSet,
                model: PsformerConfig, threshold: float, dense: bool) -> float:
    feats = np.vstack([extract_feature(r.gop, params, model, threshold, dense)[0].feature.data
                       for r in records])
    return rank1(feats, [r.identity for r in records])


def two_stage_train(spec: SynthSpec, config: TrainConfig,
                    model: PsformerConfig) -> TrainResult:
    """Dense warm-up then sparse fine-tuning over a synthetic dataset.

    Returns the trained parameters plus a per-epoch convergence log with
    rank-1 scores on a training subsample and on the held-out clips.
    """
    # every identity has the same clips: check the split before rendering
    train_clips = spec.clips_per_identity - config.heldout_clips
    if train_clips < 1:
        raise ValidationError("heldout_clips must leave clips to train on")
    if spec.identity_count < 2:
        raise ValidationError("training needs >= 2 identities")
    if train_clips < config.batch_clips:
        raise ValidationError(
            f"identity 0 has fewer than {config.batch_clips} clips")
    records = make_dataset(spec)
    train = [r for r in records if r.clip < train_clips]
    heldout = [r for r in records if r.clip >= train_clips]

    params = init_psformer_params(model, seed=config.seed)
    init_selector_params(seed=config.seed + 1, params=params)
    head_rng = nc.rng_stream(config.seed, "init", "cls")
    params.add("cls.w", head_rng.standard_normal(
        (model.dim, spec.identity_count)) / np.sqrt(model.dim))
    params.add("cls.b", np.zeros((1, spec.identity_count)))

    opt = Adam(params, config.weight_decay)
    # fixed subsample keeps the per-epoch train metric comparable over time
    train_probe = [r for r in train if r.clip < 2]
    log: list[dict] = []
    step = 0

    for epoch in range(config.total_epochs):
        stage = 1 if epoch < config.stage1_epochs else 2
        lr = lr_for_epoch(config.learning_rate, epoch, config.decay_every,
                          config.decay_factor)
        batch_rng = nc.rng_stream(config.seed, "batch", epoch)
        sums = {"cent": 0.0, "tri": 0.0, "err": 0.0}
        batches = _pk_batches(train, config, batch_rng)
        for batch in batches:
            params.zero_grad()
            labels = [r.identity for r in batch]
            with nc.tape() as t:
                feats = []
                err_terms = []
                for slot, rec in enumerate(batch):
                    if stage == 1:
                        res = dense_forward(rec.gop, params, model)
                    else:
                        sel = select_patches(rec.gop, params, mode="train",
                                             seed=step * 131 + slot)
                        res = psformer_forward(rec.gop, sel, params, model,
                                               threshold=config.threshold)
                    feats.append(res.feature)
                    if stage == 2 and config.error_weight > 0.0:
                        err_terms.append(error_constraint_loss(
                            res.context_pairs, params,
                            noise_samples=config.noise_samples,
                            seed=step * 131 + slot))
                f = nc.concat(feats, 0)
                logits = nc.matmul(f, params["cls.w"], params["cls.b"])
                l_cent = cross_entropy(logits, labels)
                l_tri = hard_triplet(f, labels, config.triplet_margin)
                loss = nc.add(l_cent, l_tri)
                if err_terms:
                    l_err = nc.scale(
                        nc.sum_(nc.concat(err_terms, 0), None),
                        config.error_weight / len(err_terms))
                    loss = nc.add(loss, l_err)
                    sums["err"] += float(l_err.data[0, 0])
                t.backward(loss)
            opt.step(lr=lr)
            sums["cent"] += float(l_cent.data[0, 0])
            sums["tri"] += float(l_tri.data[0, 0])
            step += 1

        nb = max(1, len(batches))
        row = {
            "epoch": epoch,
            "stage": stage,
            "loss_cent": sums["cent"] / nb,
            "loss_tri": sums["tri"] / nb,
            "loss_error": sums["err"] / nb,
            "train_rank1": float("nan"),
            "heldout_rank1": float("nan"),
        }
        last = epoch == config.total_epochs - 1
        if last or (config.eval_every > 0 and epoch % config.eval_every == 0):
            row["train_rank1"] = _eval_rank1(train_probe, params, model,
                                             config.threshold, stage == 1)
            if heldout:
                row["heldout_rank1"] = _eval_rank1(heldout, params, model,
                                                   config.threshold, stage == 1)
        log.append(row)

    return TrainResult(params=params, log=log)


def log_to_csv(log: list[dict]) -> str:
    cols = ["epoch", "stage", "loss_cent", "loss_tri", "loss_error",
            "train_rank1", "heldout_rank1"]
    lines = [",".join(cols)]
    for row in log:
        lines.append(",".join(
            f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c])
            for c in cols))
    return "\n".join(lines) + "\n"
