import numpy as np
import pytest

from sparsepatch import numcore as nc
from sparsepatch import training
from sparsepatch.errors import ShapeError, ValidationError
from sparsepatch.numcore import ParamSet, Tensor
from sparsepatch.psformer import PsformerConfig, init_psformer_params
from sparsepatch.training import (
    Adam,
    TrainConfig,
    cross_entropy,
    error_constraint_loss,
    hard_triplet,
    log_to_csv,
    lr_for_epoch,
    make_dataset,
    rank1,
    two_stage_train,
)
from sparsepatch.videoio import SynthSpec


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((5, 4)))
    loss = cross_entropy(logits, [0, 1, 2, 3, 0])
    assert np.allclose(loss.data, np.log(4.0), atol=1e-12)


def test_cross_entropy_confident_correct():
    logits = np.full((3, 4), -50.0)
    labels = [2, 0, 3]
    for r, l in enumerate(labels):
        logits[r, l] = 50.0
    loss = cross_entropy(Tensor(logits), labels)
    assert loss.data[0, 0] < 1e-12


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def test_cross_entropy_gradcheck():
    rng = np.random.Generator(np.random.PCG64(0))
    logits = Tensor(rng.standard_normal((6, 5)))
    labels = rng.integers(0, 5, size=6)
    err = nc.grad_check(lambda: cross_entropy(logits, labels), {"logits": logits},
                        ["logits"], eps=1e-6)["logits"]
    assert err < 1e-4


def test_hard_triplet_identical_features_equals_margin():
    feats = Tensor(np.ones((6, 8)) * 0.37)
    loss = hard_triplet(feats, [0, 0, 1, 1, 2, 2], margin=0.3)
    assert loss.data[0, 0] == pytest.approx(0.3, abs=1e-9)


def test_hard_triplet_separated_clusters_is_zero():
    feats = np.zeros((4, 4))
    feats[2:, 0] = 100.0
    loss = hard_triplet(Tensor(feats), [0, 0, 1, 1], margin=0.3)
    assert loss.data[0, 0] == 0.0


def test_hard_triplet_matches_bruteforce():
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.standard_normal((8, 5))
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    margin = 0.3
    got = hard_triplet(Tensor(x), labels, margin).data[0, 0]

    dist = np.sqrt(((x[:, None] - x[None, :]) ** 2).sum(axis=2) + 1e-12)
    terms = []
    for a in range(8):
        pos = [dist[a, j] for j in range(8) if labels[j] == labels[a] and j != a]
        neg = [dist[a, j] for j in range(8) if labels[j] != labels[a]]
        terms.append(max(0.0, max(pos) - min(neg) + margin))
    assert got == pytest.approx(np.mean(terms), abs=1e-10)


def test_hard_triplet_needs_positives_and_negatives():
    with pytest.raises(ValidationError):
        hard_triplet(Tensor(np.zeros((3, 2))), [0, 1, 2], 0.3)  # no positives
    with pytest.raises(ValidationError):
        hard_triplet(Tensor(np.zeros((3, 2))), [0, 0, 0], 0.3)  # no negatives


def test_hard_triplet_gradcheck():
    rng = np.random.Generator(np.random.PCG64(5))
    feats = Tensor(rng.standard_normal((6, 4)))
    labels = [0, 0, 1, 1, 2, 2]
    err = nc.grad_check(lambda: hard_triplet(feats, labels, 0.3), {"feats": feats},
                        ["feats"], eps=1e-6)["feats"]
    assert err < 1e-4


def _warp_params(dim: int, seed: int) -> ParamSet:
    cfg = PsformerConfig(dim=dim, layers=1, heads=2, grid_h=2, grid_w=4)
    return init_psformer_params(cfg, seed=seed), cfg


def _np_mlp(x, params, name):
    w1, b1 = params[f"warp.{name}.l1.w"].data, params[f"warp.{name}.l1.b"].data
    w2, b2 = params[f"warp.{name}.l2.w"].data, params[f"warp.{name}.l2.b"].data
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def test_error_constraint_matches_bruteforce():
    params, cfg = _warp_params(16, seed=2)
    rng = np.random.Generator(np.random.PCG64(7))
    pairs = [(Tensor(rng.standard_normal((1, 16))),
              Tensor(rng.standard_normal((1, 16)))) for _ in range(3)]
    s, seed = 4, 11
    got = error_constraint_loss(pairs, params, noise_samples=s, seed=seed)

    total = 0.0
    for layer, (c_cur, c_prev) in enumerate(pairs):
        r = nc.rng_stream(seed, "errloss", layer)
        alphas = np.sort(r.uniform(0.0, 1.0, size=s))
        costs = []
        for a in alphas:
            noise = r.standard_normal((1, 16))
            mixed = (1.0 - a) * c_cur.data + a * noise
            ev = _np_mlp(np.hstack([mixed, c_prev.data]), params, "ev")
            rec = _np_mlp(np.hstack([ev, c_prev.data]), params, "gw")
            na = np.sqrt((rec ** 2).sum() + 1e-24)
            nb = np.sqrt((c_cur.data ** 2).sum() + 1e-24)
            costs.append(1.0 - float((rec * c_cur.data).sum()) / (na * nb))
        for i in range(s):
            for j in range(i + 1, s):
                total += max(0.0, costs[i] - costs[j])
    assert got.data[0, 0] == pytest.approx(total, abs=1e-12)


def test_error_constraint_zero_when_reconstruction_is_exact():
    params, cfg = _warp_params(16, seed=3)
    c_cur = Tensor(np.linspace(-1.0, 1.0, 16).reshape(1, 16))
    c_prev = Tensor(np.zeros((1, 16)))
    # constant reconstruction equal to the clean context: cost is zero at
    # every noise level, so every hinge pair is zero
    params["warp.gw.l2.w"].data[:] = 0.0
    params["warp.gw.l2.b"].data[:] = c_cur.data
    loss = error_constraint_loss([(c_cur, c_prev)], params, noise_samples=4,
                                 seed=0)
    assert loss.data[0, 0] == 0.0


def test_error_constraint_rejects_small_s():
    params, _ = _warp_params(16, seed=0)
    with pytest.raises(ValidationError):
        error_constraint_loss([], params, noise_samples=1, seed=0)


def test_error_constraint_empty_contexts_is_zero():
    params, _ = _warp_params(16, seed=0)
    loss = error_constraint_loss([], params, noise_samples=4, seed=0)
    assert loss.data[0, 0] == 0.0


def test_error_constraint_gradcheck():
    params, cfg = _warp_params(16, seed=4)
    rng = np.random.Generator(np.random.PCG64(9))
    pairs = [(Tensor(rng.standard_normal((1, 16))),
              Tensor(rng.standard_normal((1, 16)))) for _ in range(2)]

    def build_loss():
        return nc.sum_(error_constraint_loss(pairs, params,
                                             noise_samples=3, seed=5), None)

    errs = nc.grad_check(
        build_loss, params,
        ["warp.ev.l1.w", "warp.ev.l2.w", "warp.gw.l1.w", "warp.gw.l2.b"],
        eps=1e-6, max_coords=4, seed=1)
    for name, err in errs.items():
        assert err < 1e-4, f"{name}: {err}"


def test_error_constraint_tape_does_not_grow_with_layers_or_samples(monkeypatch):
    # every (layer, noise level) is one row of a single predictor pass, so
    # the loss records as many ops for 1 layer x 2 levels as for 4 x 16
    params, _ = _warp_params(16, seed=6)
    rng = np.random.Generator(np.random.PCG64(10))
    calls = []

    def spy(module, name):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.append(name) or inner(*args))

    spy(training, "predict_context")
    spy(nc, "cosine_distance")
    entries = []
    for layers, s in ((1, 2), (4, 16)):
        pairs = [(Tensor(rng.standard_normal((1, 16)), requires_grad=True),
                  Tensor(rng.standard_normal((1, 16)), requires_grad=True))
                 for _ in range(layers)]
        calls.clear()
        with nc.tape() as t:
            error_constraint_loss(pairs, params, noise_samples=s, seed=3)
        assert sorted(calls) == ["cosine_distance", "predict_context"]
        entries.append(len(t))
    assert entries[0] == entries[1]


def test_adam_minimizes_quadratic():
    params = ParamSet()
    params.add("x", np.array([[5.0, -3.0]]))
    target = np.array([[1.0, 2.0]])
    opt = Adam(params, weight_decay=0.0)
    for _ in range(300):
        params.zero_grad()
        with nc.tape() as t:
            diff = nc.sub(params["x"], Tensor(target))
            loss = nc.sum_(nc.mul(diff, diff), None)
            t.backward(loss)
        opt.step(lr=0.1)
    assert np.allclose(params["x"].data, target, atol=1e-3)


def test_adam_skips_parameters_without_gradients():
    params = ParamSet()
    params.add("used", np.ones((1, 2)))
    params.add("unused", np.ones((1, 2)) * 7.0)
    opt = Adam(params, weight_decay=5e-4)
    params.zero_grad()
    with nc.tape() as t:
        loss = nc.sum_(nc.mul(params["used"], params["used"]), None)
        t.backward(loss)
    opt.step(lr=0.1)
    assert np.array_equal(params["unused"].data, np.ones((1, 2)) * 7.0)
    assert not np.array_equal(params["used"].data, np.ones((1, 2)))


def test_lr_schedule():
    assert lr_for_epoch(5e-4, 0, 40, 0.1) == 5e-4
    assert lr_for_epoch(5e-4, 39, 40, 0.1) == 5e-4
    assert lr_for_epoch(5e-4, 40, 40, 0.1) == pytest.approx(5e-5)
    assert lr_for_epoch(5e-4, 80, 40, 0.1) == pytest.approx(5e-6)


def test_rank1_perfect_and_mixed():
    feats = np.array([[0.0, 0], [0.1, 0], [5, 0], [5.1, 0]])
    assert rank1(feats, [0, 0, 1, 1]) == 1.0
    assert rank1(np.array([[0.0, 0], [1, 0], [0.2, 0], [1.2, 0]]),
                 [0, 0, 1, 1]) == 0.0
    with pytest.raises(ValidationError):
        rank1(np.zeros((1, 3)), [0])


def test_make_dataset_counts_and_determinism():
    spec = SynthSpec(identity_count=2, clips_per_identity=3, height=32,
                     width=64, frames=2, seed=4)
    a = make_dataset(spec)
    b = make_dataset(spec)
    assert len(a) == 6
    assert [(r.identity, r.clip) for r in a] == [(0, 0), (0, 1), (0, 2),
                                                 (1, 0), (1, 1), (1, 2)]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.gop.i_frame.patches, rb.gop.i_frame.patches)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(noise_samples=1)
    with pytest.raises(ValidationError):
        TrainConfig(batch_identities=1)
    with pytest.raises(ValidationError):
        TrainConfig(stage1_epochs=-1)
    with pytest.raises(ValidationError, match="decay_every"):
        TrainConfig(decay_every=0)


def _tiny_train(seed=0, stage1=1, stage2=1):
    spec = SynthSpec(identity_count=2, clips_per_identity=3, height=32,
                     width=64, frames=3, background="textured",
                     motion_amplitude=2.0, seed=1)
    config = TrainConfig(stage1_epochs=stage1, stage2_epochs=stage2,
                         batch_identities=2, batch_clips=2, heldout_clips=1,
                         seed=seed)
    model = PsformerConfig(dim=16, layers=1, heads=2, grid_h=2, grid_w=4,
                           max_frames=4)
    return two_stage_train(spec, config, model=model)


def test_two_stage_train_smoke_and_determinism():
    a = _tiny_train()
    b = _tiny_train()
    assert len(a.log) == 2
    assert a.log[0]["stage"] == 1 and a.log[1]["stage"] == 2
    assert log_to_csv(a.log) == log_to_csv(b.log)
    assert 0.0 <= a.final_heldout_rank1 <= 1.0
    for name in ("cls.w", "sel.conv0.w", "embed.w"):
        assert name in a.params


def test_two_stage_train_rejects_bad_split(monkeypatch):
    # refused from the spec and config, before any clip is rendered
    rendered = []
    monkeypatch.setattr(training, "make_dataset", rendered.append)
    model = PsformerConfig(dim=16, layers=1, heads=2, grid_h=2, grid_w=4,
                           max_frames=2)
    cases = [((2, 2), {"heldout_clips": 2}, "heldout_clips must leave clips"),
             ((2, 3), {"heldout_clips": 2}, "identity 0 has fewer than 2 clips"),
             ((1, 3), {"heldout_clips": 1}, "training needs >= 2 identities")]
    for (identities, clips), split, message in cases:
        spec = SynthSpec(identity_count=identities, clips_per_identity=clips,
                         height=32, width=64, frames=2, seed=0)
        config = TrainConfig(stage1_epochs=1, stage2_epochs=0,
                             batch_identities=2, batch_clips=2, **split)
        with pytest.raises(ValidationError, match=message):
            two_stage_train(spec, config, model=model)
    assert rendered == []


def test_log_to_csv_header_and_rows():
    rows = [{"epoch": 0, "stage": 1, "loss_cent": 1.5, "loss_tri": 0.25,
             "loss_error": 0.0, "train_rank1": 0.5, "heldout_rank1": 0.5}]
    text = log_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ("epoch,stage,loss_cent,loss_tri,loss_error,"
                        "train_rank1,heldout_rank1")
    assert lines[1].startswith("0,1,1.500000,0.250000,")
