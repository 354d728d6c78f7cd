"""Acceptance gate: one test per shipped claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-claim
PASS/FAIL lines with measured values. Budgets are wall-clock seconds on
one CPU core, except criterion 5's: it is CPU seconds of the test
process (``time.process_time``), so time the host gives to other
processes does not count against it. Criteria 7, 10, and 11 drive the
installed command-line surface; the rest call the library directly.
"""

import json
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import spearmanr

import sparsepatch.numcore as nc
from sparsepatch.cli import main as cli_main
from sparsepatch.costmodel import Geometry, bisect_kept_fraction, estimate_vit
from sparsepatch.errors import SparsepatchError
from sparsepatch.gopcodec import decode_gop, encode_gop
from sparsepatch.numcore import Tensor, soft_gate_value
from sparsepatch.psformer import PsformerConfig, init_psformer_params
from sparsepatch.selector import (
    init_selector_params,
    progressive_residual,
    shallow_3dcnn,
)
from sparsepatch.spectral import prominent_eigvec
from sparsepatch.training import (
    Adam,
    TrainConfig,
    error_constraint_loss,
    two_stage_train,
)
from sparsepatch.videoio import SynthSpec, synth_clip


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _run_cli(*argv) -> int:
    try:
        return cli_main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_c01_transformer_cost_anchor():
    t0 = time.perf_counter()
    report = estimate_vit(Geometry())
    dt = time.perf_counter() - t0
    rel = abs(report.analytic_gmacs - 88.9) / 88.9
    ok = rel < 0.05 and dt < 1.0
    assert _line(1, ok, f"per-frame transformer {report.analytic_gmacs:.3f} "
                 f"GMACs, {rel * 100:.2f}% from 88.9 (limit 5%), {dt:.3f}s")


def test_c02_sparse_cost_reaches_target():
    fraction, report = bisect_kept_fraction(Geometry(), 23.5,
                                            gate_open_rate=0.0,
                                            bounds=(0.15, 0.35),
                                            include_selection=True)
    rel = abs(report.analytic_gmacs - 23.5) / 23.5
    ok = 0.15 <= fraction <= 0.35 and rel < 0.05
    assert _line(2, ok, f"kept_fraction {fraction:.6f} (open_rate 0.0) gives "
                 f"{report.analytic_gmacs:.4f} GMACs, {rel * 100:.2f}% from "
                 f"23.5 (limit 5%)")


def test_c03_codec_bit_exact_and_motion_oracle():
    t0 = time.perf_counter()
    specs = [
        SynthSpec(identity_count=50, clips_per_identity=1, height=128,
                  width=256, frames=8, background="textured",
                  motion_amplitude=4.0, seed=0),
        SynthSpec(identity_count=50, clips_per_identity=1, height=128,
                  width=256, frames=8, background="distractor",
                  motion_amplitude=2.0, seed=1),
    ]
    checked = 0
    for spec in specs:
        gh, gw = spec.height // 16, spec.width // 16
        for ident in range(spec.identity_count):
            clip = synth_clip(spec, identity=ident, clip_seed=ident)
            gop = encode_gop(clip)
            assert np.array_equal(decode_gop(gop).pixels, clip.pixels)
            base = gop.i_frame.patches.astype(np.float64)
            for t in range(1, gop.frames):
                grid = clip.pixels[t].reshape(gh, 16, gw, 16, 3)
                cur = grid.transpose(0, 2, 1, 3, 4).reshape(-1, 768)
                dist = cdist(cur.astype(np.float64), base,
                             metric="cityblock")
                assert np.array_equal(dist.argmin(axis=1),
                                      gop.motion[t - 1])
            checked += 1
    dt = time.perf_counter() - t0
    ok = checked == 100 and dt < 30.0
    assert _line(3, ok, f"{checked} clips decode bit-exact, motion matches "
                 f"the brute-force SAD oracle on every patch, {dt:.1f}s "
                 f"(limit 30s)")


def test_c04_gate_shape_and_straight_through_gradients():
    half_ok = soft_gate_value(np.array([0.0]))[0] == 0.5

    sat = np.concatenate([np.linspace(4.0, 12.0, 17),
                          np.linspace(-12.0, -4.0, 17)])
    vals = soft_gate_value(sat)
    sat_err = np.abs(vals - (sat > 0).astype(float)).max()

    band = np.log(11.0)
    xs = np.linspace(-band + 1e-3, band - 1e-3, 41)
    x = Tensor(xs.reshape(-1, 1), requires_grad=True)
    with nc.tape() as tp:
        tp.backward(nc.sum_(nc.hard_gate(x), None))
    analytic = x.grad[:, 0]
    eps = 1e-6
    fd = (soft_gate_value(xs + eps) - soft_gate_value(xs - eps)) / (2 * eps)
    grad_err = np.max(np.abs(analytic - fd) / (np.abs(fd) + 1e-8))

    ok = half_ok and sat_err < 1e-3 and grad_err < 1e-4
    assert _line(4, ok, f"gate(0)=0.5, saturation error {sat_err:.2e} for "
                 f"|score|>=4 (limit 1e-3), straight-through vs finite "
                 f"difference {grad_err:.2e} in the unclipped band "
                 f"(limit 1e-4)")


def test_c05_saliency_finds_movers_on_distractor_backgrounds():
    t0 = time.process_time()
    spec = SynthSpec(identity_count=10, clips_per_identity=5,
                     background="distractor", motion_amplitude=2.0, seed=0)
    ious = []
    for c in range(50):
        clip = synth_clip(spec, identity=c % 10, clip_seed=c)
        params = init_selector_params(seed=c + 7)
        sem = shallow_3dcnn(clip, params)
        for t in range(1, clip.frames):
            truth = clip.masks[t].reshape(-1).astype(bool)
            try:
                sal = prominent_eigvec(sem[t - 1].data)
            except SparsepatchError:
                ious.append(0.0)
                continue
            pred = sal > 0.0
            union = np.logical_or(pred, truth).sum()
            inter = np.logical_and(pred, truth).sum()
            ious.append(inter / union if union else 1.0)
    mean_iou = float(np.mean(ious))
    dt = time.process_time() - t0
    ok = mean_iou >= 0.7 and dt < 60.0
    assert _line(5, ok, f"mean IoU {mean_iou:.3f} over 50 distractor clips "
                 f"(limit 0.7), {dt:.1f} CPU s (limit 60s)")


def test_c06_duplicate_patches_have_zero_progressive_residual():
    rng = np.random.Generator(np.random.PCG64(123))
    worst = 0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        pool = rng.integers(0, 256, size=(n, 768)).astype(np.int16)
        dup = int(rng.integers(0, n))
        res = progressive_residual(pool[dup:dup + 1], pool)
        worst = max(worst, int(np.abs(res).max()))
    ok = worst == 0
    assert _line(6, ok, f"1000 duplicated patches all return an exactly "
                 f"zero residual (max |entry| = {worst})")


SWEEP_CFG = """
identities = 4
clips_per_identity = 3
height = 64
width = 64
frames = 8
motion_amplitude = 2.0
dim = 64
layers = 4
heads = 4
"""


def test_c07_routing_threshold_sweep_is_monotone(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "sweep.csv"
    code = _run_cli("sweep-s", "--config", str(cfg), "--from", "0.4",
                    "--to", "0.9", "--step", "0.1", "--out", str(out))
    capsys.readouterr()
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().strip().splitlines()[1:]]
    rates = [r[1] for r in rows]
    gmacs = [r[2] for r in rows]
    mono_rate = all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    mono_macs = all(a >= b - 1e-12 for a, b in zip(gmacs, gmacs[1:]))
    ok = len(rows) == 6 and mono_rate and mono_macs
    assert _line(7, ok, f"s=0.4..0.9 open_rate {rates[0]:.2f}->{rates[-1]:.2f}"
                 f" and counted {gmacs[0] * 1e3:.3f}->{gmacs[-1] * 1e3:.3f} "
                 f"MMACs per clip, both non-increasing")


def _np_mlp(x, params, name):
    w1, b1 = params[f"warp.{name}.l1.w"].data, params[f"warp.{name}.l1.b"].data
    w2, b2 = params[f"warp.{name}.l2.w"].data, params[f"warp.{name}.l2.b"].data
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def _np_noise_cost(alpha, noise, c_cur, c_prev, params):
    mixed = (1.0 - alpha) * c_cur + alpha * noise
    ev = _np_mlp(np.hstack([mixed, c_prev]), params, "ev")
    rec = _np_mlp(np.hstack([ev, c_prev]), params, "gw")
    na = np.sqrt((rec ** 2).sum() + 1e-24)
    nb = np.sqrt((c_cur ** 2).sum() + 1e-24)
    return 1.0 - float((rec * c_cur).sum()) / (na * nb)


def test_c08_error_loss_oracle_and_learned_noise_ranking():
    # exact value versus an independent pairwise oracle
    model = PsformerConfig(dim=64, layers=4, heads=4, grid_h=4, grid_w=4)
    params = init_psformer_params(model, seed=0)
    rng = nc.rng_stream(0, "ctx")
    pairs = [(Tensor(rng.standard_normal((1, 64))),
              Tensor(rng.standard_normal((1, 64)))) for _ in range(4)]
    got = error_constraint_loss(pairs, params, noise_samples=5, seed=11)
    want = 0.0
    for layer, (c_cur, c_prev) in enumerate(pairs):
        r = nc.rng_stream(11, "errloss", layer)
        alphas = np.sort(r.uniform(0.0, 1.0, size=5))
        costs = [_np_noise_cost(a, r.standard_normal((1, 64)), c_cur.data,
                                c_prev.data, params) for a in alphas]
        for i in range(5):
            for j in range(i + 1, 5):
                want += max(0.0, costs[i] - costs[j])
    oracle_err = abs(got.data[0, 0] - want)

    # 500 steps on the warp networks only, then rank fresh noise levels
    opt = Adam(params, weight_decay=0.0)
    warp_names = [n for n in params.names()
                  if n.startswith(("warp.ev", "warp.gw"))]
    t0 = time.perf_counter()
    for step in range(500):
        params.zero_grad()
        with nc.tape() as tp:
            loss = error_constraint_loss(pairs, params, noise_samples=16,
                                         seed=1000 + step)
            tp.backward(loss)
        for name, p in params.items():
            if name not in warp_names:
                p.grad = None
        opt.step(lr=1e-2)
    dt = time.perf_counter() - t0

    eval_rng = nc.rng_stream(0, "errloss-eval")
    corrs = []
    for c_cur, c_prev in pairs:
        alphas = eval_rng.uniform(0.0, 1.0, size=100)
        costs = [_np_noise_cost(a, eval_rng.standard_normal((1, 64)),
                                c_cur.data, c_prev.data, params)
                 for a in alphas]
        corrs.append(spearmanr(alphas, costs).statistic)
    mean_rho = float(np.mean(corrs))
    ok = oracle_err < 1e-12 and mean_rho >= 0.9
    assert _line(8, ok, f"loss matches the pairwise oracle to {oracle_err:.1e}"
                 f"; after 500 steps ({dt:.0f}s) mean Spearman(alpha, cost) "
                 f"= {mean_rho:.3f} on fresh samples (limit 0.9)")


def test_c09_two_stage_training_beats_stage2_only_control():
    t0 = time.perf_counter()
    spec = SynthSpec(identity_count=10, clips_per_identity=8, height=64,
                     width=64, frames=8, background="textured",
                     motion_amplitude=2.0, seed=0)
    model = PsformerConfig(dim=64, layers=4, heads=4, grid_h=4, grid_w=4,
                           max_frames=8)
    two = two_stage_train(spec, TrainConfig(eval_every=2), model=model)
    control = two_stage_train(spec, TrainConfig(stage1_epochs=0,
                                                stage2_epochs=40,
                                                eval_every=4),
                              model=model)
    dt = time.perf_counter() - t0
    r_two = two.final_heldout_rank1
    r_ctl = control.final_heldout_rank1
    ok = r_two >= 0.90 and r_ctl <= r_two + 1e-9 and dt < 900.0
    assert _line(9, ok, f"two-stage heldout rank-1 {r_two:.3f} (limit 0.90), "
                 f"stage-2-only control {r_ctl:.3f} <= two-stage, "
                 f"{dt:.0f}s (limit 900s)")


def test_c10_gradient_audit_via_cli(capsys):
    t0 = time.perf_counter()
    code = _run_cli("gradcheck", "--module", "all")
    out = capsys.readouterr().out
    dt = time.perf_counter() - t0
    worst = out.strip().splitlines()[-1].split()[1]
    ok = code == 0 and dt < 300.0
    assert _line(10, ok, f"selector, frozen-routing psformer, and all three "
                 f"losses agree with finite differences, worst relative "
                 f"error {worst} (limit 1e-4), {dt:.0f}s (limit 300s)")


SMALL_CFG = """
identities = 2
clips_per_identity = 3
height = 32
width = 64
frames = 3
motion_amplitude = 2.0
dim = 16
layers = 1
heads = 2
stage1_epochs = 1
stage2_epochs = 1
batch_identities = 2
batch_clips = 2
heldout_clips = 1
noise_samples = 2
"""


def test_c11_repeated_commands_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    flags = ["--dim", "16", "--layers", "1", "--heads", "2"]
    checked = []

    outputs = []
    for rep in ("a", "b"):
        data = tmp_path / f"data-{rep}"
        assert _run_cli("synth", "--config", str(cfg), "--out",
                        str(data)) == 0
        gop = tmp_path / f"{rep}.gop1"
        assert _run_cli("encode", "--in", str(data / "id000_clip00.rv1"),
                        "--out", str(gop)) == 0
        sel = tmp_path / f"sel-{rep}.json"
        assert _run_cli("select", "--gop", str(gop), "--mode", "train",
                        "--seed", "5", *flags, "--out", str(sel)) == 0
        fwd = tmp_path / f"fwd-{rep}.json"
        assert _run_cli("forward", "--gop", str(gop), *flags, "--out",
                        str(fwd)) == 0
        sweep = tmp_path / f"sweep-{rep}.csv"
        assert _run_cli("sweep-s", "--config", str(cfg), "--out",
                        str(sweep)) == 0
        capsys.readouterr()
        assert _run_cli("macs", "--kept-fraction", "0.2", "--json") == 0
        macs_out = capsys.readouterr().out.encode()
        run_dir = tmp_path / f"run-{rep}"
        assert _run_cli("train", "--config", str(cfg), "--out",
                        str(run_dir)) == 0
        capsys.readouterr()
        outputs.append({
            "manifest": (data / "manifest.json").read_bytes(),
            "clip": (data / "id001_clip02.rv1").read_bytes(),
            "gop": gop.read_bytes(),
            "select": sel.read_bytes(),
            "forward": fwd.read_bytes(),
            "sweep": sweep.read_bytes(),
            "macs": macs_out,
            "train_log": (run_dir / "log.csv").read_bytes(),
            "train_result": (run_dir / "result.json").read_bytes(),
        })
    for key in outputs[0]:
        same = outputs[0][key] == outputs[1][key]
        checked.append((key, same))
    ok = all(same for _, same in checked)
    names = ", ".join(k for k, _ in checked)
    assert _line(11, ok, f"repeated runs byte-identical across {names}")
