"""Command-line surface for the patch-sparse video pipeline.

Subcommands cover dataset synthesis, GOP encoding, patch selection,
sparse/dense forward passes, toy two-stage training, analytic cost
estimation, gradient checking, and the routing-threshold sweep.

Exit codes: 0 success, 2 usage, 3 I/O or parse failure, 4 numerical
failure, 5 contract violation. The environment variable SPARSEPATCH_SEED
overrides --seed for any command that accepts one.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import numcore as nc
from .costmodel import (
    Geometry,
    STAGES,
    bisect_kept_fraction,
    estimate_ours,
    estimate_vit,
)
from .errors import (
    NumericalError,
    ParseError,
    SparsepatchError,
    UsageError,
    ValidationError,
)
from .gopcodec import decode_gop, encode_gop, read_gop, write_gop
from .numcore import ParamSet, Tensor
from .psformer import (
    PsformerConfig,
    init_psformer_params,
    psformer_forward,
    psformer_param_table,
)
from .selector import (
    gate_features,
    init_selector_params,
    progressive_residual,
    score_gate,
    select_patches,
    shallow_3dcnn,
)
from .training import (
    TrainConfig,
    cross_entropy,
    error_constraint_loss,
    extract_feature,
    hard_triplet,
    log_to_csv,
    rank1,
    two_stage_train,
)
from .videoio import PATCH, SynthSpec, read_rawvid, synth_clip, write_rawvid

GRADCHECK_TOL = 1e-4
SWEEP_MAX_THRESHOLDS = 1000

# every recognized config key with its type and default; unknown keys are
# rejected so typos fail loudly instead of silently using a default. The
# trainer's keys come from TrainConfig, which owns their defaults.
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    "identities": (int, 10),
    "clips_per_identity": (int, 8),
    "height": (int, 64),
    "width": (int, 64),
    "frames": (int, 8),
    "background": (str, "textured"),
    "motion_amplitude": (float, 2.0),
    "dim": (int, 64),
    "layers": (int, 4),
    "heads": (int, 4),
    **{f.name: (type(f.default), f.default)
       for f in dataclasses.fields(TrainConfig)},
}


def _require_finite(label: str, value: float) -> None:
    """Refuse nan and infinities, which no float setting takes."""
    if not math.isfinite(value):
        raise UsageError(f"{label} must be a finite number, got {value}")


def parse_config_text(text: str) -> dict:
    """key=value lines with # comments; unknown keys, keys given twice and
    bad values reject."""
    values = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise UsageError(
                f"config line {lineno}: {key} was already given on line {seen[key]}")
        seen[key] = lineno
        kind, _ = CONFIG_SCHEMA[key]
        try:
            values[key] = kind(val)
        except ValueError:
            raise UsageError(
                f"config line {lineno}: {key} needs {kind.__name__}, got {val!r}"
            ) from None
        if kind is float:
            _require_finite(f"config line {lineno}: {key}", values[key])
    return values


def load_config(path: str | None) -> dict:
    if path is None:
        return {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    return parse_config_text(Path(path).read_text())


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# config key -> SynthSpec field, also the keys of the synth manifest's spec
_SPEC_FIELDS = {
    "identities": "identity_count",
    "clips_per_identity": "clips_per_identity",
    "height": "height",
    "width": "width",
    "frames": "frames",
    "background": "background",
    "motion_amplitude": "motion_amplitude",
    "seed": "seed",
}


def _spec_from_config(cfg: dict, seed: int) -> SynthSpec:
    values = {**cfg, "seed": seed}
    return SynthSpec(**{field: values[key] for key, field in _SPEC_FIELDS.items()})


def _model_from_config(cfg: dict) -> PsformerConfig:
    return PsformerConfig(
        dim=cfg["dim"],
        layers=cfg["layers"],
        heads=cfg["heads"],
        grid_h=cfg["height"] // PATCH,
        grid_w=cfg["width"] // PATCH,
        max_frames=cfg["frames"],
    )


def _resolve_seed(args, cfg: dict | None = None) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if cfg is not None:
        return cfg["seed"]
    return 0


def _load_or_init_params(args, model: PsformerConfig, seed: int) -> ParamSet:
    if getattr(args, "params", None):
        params = ParamSet.load_npz(args.params)
        # the layer{l}.* blocks number --layers; the shapes below check
        # --dim and --heads (warp.q.w has one head's width)
        blocks = {name.partition(".")[0] for name in params.names()}
        layers = sorted(int(b[5:]) for b in blocks if b[:5] == "layer" and b[5:].isdigit())
        if layers and layers != list(range(model.layers)):
            raise ValidationError(
                f"checkpoint holds layers {layers}, model wants {model.layers}")
        # every parameter of the model: present if the command reads it
        # (select reads only sel.*), and at the model's shape if present
        shapes = {name: shape for name, (shape, _) in psformer_param_table(model).items()}
        shapes.update((name, t.shape) for name, t in init_selector_params(seed=0).items())
        for name, want in shapes.items():
            if name not in params:
                if args.command == "select" and not name.startswith("sel."):
                    continue
                raise ValidationError(f"checkpoint lacks {name}, which {args.command} reads")
            got = params[name].shape
            if name == "frame":  # a longer frame table also serves shorter clips
                want = (max(got[0], want[0]), want[1])
            if got != want:
                raise ValidationError(f"checkpoint {name} is {got}, model wants {want}")
        return params
    params = init_psformer_params(model, seed=seed)
    init_selector_params(seed=seed + 1, params=params)
    return params


def _params_fingerprint(params: ParamSet) -> str:
    digest = hashlib.sha256()
    for name, tensor in params.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    spec = _spec_from_config(cfg, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for ident in range(spec.identity_count):
        for clip_idx in range(spec.clips_per_identity):
            clip = synth_clip(spec, identity=ident, clip_seed=clip_idx)
            name = f"id{ident:03d}_clip{clip_idx:02d}.rv1"
            write_rawvid(clip, out / name)
            files.append({
                "path": name,
                "identity": ident,
                "clip": clip_idx,
                "sha256": hashlib.sha256((out / name).read_bytes()).hexdigest(),
            })
    manifest = {
        "spec": {key: getattr(spec, field) for key, field in _SPEC_FIELDS.items()},
        "files": files,
    }
    (out / "manifest.json").write_text(_canonical_json(manifest))
    print(f"wrote {len(files)} clips and manifest.json under {out}")
    return 0


def cmd_encode(args) -> int:
    clip = read_rawvid(args.infile)
    gop = encode_gop(clip)
    decoded = decode_gop(gop)
    if not np.array_equal(decoded.pixels, clip.pixels):
        raise NumericalError("encode/decode round trip is not bit exact")
    write_gop(gop, args.out)
    print(f"encoded {args.infile}: {gop.frames} frames, "
          f"grid {gop.i_frame.grid_h}x{gop.i_frame.grid_w} -> {args.out}")
    return 0


def _load_gop_model(args):
    """Shared set-up of ``select`` and ``forward``: read the GOP, cross-check
    ``--clip``, size the model to the GOP grid, resolve the seed and load
    or initialise the parameters. Returns (gop, model, seed, params)."""
    gop = read_gop(args.gop)
    if args.clip:
        raw = read_rawvid(args.clip)
        if not np.array_equal(decode_gop(gop).pixels, raw.pixels):
            raise ValidationError("gop does not decode to the given clip")
    model = PsformerConfig(
        dim=args.dim, layers=args.layers, heads=args.heads,
        grid_h=gop.i_frame.grid_h, grid_w=gop.i_frame.grid_w,
        max_frames=gop.frames)
    seed = _resolve_seed(args)
    return gop, model, seed, _load_or_init_params(args, model, seed)


def cmd_select(args) -> int:
    gop, _, seed, params = _load_gop_model(args)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        selection = select_patches(gop, params, mode=args.mode, seed=seed)
    payload = selection.summary()
    payload["counted_macs"] = counter.total
    payload["seed"] = seed
    Path(args.out).write_text(_canonical_json(payload))
    print(f"selection: kept {payload['kept_per_frame']} "
          f"(fraction {payload['kept_fraction']}) -> {args.out}")
    return 0


def cmd_forward(args) -> int:
    gop, model, seed, params = _load_gop_model(args)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        res, kept = extract_feature(gop, params, model, args.threshold, args.dense)
    payload = {
        "feature": [float(v) for v in res.feature.data[0]],
        "dense": bool(args.dense),
        "threshold": args.threshold,
        "seed": seed,
        "kept_per_frame": kept,
        "open_rate": res.open_rate,
        "routing": [
            {"layer": r.layer, "frame": r.frame, "cost": r.cost,
             "open": r.open_path}
            for r in res.routing
        ],
        "counted_macs": counter.total,
        "macs_by_stage": dict(sorted(counter.by_stage.items())),
        "uncounted": dict(sorted(counter.uncounted.items())),
    }
    Path(args.out).write_text(_canonical_json(payload))
    print(f"feature dim {len(payload['feature'])}, open_rate "
          f"{payload['open_rate']:.3f}, {counter.total / 1e6:.1f} MMACs "
          f"-> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    spec = _spec_from_config(cfg, seed)
    fields = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}
    config = TrainConfig(seed=seed, **{k: cfg[k] for k in fields})
    model = _model_from_config(cfg)
    result = two_stage_train(spec, config, model=model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.params.save_npz(out / "params.npz")
    (out / "log.csv").write_text(log_to_csv(result.log))
    summary = {
        "final_heldout_rank1": result.final_heldout_rank1,
        "final_train_rank1": result.log[-1]["train_rank1"] if result.log else 0.0,
        "epochs": config.total_epochs,
        "stage1_epochs": config.stage1_epochs,
        "stage2_epochs": config.stage2_epochs,
        "seed": seed,
        "model": {"dim": model.dim, "layers": model.layers,
                  "heads": model.heads},
        "params_sha256": _params_fingerprint(result.params),
    }
    (out / "result.json").write_text(_canonical_json(summary))
    print(f"trained {config.total_epochs} epochs, heldout rank-1 "
          f"{summary['final_heldout_rank1']:.3f} -> {out}")
    return 0


def _print_cost_table(report) -> None:
    print(f"{'stage':<16} {'GMACs':>12}")
    for stage in STAGES:
        print(f"{stage:<16} {report.breakdown.get(stage, 0.0):>12.4f}")
    print(f"{'total':<16} {report.analytic_gmacs:>12.4f}")


def cmd_macs(args) -> int:
    geom = Geometry(**{f.name: getattr(args, f.name)
                       for f in dataclasses.fields(Geometry)})
    bisect_info = None
    if args.baseline:
        report = estimate_vit(geom)
    elif args.target is not None:
        fraction, report = bisect_kept_fraction(
            geom, args.target, gate_open_rate=args.open_rate,
            bounds=(args.lo, args.hi),
            include_selection=not args.no_selection)
        bisect_info = {
            "target_gmacs": args.target,
            "kept_fraction": fraction,
            "achieved_gmacs": report.analytic_gmacs,
            "relative_error": abs(report.analytic_gmacs - args.target)
            / args.target,
        }
    else:
        report = estimate_ours(geom, args.kept_fraction, args.open_rate,
                               include_selection=not args.no_selection)
    if args.json:
        payload = dataclasses.asdict(report)
        if bisect_info is not None:
            payload["bisect"] = bisect_info
        sys.stdout.write(_canonical_json(payload))
    else:
        _print_cost_table(report)
        if bisect_info is not None:
            print(f"{'bisect f':<16} {bisect_info['kept_fraction']:>12.6f}")
            print(f"{'target':<16} {bisect_info['target_gmacs']:>12.4f}")
    return 0


def _tiny_gradcheck_setup(seed: int):
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=32,
                     width=64, frames=2, background="textured",
                     motion_amplitude=2.0, seed=seed)
    clip = synth_clip(spec, identity=0, clip_seed=1)
    return encode_gop(clip)


def _gradcheck_selector(seed: int) -> list[tuple[str, float]]:
    """FD-check the selection network with frozen auxiliary features.

    Saliency weights and residual features are captured once from a
    reference pass and held constant, so the checked function is smooth:
    conv parameters reach the loss through the semantics maps, MLP
    parameters through the scores. The structured init leaves many ReLU
    pre-activations at exactly zero, where central differences see half
    a slope; jittering every parameter first makes the point generic.
    """
    gop = _tiny_gradcheck_setup(seed)
    params = init_selector_params(seed=seed)
    for name, tensor in params.items():
        noise = nc.rng_stream(seed, "gradcheck-jitter", name)
        tensor.data += noise.standard_normal(tensor.data.shape) * 0.03
    reference = select_patches(gop, params, mode="infer", seed=0)
    # frame t is measured against the pool as it stood before frame t:
    # the I-frame's patches, then the patches kept in frames 1 .. t-1
    n = gop.i_frame.count
    progressive = [
        progressive_residual(
            gop.frame_patches(t),
            reference.pool[:n + sum(reference.kept_counts[:t - 1])])
        for t in range(1, gop.frames)]

    def build_loss():
        sem = shallow_3dcnn(decode_gop(gop), params)
        total = None
        for t in range(1, gop.frames):
            feats = gate_features(gop.residual[t - 1], sem[t],
                                  reference.saliency[t - 1], progressive[t - 1])
            part = nc.sum_(score_gate(feats, params), None)
            total = part if total is None else nc.add(total, part)
        return total

    names = ["sel.conv0.w", "sel.conv1.w", "sel.conv2.w", "sel.conv3.w",
             "sel.conv3.b", "sel.mlp0.w", "sel.mlp1.w", "sel.mlp2.w",
             "sel.mlp2.b"]
    errs = nc.grad_check(build_loss, params, names, eps=1e-5, max_coords=8,
                         seed=seed)
    return [(f"selector/{n}", e) for n, e in errs.items()]


def _gradcheck_psformer(seed: int) -> list[tuple[str, float]]:
    gop = _tiny_gradcheck_setup(seed)
    model = PsformerConfig(dim=16, layers=1, heads=2, grid_h=2, grid_w=4,
                           max_frames=4)
    params = init_psformer_params(model, seed=seed)
    init_selector_params(seed=seed + 1, params=params)
    selection = select_patches(gop, params, mode="infer", seed=0)
    probe = Tensor(nc.rng_stream(seed, "probe").standard_normal((model.dim, 1)))
    names = ["embed.w", "pos", "layer0.attn.kv.w", "layer0.attn.out.w",
             "layer0.ffn.l1.w", "warp.pw.l1.w", "warp.pw.l3.w", "warp.q.w",
             "warp.ev.l1.w", "warp.gw.l2.w", "warp.k.w", "warp.v.w"]
    rows = []
    for label, threshold in (("closed", 3.0), ("open", -1.0)):
        def build_loss():
            res = psformer_forward(gop, selection, params, model,
                                   threshold=threshold)
            loss = nc.matmul(res.feature, probe)
            for cur, prev in res.context_pairs:
                loss = nc.add(loss, nc.matmul(nc.mul(cur, prev), probe))
            return nc.sum_(loss, None)

        errs = nc.grad_check(build_loss, params, names, eps=1e-5,
                             max_coords=5, seed=seed)
        rows.extend((f"psformer[{label}]/{n}", e) for n, e in errs.items())
    return rows


def _gradcheck_losses(seed: int) -> list[tuple[str, float]]:
    rng = nc.rng_stream(seed, "losses")
    rows = []
    logits = Tensor(rng.standard_normal((6, 5)))
    labels = rng.integers(0, 5, size=6)
    rows.extend(nc.grad_check(lambda: cross_entropy(logits, labels),
                              {"losses/cross_entropy": logits},
                              ["losses/cross_entropy"], eps=1e-6).items())
    feats = Tensor(rng.standard_normal((6, 8)))
    rows.extend(nc.grad_check(lambda: hard_triplet(feats, [0, 0, 1, 1, 2, 2],
                                                   TrainConfig.triplet_margin),
                              {"losses/hard_triplet": feats},
                              ["losses/hard_triplet"], eps=1e-6).items())
    model = PsformerConfig(dim=16, layers=1, heads=2, grid_h=2, grid_w=4)
    params = init_psformer_params(model, seed=seed)
    pairs = [(Tensor(rng.standard_normal((1, 16))),
              Tensor(rng.standard_normal((1, 16)))) for _ in range(2)]

    def build_loss():
        return nc.sum_(error_constraint_loss(pairs, params,
                                             noise_samples=3, seed=seed), None)

    errs = nc.grad_check(
        build_loss, params,
        ["warp.ev.l1.w", "warp.ev.l2.w", "warp.gw.l1.w", "warp.gw.l2.w"],
        eps=1e-6, max_coords=4, seed=seed)
    rows.extend((f"losses/error_constraint/{n}", e) for n, e in errs.items())
    return rows


def cmd_gradcheck(args) -> int:
    seed = _resolve_seed(args)
    modules = {
        "selector": _gradcheck_selector,
        "psformer": _gradcheck_psformer,
        "losses": _gradcheck_losses,
    }
    picked = list(modules) if args.module == "all" else [args.module]
    rows = []
    for name in picked:
        rows.extend(modules[name](seed))
    width = max(len(r[0]) for r in rows)
    worst = 0.0
    for target, err in rows:
        status = "ok" if err < GRADCHECK_TOL else "FAIL"
        print(f"{target:<{width}} {err:12.3e} {status}")
        worst = max(worst, err)
    print(f"{'worst':<{width}} {worst:12.3e} "
          f"{'ok' if worst < GRADCHECK_TOL else 'FAIL'}")
    if worst >= GRADCHECK_TOL:
        raise NumericalError(
            f"gradient check failed: worst relative error {worst:.3e}")
    return 0


def cmd_sweep_s(args) -> int:
    if args.s_step <= 0:
        raise UsageError("--step must be positive")
    if args.s_to < args.s_from:
        raise UsageError("--to must be >= --from")
    # thresholds --from, --from + --step, ... while at most --to + 1e-9
    steps = (args.s_to + 1e-9 - args.s_from) / args.s_step
    if steps >= SWEEP_MAX_THRESHOLDS:
        raise UsageError(f"--step gives more than {SWEEP_MAX_THRESHOLDS} thresholds")
    thresholds = [round(args.s_from + i * args.s_step, 10) for i in range(int(steps) + 1)]
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    spec = _spec_from_config(cfg, seed)
    # evaluate on the last heldout_clips clips of each identity
    heldout = cfg["heldout_clips"]
    if heldout > spec.clips_per_identity:
        raise ValidationError(f"heldout_clips {heldout} exceeds "
                              f"clips_per_identity {spec.clips_per_identity}")
    if spec.identity_count * heldout < 2:
        raise ValidationError("sweep needs at least two held-out clips")
    model = _model_from_config(cfg)
    params = _load_or_init_params(args, model, seed)

    clips = []
    for ident in range(spec.identity_count):
        for clip_idx in range(spec.clips_per_identity - heldout, spec.clips_per_identity):
            raw = synth_clip(spec, identity=ident, clip_seed=clip_idx)
            clips.append((encode_gop(raw), ident))

    selections = [
        (gop, ident, select_patches(gop, params, mode="infer", seed=seed))
        for gop, ident in clips
    ]

    lines = ["s,open_rate,gmacs,heldout_rank1"]
    for s in thresholds:
        counter = nc.MacCounter()
        feats, labels, rates = [], [], []
        with nc.mac_counting(counter):
            for gop, ident, selection in selections:
                res = psformer_forward(gop, selection, params, model,
                                       threshold=s)
                feats.append(res.feature.data[0])
                labels.append(ident)
                rates.append(res.open_rate)
        gmacs = counter.total / len(selections) / 1e9
        score = rank1(np.vstack(feats), labels)
        lines.append(f"{s:.4f},{float(np.mean(rates)):.6f},"
                     f"{gmacs:.6f},{score:.6f}")
    text = "\n".join(lines) + "\n"
    Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    for key in ("dim", "layers", "heads"):
        p.add_argument(f"--{key}", type=int, default=CONFIG_SCHEMA[key][1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsepatch",
        description="patch-sparse video feature pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a labeled synthetic dataset")
    p.add_argument("--spec", "--config", dest="config", default=None,
                   help="key=value run config describing the dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("encode", help="encode a raw clip into a GOP file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("select", help="run patch selection over a GOP file")
    p.add_argument("--gop", required=True)
    p.add_argument("--clip", default=None,
                   help="optional raw clip to cross-check the GOP against")
    p.add_argument("--params", default=None)
    p.add_argument("--mode", choices=("infer", "train"), default="infer")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("forward", help="sparse or dense forward pass")
    p.add_argument("--gop", required=True)
    p.add_argument("--clip", default=None,
                   help="optional raw clip to cross-check the GOP against")
    p.add_argument("--params", default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--dense", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("train", help="two-stage toy training run")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("macs", help="analytic MACs estimate")
    for f in dataclasses.fields(Geometry):
        p.add_argument(f"--{f.name}", type=int, default=f.default)
    p.add_argument("--kept-fraction", type=float, default=0.25)
    p.add_argument("--open-rate", type=float, default=0.0)
    p.add_argument("--baseline", action="store_true",
                   help="price the plain per-frame transformer instead")
    p.add_argument("--no-selection", action="store_true",
                   help="exclude the selection network from the estimate")
    p.add_argument("--target", type=float, default=None,
                   help="bisect kept fraction to hit this GMAC total")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_macs)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--module", choices=("all", "selector", "psformer",
                                        "losses"), default="all")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep-s", help="routing threshold sweep CSV")
    p.add_argument("--from", dest="s_from", type=float, default=0.4)
    p.add_argument("--to", dest="s_to", type=float, default=0.9)
    p.add_argument("--step", dest="s_step", type=float, default=0.1)
    p.add_argument("--config", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_s)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("SPARSEPATCH_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: SPARSEPATCH_SEED must be an integer, got {env_seed!r}",
                  file=sys.stderr)
            return 2
    try:
        for dest, value in vars(args).items():
            if isinstance(value, float):
                # sweep-s stores --from, --to and --step as s_from, s_to, s_step
                _require_finite("--" + dest.removeprefix("s_").replace("_", "-"), value)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SparsepatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
