"""Command-line interface tests: exit codes, determinism, file pipeline."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepatch import cli, selector
from sparsepatch import numcore as nc
from sparsepatch.cli import CONFIG_SCHEMA, main, parse_config_text
from sparsepatch.errors import (
    NumericalError,
    ParseError,
    SparsepatchError,
    UsageError,
)
from sparsepatch.gopcodec import encode_gop, read_gop, write_gop
from sparsepatch.psformer import (
    PsformerConfig,
    init_psformer_params,
    psformer_forward,
)
from sparsepatch.selector import init_selector_params, select_patches
from sparsepatch.training import extract_feature
from sparsepatch.videoio import RawClip, SynthSpec, synth_clip, write_rawvid

SMALL = {"identities": 2, "clips_per_identity": 2, "height": 32, "width": 64,
         "frames": 3, "motion_amplitude": 2.0, "dim": 16, "layers": 1, "heads": 2}
TRAIN = {**SMALL, "clips_per_identity": 3, "stage1_epochs": 1, "stage2_epochs": 1,
         "batch_identities": 2, "batch_clips": 2, "heldout_clips": 1,
         "noise_samples": 2}


def config_text(values: dict, **overrides) -> str:
    """``key = value`` lines naming each key once; ``overrides`` replace
    entries of ``values``."""
    return "".join(f"{key} = {value}\n" for key, value in {**values, **overrides}.items())


SMALL_CFG = config_text(SMALL)
TRAIN_CFG = config_text(TRAIN)

MODEL_FLAGS = ["--dim", "16", "--layers", "1", "--heads", "2"]


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse errors exit instead of returning
        return exc.code


@pytest.fixture()
def pipeline(tmp_path):
    """Synthesized dataset plus one encoded clip, shared per test."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    data = tmp_path / "data"
    assert run_cli("synth", "--spec", str(cfg), "--out", str(data)) == 0
    clip = data / "id000_clip00.rv1"
    gop = tmp_path / "c0.gop1"
    assert run_cli("encode", "--in", str(clip), "--out", str(gop)) == 0
    return tmp_path, cfg, clip, gop


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_defaults_cover_schema():
    values = parse_config_text("")
    assert set(values) == set(CONFIG_SCHEMA)
    assert values["identities"] == 10
    assert values["learning_rate"] == 5e-4


def test_config_parses_values_comments_and_blank_lines():
    values = parse_config_text(
        "identities = 3\n\n# comment line\nframes=5  # trailing\n"
        "motion_amplitude = 1.5\nbackground = flat\n")
    assert values["identities"] == 3
    assert values["frames"] == 5
    assert values["motion_amplitude"] == 1.5
    assert values["background"] == "flat"


def test_config_rejects_unknown_key():
    with pytest.raises(UsageError, match="unknown key"):
        parse_config_text("identitees = 3\n")


def test_config_rejects_bad_value_and_missing_equals():
    with pytest.raises(UsageError, match="needs int"):
        parse_config_text("frames = abc\n")
    with pytest.raises(UsageError, match="key=value"):
        parse_config_text("just some words\n")


def test_config_rejects_a_key_given_twice(tmp_path, capsys):
    with pytest.raises(UsageError, match="line 3: dim was already given on line 1"):
        parse_config_text("dim = 16\nframes = 4\ndim = 32\n")
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\n# again\nseed = 1\n")
    assert run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "d")) == 2
    assert "line 3: seed was already given on line 1" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_config_int_accepted_for_float_key():
    assert parse_config_text("error_weight = 2\n")["error_weight"] == 2.0


def test_config_rejects_non_finite_floats():
    float_keys = [key for key, (kind, _) in CONFIG_SCHEMA.items() if kind is float]
    assert "motion_amplitude" in float_keys and "learning_rate" in float_keys
    for key in float_keys:
        for value in ("nan", "inf", "-inf", "NaN", "Infinity"):
            with pytest.raises(UsageError, match=f"line 2: {key} must be a finite number"):
                parse_config_text(f"# first line\n{key} = {value}\n")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_2_on_unknown_subcommand(capsys):
    assert run_cli("no-such-command") == 2
    capsys.readouterr()


def test_exit_2_on_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "d")) == 2
    assert "unknown key" in capsys.readouterr().err


def test_exit_3_on_missing_input(tmp_path, capsys):
    code = run_cli("select", "--gop", str(tmp_path / "nope.gop1"),
                   "--out", str(tmp_path / "x.json"))
    assert code == 3
    capsys.readouterr()


def test_exit_3_on_corrupt_container(tmp_path, capsys):
    bad = tmp_path / "corrupt.rv1"
    bad.write_bytes(b"not a clip")
    code = run_cli("encode", "--in", str(bad), "--out", str(tmp_path / "x.gop1"))
    assert code == 3
    assert "magic" in capsys.readouterr().err


def test_exit_3_on_gop_reconstructing_outside_byte_range(pipeline, capsys):
    # each residual is inside [-255, 255], but I-frame + residual is not
    tmp_path, _, _, gop_path = pipeline
    gop = read_gop(gop_path)
    assert gop.i_frame.patches[gop.motion[0, 0], 0] > 0
    gop.residual[0, 0, 0] = 255
    bad = tmp_path / "overflow.gop1"
    write_gop(gop, bad)
    for command in (["select"], ["forward"], ["forward", "--dense"]):
        code = run_cli(*command, "--gop", str(bad), *MODEL_FLAGS,
                       "--out", str(tmp_path / "x.json"))
        assert code == 3
        assert "outside [0, 255]" in capsys.readouterr().err


def test_exit_3_on_gop_residual_of_int16_min(pipeline, capsys):
    tmp_path, _, _, gop_path = pipeline
    blob = bytearray(gop_path.read_bytes())
    residual_off = len(blob) - 2 * read_gop(gop_path).residual.size
    blob[residual_off:residual_off + 2] = (-32768).to_bytes(2, "little", signed=True)
    bad = tmp_path / "int16min.gop1"
    bad.write_bytes(bytes(blob))
    code = run_cli("select", "--gop", str(bad), *MODEL_FLAGS,
                   "--out", str(tmp_path / "x.json"))
    assert code == 3
    assert f"residual outside [-255, 255] (byte offset {residual_off})" in capsys.readouterr().err


def test_exit_4_on_nonfinite_params(pipeline, capsys):
    tmp_path, _, _, gop = pipeline
    cfg = PsformerConfig(dim=16, layers=1, heads=2, grid_h=2, grid_w=4,
                         max_frames=4)
    params = init_psformer_params(cfg, seed=0)
    init_selector_params(seed=1, params=params)
    params["embed.w"].data[:] = np.nan
    bad = tmp_path / "nan.npz"
    params.save_npz(bad)
    code = run_cli("forward", "--gop", str(gop), "--params", str(bad),
                   *MODEL_FLAGS, "--out", str(tmp_path / "x.json"))
    assert code == 4
    capsys.readouterr()


def test_exit_5_on_clip_gop_mismatch(pipeline, capsys):
    tmp_path, _, _, gop = pipeline
    other = tmp_path / "data" / "id001_clip00.rv1"
    for command in ("select", "forward"):
        code = run_cli(command, "--gop", str(gop), "--clip", str(other),
                       *MODEL_FLAGS, "--out", str(tmp_path / "x.json"))
        assert code == 5
        assert "does not decode" in capsys.readouterr().err


def test_exit_5_on_checkpoint_shape_mismatch(pipeline, capsys):
    tmp_path, _, _, gop = pipeline
    cfg = PsformerConfig(dim=16, layers=1, heads=2, grid_h=2, grid_w=4,
                         max_frames=4)
    params = init_psformer_params(cfg, seed=0)
    ckpt = tmp_path / "p.npz"
    params.save_npz(ckpt)
    code = run_cli("forward", "--gop", str(gop), "--params", str(ckpt),
                   "--dim", "32", "--layers", "1", "--heads", "2",
                   "--out", str(tmp_path / "x.json"))
    assert code == 5
    capsys.readouterr()


def test_static_clips_serve(tmp_path, capsys):
    # constant frames give the saliency graph no split; each P-frame falls
    # back to zero saliency instead of failing with exit 5
    for value in (0, 100, 255):
        raw = tmp_path / f"static{value}.rv1"
        write_rawvid(RawClip(pixels=np.full((4, 64, 64, 3), value, dtype=np.uint8)), raw)
        gop = tmp_path / f"static{value}.gop1"
        assert run_cli("encode", "--in", str(raw), "--out", str(gop)) == 0
        for command in ("select", "forward"):
            out = tmp_path / f"{command}{value}.json"
            assert run_cli(command, "--gop", str(gop), *MODEL_FLAGS,
                           "--out", str(out)) == 0
            payload = json.loads(out.read_text())
            assert payload["kept_per_frame"] == [0, 0, 0]
        assert np.isfinite(payload["feature"]).all()
        assert payload["uncounted"]["saliency_fallbacks"] == 3
    capsys.readouterr()


def test_exit_5_on_grid_too_small_for_pooling(tmp_path, capsys):
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=32,
                     width=48, frames=2, background="textured",
                     motion_amplitude=2.0, seed=3)
    gop = tmp_path / "small.gop1"
    write_gop(encode_gop(synth_clip(spec, identity=0, clip_seed=0)), gop)
    out = tmp_path / "x.json"
    for command in ("select", "forward"):
        code = run_cli(command, "--gop", str(gop), *MODEL_FLAGS,
                       "--out", str(out))
        assert code == 5
        assert "grid 2x3 too small for 2x4 pooling" in capsys.readouterr().err
        assert not out.exists()


def test_exit_5_on_train_config_decay_every_zero(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(config_text(TRAIN, decay_every=0))
    run_dir = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(run_dir)) == 5
    assert "decay_every must be >= 1" in capsys.readouterr().err
    assert not run_dir.exists()


# the exit code the README documents for each error category
_EXIT_CODES = ((UsageError, 2), (ParseError, 3), (NumericalError, 4),
               (SparsepatchError, 5))


def _adversarial_gop(kind: str, frames: int, height: int, width: int,
                     seed: int, value: int):
    """A GopClip of one adversarial family: a constant clip, uniform byte
    noise, per-pixel 0/255 noise (residuals at +-255), or a valid clip
    whose first residual is pushed to +255 so it decodes off the byte
    range."""
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (frames, height, width, 3)
    if kind == "constant":
        pixels = np.full(shape, value, dtype=np.uint8)
    elif kind == "noise":
        pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        pixels = (rng.integers(0, 2, size=shape) * 255).astype(np.uint8)
    gop = encode_gop(RawClip(pixels=pixels))
    if kind == "overflow" and gop.frames > 1:
        gop.i_frame.patches[:] = np.maximum(gop.i_frame.patches, 1)
        gop.residual[0] = 255
    return gop


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["constant", "noise", "binary", "overflow"]),
       frames=st.integers(1, 3),
       grid=st.sampled_from([(2, 4), (3, 4), (2, 5), (1, 4), (2, 3)]),
       seed=st.integers(0, 2 ** 16),
       value=st.sampled_from([0, 1, 128, 254, 255]))
def test_adversarial_clips_serve_or_are_refused_before_compute(
        kind, frames, grid, seed, value):
    # every clip either serves with a finite feature, or raises a
    # documented error before a single MAC is counted; `forward` exits
    # with the code the README gives that error
    gop = _adversarial_gop(kind, frames, 16 * grid[0], 16 * grid[1], seed, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.gop1"
        write_gop(gop, path)
        counter = nc.MacCounter()
        feature = error = None
        try:
            with nc.mac_counting(counter):
                served = read_gop(path)
                model = PsformerConfig(dim=16, layers=1, heads=2,
                                       grid_h=grid[0], grid_w=grid[1],
                                       max_frames=frames)
                params = init_psformer_params(model, seed=0)
                init_selector_params(seed=1, params=params)
                selection = select_patches(served, params, mode="infer")
                feature = psformer_forward(served, selection, params, model,
                                           threshold=0.5).feature.data[0]
        except SparsepatchError as exc:
            error = exc
            assert counter.total == 0, (type(exc).__name__, counter.by_stage)
        if error is None:
            assert np.isfinite(feature).all()
        want = next((code for kind_, code in _EXIT_CODES
                     if isinstance(error, kind_)), 0)
        out = Path(tmp) / "feature.json"
        assert run_cli("forward", "--gop", str(path), "--dim", "16",
                       "--layers", "1", "--heads", "2",
                       "--out", str(out)) == want
        if error is None:
            assert json.loads(out.read_text())["feature"] == feature.tolist()


def test_exit_2_on_non_finite_config_values(tmp_path, capsys):
    # refused at parse time: synth used to die with an OverflowError
    # traceback (exit 1), train used to train and then exit 4
    for command, values, key in (("synth", SMALL, "motion_amplitude"),
                                 ("train", TRAIN, "learning_rate")):
        for value in ("nan", "inf"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(config_text(values, **{key: value}))
            out = tmp_path / "out"
            flag = "--spec" if command == "synth" else "--config"
            assert run_cli(command, flag, str(cfg), "--out", str(out)) == 2
            assert f"{key} must be a finite number" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["forward", "--gop", "missing.gop1", "--threshold", "nan"], "--threshold"),
    (["sweep-s", "--from", "nan"], "--from"),
    (["sweep-s", "--to", "inf"], "--to"),
    (["sweep-s", "--step", "nan"], "--step"),
    (["macs", "--kept-fraction", "nan"], "--kept-fraction"),
    (["macs", "--open-rate", "inf"], "--open-rate"),
    (["macs", "--target", "nan"], "--target"),
    (["macs", "--target", "20", "--lo=-inf"], "--lo"),
    (["macs", "--target", "20", "--hi", "nan"], "--hi"),
])
def test_exit_2_on_non_finite_float_flags(argv, flag, tmp_path, capsys):
    # refused before the command runs: `forward` never opens its GOP
    out = tmp_path / "out"
    args = argv + (["--out", str(out)] if argv[0] != "macs" else [])
    assert run_cli(*args) == 2
    captured = capsys.readouterr()
    assert f"{flag} must be a finite number" in captured.err
    assert captured.out == "" and not out.exists()


def _checkpoint(path, layers, heads, grid_w=4, max_frames=3):
    model = PsformerConfig(dim=16, layers=layers, heads=heads, grid_h=2,
                           grid_w=grid_w, max_frames=max_frames)
    params = init_psformer_params(model, seed=0)
    init_selector_params(seed=1, params=params)
    params.save_npz(path)
    return path


def _spy_compute(monkeypatch):
    """A list that records each matmul and MAC tally made from now on."""
    calls = []
    matmul, count_macs = nc.matmul, nc.count_macs
    monkeypatch.setattr(nc, "matmul", lambda *a: calls.append("matmul") or matmul(*a))
    monkeypatch.setattr(nc, "count_macs", lambda *a: calls.append("macs") or count_macs(*a))
    return calls


def _run_on_checkpoint(command, ckpt, gop, cfg):
    """Exit code of ``command`` with checkpoint ``ckpt`` for the 16-dim,
    1-layer, 2-head model: select and forward serve ``gop``, sweep-s
    reads its clips from the config ``cfg``. A refused run writes nothing."""
    out = ckpt.parent / "out"
    if command == "sweep-s":
        argv = ["sweep-s", "--config", str(cfg)]
    else:
        argv = [command, "--gop", str(gop), *MODEL_FLAGS]
    code = run_cli(*argv, "--params", str(ckpt), "--out", str(out))
    assert code != 5 or not out.exists()
    return code


@pytest.mark.parametrize("command", ["select", "forward", "sweep-s"])
def test_exit_5_on_checkpoint_that_does_not_fit_the_model(pipeline, command,
                                                           monkeypatch, capsys):
    # each model flag is checked against the parameters that carry it,
    # before a single matmul
    tmp_path, cfg, _, gop = pipeline
    calls = _spy_compute(monkeypatch)
    cases = (  # checkpoint (layers, heads), flags, message
        ((2, 2), ["--layers", "1", "--heads", "2"], "holds layers [0, 1], model wants 1"),
        ((2, 2), ["--layers", "2", "--heads", "4"], "warp.q.w is (16, 8), model wants (16, 4)"),
        ((1, 4), ["--layers", "1", "--heads", "2"], "warp.q.w is (16, 4), model wants (16, 8)"),
        ((1, 2), ["--layers", "3", "--heads", "2"], "holds layers [0], model wants 3"),
    )
    for (layers, heads), flags, message in cases:
        ckpt = _checkpoint(tmp_path / f"l{layers}h{heads}.npz", layers, heads)
        out = tmp_path / "out"
        if command == "sweep-s":
            # sweep-s reads the model from its config
            text = config_text(SMALL, layers=flags[1], heads=flags[3])
            (tmp_path / "model.cfg").write_text(text)
            argv = ["sweep-s", "--config", str(tmp_path / "model.cfg")]
        else:
            argv = [command, "--gop", str(gop), "--dim", "16", *flags]
        assert run_cli(*argv, "--params", str(ckpt), "--out", str(out)) == 5
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("command", ["select", "forward", "sweep-s"])
def test_exit_5_on_checkpoint_without_a_parameter_the_command_reads(
        pipeline, command, monkeypatch, capsys):
    # select reads only sel.*; forward and sweep-s read every parameter
    tmp_path, cfg, _, gop = pipeline
    full = nc.ParamSet.load_npz(_checkpoint(tmp_path / "full.npz", 1, 2))
    dropped = ["sel.conv0.w", "sel.mlp2.b"]
    if command != "select":
        dropped += ["embed.w", "pos", "frame", "layer0.ffn.l2.b", "warp.gw.l1.w"]
    calls = _spy_compute(monkeypatch)
    for name in dropped:
        params = nc.ParamSet()
        for other, tensor in full.items():
            if other != name:
                params.add(other, tensor.data)
        params.save_npz(tmp_path / "ckpt.npz")
        assert _run_on_checkpoint(command, tmp_path / "ckpt.npz", gop, cfg) == 5
        assert f"checkpoint lacks {name}, which {command} reads" in capsys.readouterr().err
    assert calls == []
    if command == "select":
        selector_only = init_selector_params(seed=1)
        selector_only.save_npz(tmp_path / "sel.npz")
        assert _run_on_checkpoint(command, tmp_path / "sel.npz", gop, cfg) == 0
        capsys.readouterr()


@pytest.mark.parametrize("command", ["select", "forward", "sweep-s"])
def test_exit_5_on_checkpoint_for_another_patch_grid(pipeline, command,
                                                     monkeypatch, capsys):
    # pos has one row per patch of the grid; a checkpoint for a 2x8 grid
    # on the 2x4 clip, and one for a 2x4 grid on a 2x8 clip, are refused
    tmp_path, cfg, _, gop = pipeline
    wide_cfg = tmp_path / "wide.cfg"
    wide_cfg.write_text(config_text(SMALL, width=128))
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=32,
                     width=128, frames=3, background="textured",
                     motion_amplitude=2.0, seed=3)
    wide_gop = tmp_path / "wide.gop1"
    write_gop(encode_gop(synth_clip(spec, identity=0, clip_seed=0)), wide_gop)
    calls = _spy_compute(monkeypatch)
    for ckpt_w, clip_gop, clip_cfg, rows in ((8, gop, cfg, (16, 8)),
                                             (4, wide_gop, wide_cfg, (8, 16))):
        ckpt = _checkpoint(tmp_path / f"w{ckpt_w}.npz", 1, 2, grid_w=ckpt_w)
        assert _run_on_checkpoint(command, ckpt, clip_gop, clip_cfg) == 5
        assert (f"checkpoint pos is ({rows[0]}, 16), model wants ({rows[1]}, 16)"
                in capsys.readouterr().err)
    assert calls == []


@pytest.mark.parametrize("command", ["select", "forward", "sweep-s"])
def test_exit_5_on_checkpoint_with_fewer_frame_rows_than_the_clip(
        pipeline, command, monkeypatch, capsys):
    tmp_path, cfg, _, gop = pipeline
    calls = _spy_compute(monkeypatch)
    ckpt = _checkpoint(tmp_path / "f2.npz", 1, 2, max_frames=2)
    assert _run_on_checkpoint(command, ckpt, gop, cfg) == 5
    assert "checkpoint frame is (2, 16), model wants (3, 16)" in capsys.readouterr().err
    assert calls == []


def test_checkpoint_with_more_frame_rows_than_the_clip_serves(pipeline, capsys):
    tmp_path, cfg, _, gop = pipeline
    ckpt = _checkpoint(tmp_path / "f5.npz", 1, 2, max_frames=5)
    assert _run_on_checkpoint("forward", ckpt, gop, cfg) == 0
    capsys.readouterr()


def test_exit_2_on_sweep_with_too_many_thresholds(tmp_path, monkeypatch, capsys):
    # capped with the other range checks, before the config is read or any
    # threshold list is built; a sweep of exactly the cap passes them
    class ReachedConfig(Exception):
        pass

    def load_config(path):
        raise ReachedConfig

    monkeypatch.setattr(cli, "load_config", load_config)
    out = tmp_path / "x.csv"
    assert run_cli("sweep-s", "--from", "0", "--to", "1", "--step", "1e-9",
                   "--out", str(out)) == 2
    assert (f"--step gives more than {cli.SWEEP_MAX_THRESHOLDS} thresholds"
            in capsys.readouterr().err)
    assert not out.exists()
    step = 1.0 / (cli.SWEEP_MAX_THRESHOLDS - 1)
    with pytest.raises(ReachedConfig):
        run_cli("sweep-s", "--from", "0", "--to", "1", "--step", str(step),
                "--out", str(out))


@pytest.mark.parametrize("split, message", [
    ({"clips_per_identity": 1, "heldout_clips": 3},
     "heldout_clips 3 exceeds clips_per_identity 1"),
    ({"identities": 1, "heldout_clips": 1}, "sweep needs at least two held-out clips"),
], ids=["more_than_each_identity_has", "fewer_than_two_in_all"])
def test_exit_5_on_sweep_with_a_bad_heldout_split(tmp_path, split, message,
                                                  monkeypatch, capsys):
    # refused before a clip is rendered or the parameters are loaded
    cfg = tmp_path / "split.cfg"
    cfg.write_text(config_text(SMALL, **split))
    calls = []
    monkeypatch.setattr(cli, "synth_clip", lambda *a, **kw: calls.append("synth"))
    monkeypatch.setattr(cli, "_load_or_init_params", lambda *a: calls.append("params"))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-s", "--config", str(cfg), "--out", str(out)) == 5
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_exit_2_on_bad_sweep_range(tmp_path, capsys):
    code = run_cli("sweep-s", "--from", "0.9", "--to", "0.4",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2
    capsys.readouterr()


def test_exit_2_on_bad_env_seed(pipeline, monkeypatch, capsys):
    tmp_path, _, _, gop = pipeline
    monkeypatch.setenv("SPARSEPATCH_SEED", "not-an-int")
    code = run_cli("select", "--gop", str(gop), *MODEL_FLAGS,
                   "--out", str(tmp_path / "x.json"))
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# pipeline behavior
# ---------------------------------------------------------------------------


def test_synth_writes_manifest_and_clips(pipeline):
    tmp_path, _, _, _ = pipeline
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    assert manifest["spec"]["identities"] == 2
    assert len(manifest["files"]) == 4
    for entry in manifest["files"]:
        assert (tmp_path / "data" / entry["path"]).exists()
        assert len(entry["sha256"]) == 64


def test_encode_does_not_mutate_input(pipeline):
    tmp_path, _, clip, _ = pipeline
    before = clip.read_bytes()
    assert run_cli("encode", "--in", str(clip),
                   "--out", str(tmp_path / "again.gop1")) == 0
    assert clip.read_bytes() == before


def test_select_reports_consistent_summary(pipeline, capsys):
    tmp_path, _, clip, gop = pipeline
    out = tmp_path / "sel.json"
    assert run_cli("select", "--gop", str(gop), "--clip", str(clip),
                   *MODEL_FLAGS, "--out", str(out)) == 0
    capsys.readouterr()
    summary = json.loads(out.read_text())
    assert summary["frames"] == 3
    assert summary["grid"] == [2, 4]
    assert summary["mode"] == "infer"
    assert len(summary["selected"]) == 2
    assert [len(s) for s in summary["selected"]] == summary["kept_per_frame"]
    assert summary["pool_size"] == 8 + sum(summary["kept_per_frame"])
    assert summary["counted_macs"] > 0


def test_select_train_mode_differs_by_seed(pipeline, capsys):
    tmp_path, _, _, gop = pipeline
    outs = []
    for seed in ("3", "4"):
        out = tmp_path / f"sel{seed}.json"
        assert run_cli("select", "--gop", str(gop), "--mode", "train",
                       "--seed", seed, *MODEL_FLAGS, "--out", str(out)) == 0
        outs.append(json.loads(out.read_text()))
    capsys.readouterr()
    assert outs[0]["seed"] == 3 and outs[1]["seed"] == 4
    assert outs[0]["selected"] != outs[1]["selected"]


def test_forward_reports_costs_and_routing(pipeline, capsys):
    tmp_path, _, _, gop = pipeline
    out = tmp_path / "fwd.json"
    assert run_cli("forward", "--gop", str(gop), *MODEL_FLAGS,
                   "--threshold", "0.5", "--out", str(out)) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert len(payload["feature"]) == 16
    assert payload["counted_macs"] == sum(payload["macs_by_stage"].values())
    assert len(payload["routing"]) == 2  # 1 layer x 2 P-frames
    assert set(payload["uncounted"]) == {"eig_decompositions", "sad_compares",
                                        "sad_evaluated"}
    assert 0.0 <= payload["open_rate"] <= 1.0


def test_forward_dense_keeps_everything(pipeline, capsys):
    tmp_path, _, _, gop = pipeline
    out = tmp_path / "dense.json"
    assert run_cli("forward", "--gop", str(gop), "--dense", *MODEL_FLAGS,
                   "--out", str(out)) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["dense"] is True
    assert payload["kept_per_frame"] == [8, 8]
    assert payload["routing"] == []


@pytest.mark.parametrize("dense", [False, True])
def test_forward_serves_the_clip_pass_of_extract_feature(pipeline, dense, capsys):
    # forward and the trainer's evaluation run one clip pass
    tmp_path, _, _, gop = pipeline
    out = tmp_path / "fwd.json"
    assert run_cli("forward", "--gop", str(gop), *MODEL_FLAGS, "--threshold", "0.5",
                   *(["--dense"] if dense else []), "--out", str(out)) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    served = read_gop(gop)
    model = PsformerConfig(dim=16, layers=1, heads=2, grid_h=served.i_frame.grid_h,
                           grid_w=served.i_frame.grid_w, max_frames=served.frames)
    params = init_psformer_params(model, seed=0)
    init_selector_params(seed=1, params=params)
    res, kept = extract_feature(served, params, model, 0.5, dense)
    assert payload["feature"] == [float(v) for v in res.feature.data[0]]
    assert payload["kept_per_frame"] == kept


def test_env_seed_overrides_flag(pipeline, monkeypatch, capsys):
    tmp_path, _, _, gop = pipeline
    monkeypatch.setenv("SPARSEPATCH_SEED", "7")
    out = tmp_path / "sel-env.json"
    assert run_cli("select", "--gop", str(gop), "--seed", "3",
                   *MODEL_FLAGS, "--out", str(out)) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["seed"] == 7


def test_macs_baseline_anchor(capsys):
    assert run_cli("macs", "--baseline", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["analytic_gmacs"] == pytest.approx(89.992986624, abs=1e-9)


def test_macs_bisect_reports_fraction(capsys):
    assert run_cli("macs", "--target", "23.5", "--lo", "0.15", "--hi", "0.35",
                   "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bisect"]["kept_fraction"] == pytest.approx(0.15)
    assert payload["bisect"]["relative_error"] < 0.05


def test_macs_table_lists_stages(capsys):
    assert run_cli("macs", "--kept-fraction", "0.15", "--open-rate", "0.0") == 0
    out = capsys.readouterr().out
    for stage in ("embedding", "p_frame_msa", "patchwise_warp", "total"):
        assert stage in out


def test_sweep_writes_monotone_csv(pipeline, capsys):
    tmp_path, cfg, _, _ = pipeline
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-s", "--config", str(cfg), "--from", "0.4",
                   "--to", "0.9", "--step", "0.1", "--out", str(out)) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,open_rate,gmacs,heldout_rank1"
    assert len(lines) == 7
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    rates = [r[1] for r in rows]
    gmacs = [r[2] for r in rows]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(gmacs, gmacs[1:]))


def test_gradcheck_losses_passes(capsys):
    assert run_cli("gradcheck", "--module", "losses") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "losses/cross_entropy" in out


@pytest.mark.parametrize("seed", [0, 1])
def test_gradcheck_selector_uses_the_pool_each_frame_was_served(seed, monkeypatch):
    # every progressive residual the gradient check takes must be measured
    # against the same pool rows select_patches measured that frame against
    def spy(log, real):
        def wrapped(patches, pool):
            log.append(pool.shape[0])
            return real(patches, pool)
        return wrapped

    served, checked = [], []
    monkeypatch.setattr(selector, "progressive_residual",
                        spy(served, selector.progressive_residual))
    monkeypatch.setattr(cli, "progressive_residual",
                        spy(checked, cli.progressive_residual))
    monkeypatch.setattr(nc, "grad_check", lambda *args, **kwargs: {})
    cli._gradcheck_selector(seed)
    gop = cli._tiny_gradcheck_setup(seed)
    assert len(served) == gop.frames - 1
    assert checked == served


def test_train_writes_run_directory(pipeline, capsys):
    tmp_path, _, _, gop = pipeline
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(run_dir)) == 0
    capsys.readouterr()
    result = json.loads((run_dir / "result.json").read_text())
    assert result["epochs"] == 2
    assert len(result["params_sha256"]) == 64
    log = (run_dir / "log.csv").read_text().strip().splitlines()
    assert log[0].startswith("epoch,stage,")
    assert len(log) == 3
    # the checkpoint, with its extra cls.* parameters, serves the model it
    # was trained for
    ckpt = run_dir / "params.npz"
    assert any(name.startswith("cls.") for name in nc.ParamSet.load_npz(ckpt).names())
    for command in ("select", "forward"):
        assert run_cli(command, "--gop", str(gop), "--params", str(ckpt),
                       *MODEL_FLAGS, "--out", str(tmp_path / f"{command}.json")) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_synth_is_byte_deterministic(pipeline, capsys):
    tmp_path, cfg, _, _ = pipeline
    again = tmp_path / "data-again"
    # --config is an accepted alias for --spec
    assert run_cli("synth", "--config", str(cfg), "--out", str(again)) == 0
    capsys.readouterr()
    first = tmp_path / "data"
    for name in ("manifest.json", "id000_clip00.rv1", "id001_clip01.rv1"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_forward_is_byte_deterministic(pipeline, capsys):
    tmp_path, _, _, gop = pipeline
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli("forward", "--gop", str(gop), *MODEL_FLAGS,
                       "--out", str(out)) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_train_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    payloads = []
    for name in ("r1", "r2"):
        run_dir = tmp_path / name
        assert run_cli("train", "--config", str(cfg), "--out", str(run_dir)) == 0
        payloads.append(((run_dir / "result.json").read_bytes(),
                         (run_dir / "log.csv").read_bytes()))
    capsys.readouterr()
    assert payloads[0] == payloads[1]


def test_module_entrypoint_runs(tmp_path):
    # the subprocess imports this checkout's package, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparsepatch.cli", "macs", "--baseline",
         "--json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["analytic_gmacs"] == pytest.approx(89.992986624, abs=1e-9)
