import dataclasses
import json

import numpy as np
import pytest

from sparsepatch import numcore as nc
from sparsepatch.cli import main
from sparsepatch.costmodel import (
    Geometry,
    STAGES,
    bisect_kept_fraction,
    estimate_ours,
    estimate_vit,
    exact_cost,
    msa_macs,
    runtime_counter_report,
)
from sparsepatch.errors import ValidationError
from sparsepatch.gopcodec import encode_gop
from sparsepatch.psformer import PsformerConfig, init_psformer_params, psformer_forward
from sparsepatch.selector import init_selector_params, select_patches
from sparsepatch.videoio import SynthSpec, synth_clip

VIT_B = Geometry(height=128, width=256, frames=8, dim=768, layers=12, heads=12)


def test_geometry_validation():
    with pytest.raises(ValidationError):
        Geometry(height=100)
    with pytest.raises(ValidationError):
        Geometry(dim=700, heads=12)
    with pytest.raises(ValidationError):
        Geometry(frames=0)


def test_vit_anchor_value():
    rep = estimate_vit(VIT_B)
    # frozen closed form: 8 * (128*768*768 + 12*(12*768^2*128 + 2*128^2*768))
    assert rep.analytic_gmacs == pytest.approx(89.992986624, abs=1e-9)
    assert abs(rep.analytic_gmacs - 88.9) / 88.9 < 0.05


def test_vit_linear_in_layers():
    base = estimate_vit(VIT_B)
    double = estimate_vit(Geometry(height=128, width=256, frames=8, dim=768,
                                   layers=24, heads=12))
    embed = base.breakdown["embedding"]
    assert double.analytic_gmacs - embed == pytest.approx(
        2 * (base.analytic_gmacs - embed), rel=1e-12)


def test_vit_superlinear_in_patches():
    base = estimate_vit(Geometry(height=128, width=128, frames=2, dim=192,
                                 layers=4, heads=4))
    wide = estimate_vit(Geometry(height=128, width=256, frames=2, dim=192,
                                 layers=4, heads=4))
    attn_base = base.analytic_gmacs - base.breakdown["embedding"]
    attn_wide = wide.analytic_gmacs - wide.breakdown["embedding"]
    assert attn_wide > 2 * attn_base


def test_breakdown_sums_to_total():
    for rep in (estimate_vit(VIT_B),
                estimate_ours(VIT_B, 0.2, 0.3, include_selection=True)):
        assert sum(rep.breakdown.values()) == pytest.approx(
            rep.analytic_gmacs, rel=1e-12)
        assert set(rep.breakdown) == set(STAGES)


def test_ours_full_keep_closed_exceeds_vit():
    ours = estimate_ours(VIT_B, 1.0, 0.0, include_selection=True)
    vit = estimate_vit(VIT_B)
    assert ours.analytic_gmacs >= vit.analytic_gmacs


def test_ours_zero_keep_transformer_term_is_one_frame():
    ours = estimate_ours(VIT_B, 0.0, 0.0, include_selection=True)
    vit = estimate_vit(VIT_B)
    transformer = (ours.breakdown["embedding"] + ours.breakdown["i_frame_msa"]
                   + ours.breakdown["p_frame_msa"])
    assert transformer == pytest.approx(vit.analytic_gmacs / VIT_B.frames,
                                        rel=1e-12)


def test_ours_single_frame_matches_vit_exactly():
    geom = Geometry(height=64, width=64, frames=1, dim=192, layers=4, heads=4)
    ours = estimate_ours(geom, 1.0, 0.0, include_selection=False)
    vit = estimate_vit(geom)
    assert ours.analytic_gmacs == pytest.approx(vit.analytic_gmacs, rel=5e-3)
    assert ours.analytic_gmacs == pytest.approx(vit.analytic_gmacs, rel=1e-12)


def test_ours_monotone_in_rates():
    rng = np.random.Generator(np.random.PCG64(0))
    geom = Geometry(height=64, width=128, frames=4, dim=96, layers=3, heads=4)
    for _ in range(20):
        f1, f2 = sorted(rng.uniform(0, 1, 2))
        g1, g2 = sorted(rng.uniform(0, 1, 2))
        a = estimate_ours(geom, f1, g1, include_selection=True).analytic_gmacs
        b = estimate_ours(geom, f2, g1, include_selection=True).analytic_gmacs
        c = estimate_ours(geom, f1, g2, include_selection=True).analytic_gmacs
        assert a <= b + 1e-12
        assert a <= c + 1e-12


def test_ours_validates_rates():
    with pytest.raises(ValidationError):
        estimate_ours(VIT_B, 1.2, 0.0, include_selection=True)
    with pytest.raises(ValidationError):
        estimate_ours(VIT_B, 0.5, -0.1, include_selection=True)


def test_paper_cost_reduction_anchor():
    f, rep = bisect_kept_fraction(VIT_B, 23.5, gate_open_rate=0.0,
                                  bounds=(0.15, 0.35), include_selection=True)
    assert 0.15 <= f <= 0.35
    assert abs(rep.analytic_gmacs - 23.5) / 23.5 < 0.05
    # excluding the selection network the target is hit exactly, interior
    f2, rep2 = bisect_kept_fraction(VIT_B, 23.5, gate_open_rate=0.0,
                                    bounds=(0.15, 0.35), include_selection=False)
    assert 0.15 < f2 < 0.35
    assert rep2.analytic_gmacs == pytest.approx(23.5, abs=1e-6)


def test_bisection_clamps_and_validates():
    lo_f, _ = bisect_kept_fraction(VIT_B, 1.0, 0.0, (0.2, 0.8), True)
    assert lo_f == 0.2
    hi_f, _ = bisect_kept_fraction(VIT_B, 1e6, 0.0, (0.2, 0.8), True)
    assert hi_f == 0.8
    with pytest.raises(ValidationError):
        bisect_kept_fraction(VIT_B, -5.0, 0.0, (0.0, 1.0), True)
    with pytest.raises(ValidationError):
        bisect_kept_fraction(VIT_B, 23.5, 0.0, (0.9, 0.1), True)


def _toy_run(threshold, keep=None):
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=64,
                     width=64, frames=4, background="textured",
                     motion_amplitude=2.0, seed=0)
    clip = synth_clip(spec, identity=1, clip_seed=0)
    cfg = PsformerConfig(dim=64, layers=3, heads=4, grid_h=4, grid_w=4)
    params = init_psformer_params(cfg, seed=5)
    init_selector_params(seed=3, params=params)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        gop = encode_gop(clip)
        sel = select_patches(gop, params, mode="infer", seed=0)
        if keep is not None:
            # P-frame t keeps keep(t, s) in place of its selection s
            kept = [keep(t, s) for t, s in enumerate(sel.selected, start=1)]
            assert [s.size for s in kept] != sel.kept_counts
            sel = dataclasses.replace(sel, selected=kept)
        res = psformer_forward(gop, sel, params, cfg, threshold=threshold)
    geom = Geometry(height=64, width=64, frames=4, dim=64, layers=3, heads=4)
    opens = [(r.layer, r.frame) for r in res.routing if r.open_path]
    return counter, geom, sel.kept_counts, opens


@pytest.mark.parametrize("threshold", [3.0, -1.0])
def test_counted_matches_exact_cost(threshold):
    # frame 2 emptied: a P-frame with no kept patch prices zero rows; every
    # patch kept: no frame, open or not, warps a row, nor does the final
    # reinstatement
    for keep in (None, lambda t, s: s[:0] if t == 2 else s,
                 lambda t, s: np.arange(16)):
        counter, geom, kept, opens = _toy_run(threshold, keep)
        report = runtime_counter_report(counter, geom, kept, opens)
        assert counter.total / 1e9 == pytest.approx(report.analytic_gmacs,
                                                    rel=1e-12)
        for stage in STAGES:
            got = counter.by_stage.get(stage, 0) / 1e9
            assert got == pytest.approx(report.breakdown[stage],
                                        rel=1e-12), stage
        assert counter.uncounted.get("sad_compares", 0) > 0
        assert counter.uncounted.get("eig_decompositions", 0) == geom.frames - 1


def test_counted_matches_exact_cost_mixed_routing():
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=64,
                     width=64, frames=4, background="textured",
                     motion_amplitude=2.0, seed=0)
    clip = synth_clip(spec, identity=1, clip_seed=0)
    cfg = PsformerConfig(dim=64, layers=3, heads=4, grid_h=4, grid_w=4)
    params = init_psformer_params(cfg, seed=5)
    init_selector_params(seed=3, params=params)
    gop = encode_gop(clip)
    probe = psformer_forward(gop, select_patches(gop, params, mode="infer", seed=0),
                             params, cfg, threshold=3.0)
    mid = float(np.median([r.cost for r in probe.routing]))
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        sel = select_patches(gop, params, mode="infer", seed=0)
        res = psformer_forward(gop, sel, params, cfg, threshold=mid)
    opens = [(r.layer, r.frame) for r in res.routing if r.open_path]
    assert 0 < len(opens) < len(res.routing)
    geom = Geometry(height=64, width=64, frames=4, dim=64, layers=3, heads=4)
    report = runtime_counter_report(counter, geom, sel.kept_counts, opens)
    assert counter.total / 1e9 == pytest.approx(report.analytic_gmacs,
                                                rel=1e-12)


def test_one_frame_clip_counts_no_selection():
    # a one-frame clip selects nothing: it runs no selection CNN, and the
    # cost model prices none
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=32,
                     width=64, frames=1, background="textured",
                     motion_amplitude=2.0, seed=0)
    cfg = PsformerConfig(dim=16, layers=1, heads=2, grid_h=2, grid_w=4)
    params = init_psformer_params(cfg, seed=0)
    init_selector_params(seed=1, params=params)
    gop = encode_gop(synth_clip(spec, identity=0, clip_seed=0))
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        sel = select_patches(gop, params, mode="infer", seed=0)
        psformer_forward(gop, sel, params, cfg, threshold=0.5)
    geom = Geometry(height=32, width=64, frames=1, dim=16, layers=1, heads=2)
    report = runtime_counter_report(counter, geom, [], [])
    assert "selection_cnn" not in counter.by_stage
    assert report.breakdown["selection_cnn"] == report.breakdown["selector_mlp"] == 0.0
    assert counter.total / 1e9 == pytest.approx(report.analytic_gmacs, rel=1e-12)
    for stage in STAGES:
        got = counter.by_stage.get(stage, 0) / 1e9
        assert got == pytest.approx(report.breakdown[stage], rel=1e-12), stage


def test_runtime_report_requires_counts():
    with pytest.raises(ValidationError):
        runtime_counter_report(nc.MacCounter(), VIT_B, [0] * 7, [])


def test_exact_cost_validates_pattern():
    geom = Geometry(height=64, width=64, frames=3, dim=64, layers=2, heads=4)
    with pytest.raises(ValidationError):
        exact_cost(geom, [1], [])
    with pytest.raises(ValidationError):
        exact_cost(geom, [1, 99], [])
    with pytest.raises(ValidationError):
        exact_cost(geom, [1, 1], [(5, 1)])


def test_msa_macs_zero_rows_is_free():
    assert msa_macs(0, 9, 64) == 0.0


def test_report_json_fields(capsys):
    # a report holds the priced cost only; --target adds the bisection
    assert main(["macs", "--kept-fraction", "0.2", "--open-rate", "0.1",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"analytic_gmacs", "breakdown", "inputs"}
    assert data["inputs"]["geometry"] == dataclasses.asdict(VIT_B) == {
        "height": 128, "width": 256, "frames": 8, "dim": 768, "layers": 12,
        "heads": 12}
    assert data["inputs"]["kept_fraction"] == 0.2
    rep = estimate_ours(VIT_B, 0.2, 0.1, include_selection=True)
    assert data["analytic_gmacs"] == rep.analytic_gmacs
    assert data["breakdown"] == rep.breakdown
    assert main(["macs", "--target", "20", "--json"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "analytic_gmacs", "breakdown", "inputs", "bisect"}
