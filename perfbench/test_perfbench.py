"""Tests of the benchmark's own logic: tail percentile, span self time,
the reference gate and MAC reconciliation."""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile: the highest ladder step with at least ten samples beyond
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(20, 50.0), (39, 50.0), (40, 75.0),
                                    (100, 90.0), (199, 90.0), (200, 95.0),
                                    (1000, 99.0), (10000, 99.9)])
def test_tail_leaves_ten_samples_beyond(n, pct):
    samples = [float(v) for v in range(n, 0, -1)]
    got_pct, value = stats.tail_percentile(samples)
    assert got_pct == pct
    assert sum(1 for s in samples if s > value) >= stats.MIN_BEYOND
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    for p in higher:
        assert sum(1 for s in samples if s > stats.percentile(samples, p)) \
            < stats.MIN_BEYOND


def test_tail_needs_twenty_samples():
    assert stats.tail_percentile([1.0] * 19) is None
    assert stats.tail_percentile([]) is None


# ---------------------------------------------------------------------------
# spans: nesting, self time, restoring the wrapped functions
# ---------------------------------------------------------------------------


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # a: 0-10 holds b: 1-4 (which holds c: 2-3) and d: 5-7
    recorder = spans.SpanRecorder(clock=_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    ns = types.SimpleNamespace()
    ns.c = recorder.wrap("x.c", lambda: None)
    ns.b = recorder.wrap("x.b", lambda: ns.c())
    ns.d = recorder.wrap("x.d", lambda: None)
    ns.a = recorder.wrap("x.a", lambda: (ns.b(), ns.d()))
    ns.a()
    by_name = {s.name: (s, own) for s, own in
               zip(recorder.spans, spans.self_times(recorder.spans))}
    assert by_name["x.a"][1] == 10 - 3 - 2
    assert by_name["x.b"][1] == 3 - 1
    assert by_name["x.c"][1] == 1
    assert by_name["x.d"][1] == 2
    a_index = recorder.spans.index(by_name["x.a"][0])
    assert by_name["x.b"][0].parent == a_index
    assert spans.has_ancestor(recorder.spans, recorder.spans.index(by_name["x.c"][0]),
                              {"x.a"})
    summary = spans.summarize(recorder.spans)
    assert summary["x.a"] == {"calls": 1, "total_s": 10, "self_s": 5}


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span("p", 0.0, 10.0, None, 0)
    kids = [spans.Span("k", 1.0, 5.0, 0, 0), spans.Span("k", 3.0, 6.0, 0, 0),
            spans.Span("k", 9.0, 12.0, 0, 0)]
    assert spans.self_times([parent] + kids)[0] == pytest.approx(10 - 5 - 1)


def test_installed_restores_originals_and_counts():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.installed(recorder, [(module, "f", "m.f", ("m.args", lambda x: x))]):
            assert module.f(4) == 5
            recorder.op = 7
            module.f(2)
            raise RuntimeError("boom")
    assert module.f is original
    assert [s.op for s in recorder.spans] == [0, 7]
    assert recorder.counts == {"m.args": 6}


# ---------------------------------------------------------------------------
# gates on a real served clip: reference match and MAC reconciliation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    from sparsepatch import gopcodec

    key = workloads.universe()[0]
    path = tmp_path_factory.mktemp("perfbench") / f"{key}.gop1"
    gopcodec.write_gop(gopcodec.encode_gop(workloads.render(key)), path)
    model, params = workloads.build_serve_params("serve-small")
    out = workloads.serve_clip(path, model, params,
                               workloads.SERVE_MODELS["serve-small"]["threshold"])
    ref, features = workloads.load_reference()
    expected = dict(ref["serve"]["serve-small"][key])
    expected["feature"] = features[f"serve-small.{key}"].tolist()
    return out, expected


def test_reference_gate_accepts_the_recorded_output(served):
    out, expected = served
    assert gates.serve_problems(out, expected) == []


def test_reference_gate_rejects_a_perturbed_feature(served):
    out, expected = served
    bumped = dict(out, feature=list(out["feature"]))
    bumped["feature"][3] += 1e-4
    assert gates.serve_problems(bumped, expected)
    nan = dict(out, feature=[float("nan")] + out["feature"][1:])
    assert gates.serve_problems(nan, expected)
    reordered = dict(out, feature=[v * (1 + 1e-12) for v in out["feature"]])
    assert gates.serve_problems(reordered, expected) == []


def test_reference_gate_rejects_other_kept_counts_or_routing(served):
    out, expected = served
    kept = list(out["kept"])
    kept[0] += 1
    assert gates.serve_problems(dict(out, kept=kept), expected)
    assert gates.serve_problems(dict(out, open=[[0, 1]]), expected)


def test_counted_macs_reconcile_with_exact_cost(served):
    out, _ = served
    geom = workloads.serve_geometry("serve-small")
    opens = [tuple(p) for p in out["open"]]
    counter = out["counter"]
    assert gates.mac_problems(counter, geom, out["kept"], opens) == []
    kept = list(out["kept"])
    kept[2] += 1
    assert gates.mac_problems(counter, geom, kept, opens)
    counter.total += 1
    try:
        assert gates.mac_problems(counter, geom, out["kept"], opens)
    finally:
        counter.total -= 1


def test_train_log_gate():
    ref = [{"epoch": 0, "stage": 1, "loss_cent": 1.5, "train_rank1": 0.5}]
    assert gates.train_log_problems([dict(ref[0])], ref) == []
    assert gates.train_log_problems([dict(ref[0], loss_cent=1.5 + 1e-3)], ref)
    assert gates.train_log_problems([dict(ref[0], loss_cent=float("nan"))], ref)
    assert gates.train_log_problems([dict(ref[0], train_rank1=0.75)], ref)
    assert gates.train_log_problems([], ref)


# ---------------------------------------------------------------------------
# inputs and the metric list
# ---------------------------------------------------------------------------


def test_pool_is_seeded_and_balanced():
    ref, _ = workloads.load_reference()
    kept = workloads.kept_fractions(ref)
    pool = workloads.draw_pool(5, 2, kept)
    assert pool == workloads.draw_pool(5, 2, kept)
    assert pool != workloads.draw_pool(6, 2, kept)
    assert len(set(pool)) == len(pool) == 12
    for bg in workloads.BACKGROUNDS:
        ranked = sorted((k for k in kept if k.startswith(bg + "-")),
                        key=lambda k: (kept[k], k))
        ranks = sorted(ranked.index(k) for k in pool if k.startswith(bg + "-"))
        assert len(ranks) == 4
        # each light clip comes with its heavy complement
        assert ranks[0] + ranks[3] == ranks[1] + ranks[2] == len(ranked) - 1
    assert len({k.split("-")[1] for k in workloads.universe()}) >= 10


def test_run_stops_before_a_pass_would_overrun(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])

    class TwoSecondPass:
        pool = ["a", "b"]

        def operate(self, item):
            now[0] += 1.0

        def check(self, item, result):
            return workloads.Observation(passes=1)

    loop = run.Loop(TwoSecondPass())
    # passes end at 2, 4 and 6 s; a fourth would end at 8 s, past 7 s
    assert loop.run_passes(7.0) == 3
    # one whole pass even when it alone overruns
    assert loop.run_passes(1.0) == 1
    assert len(loop.latencies) == len(loop.wall) == 8


def test_train_pass_count_matches_the_batches():
    from sparsepatch import numcore

    recorder = spans.SpanRecorder()
    with spans.installed(recorder, [(numcore.Tape, "backward", "backward")]):
        workloads.train_call(0)
    c = workloads.TRAIN_CONFIG
    clips_per_batch = c["batch_identities"] * c["batch_clips"]
    assert len(recorder.spans) * clips_per_batch == workloads.train_passes_per_call()


def test_reference_covers_the_universe():
    ref, features = workloads.load_reference()
    for name in workloads.SERVE_MODELS:
        assert set(ref["serve"][name]) == set(workloads.universe())
        assert all(f"{name}.{k}" in features for k in workloads.universe())
    assert set(ref["ingest"]) == set(workloads.universe())
    assert set(ref["train"]) == {str(s) for s in range(workloads.TRAIN_SEEDS)}


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layers.per_layer_units()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
