"""Which package functions the traced run wraps, and the per-layer
metrics computed from the spans they leave.

Each target names the namespace a caller looks the function up in:
``selector`` imports ``sad_nearest``, ``decode_gop`` and
``prominent_eigvec`` by name, and ``training`` does the same for the
forward passes and the selector, so those are wrapped there as well as
at home. Spans are named after the layer that owns the function.
"""

from __future__ import annotations

from sparsepatch import gopcodec, numcore, psformer, selector, training, videoio

import spans as sp

LAYERS = ("numcore", "videoio", "gopcodec", "spectral", "selector", "psformer",
          "training")
MACS_STAGES = ("embedding", "i_frame_msa", "p_frame_msa", "patchwise_warp",
               "global_warp", "routing")


def _sad_compares(queries, keys, *args, **kwargs) -> int:
    # the same product gopcodec.sad_nearest notes in MacCounter.uncounted
    return queries.shape[0] * keys.shape[0] * queries.shape[1]


def _tape_entries(tape, loss) -> int:
    return len(tape)


def targets():
    return [
        (numcore, "matmul", "numcore.matmul"),
        (numcore, "neighborhood_rows", "numcore.neighborhood_rows"),
        (numcore.Tape, "backward", "numcore.backward",
         ("numcore.tape_entries", _tape_entries)),
        (videoio, "read_rawvid", "videoio.read_rawvid"),
        (gopcodec, "sad_nearest", "gopcodec.sad_nearest",
         ("gopcodec.sad_compares", _sad_compares)),
        (selector, "sad_nearest", "gopcodec.sad_nearest",
         ("gopcodec.sad_compares", _sad_compares)),
        (gopcodec, "encode_gop", "gopcodec.encode_gop"),
        (gopcodec, "decode_gop", "gopcodec.decode_gop"),
        (selector, "decode_gop", "gopcodec.decode_gop"),
        (gopcodec, "read_gop", "gopcodec.read_gop"),
        (gopcodec, "write_gop", "gopcodec.write_gop"),
        (selector, "prominent_eigvec", "spectral.prominent_eigvec"),
        (selector, "shallow_3dcnn", "selector.shallow_3dcnn"),
        (selector, "select_patches", "selector.select_patches"),
        (training, "select_patches", "selector.select_patches"),
        (selector, "score_gate", "selector.score_gate"),
        (psformer, "psformer_forward", "psformer.forward"),
        (training, "psformer_forward", "psformer.forward"),
        (training, "dense_forward", "psformer.dense_forward"),
        (psformer, "msa_block", "psformer.msa_block"),
        (training, "two_stage_train", "training.two_stage_train"),
        (training, "error_constraint_loss", "training.error_constraint_loss"),
        (training.Adam, "step", "training.adam_step"),
        (training, "extract_feature", "training.extract_feature"),
        (training, "rank1", "training.rank1"),
    ]


# per-layer metric -> span names whose inclusive time it sums
SPAN_TIMES = {
    "psformer.forward_ms": ("psformer.forward",),
    "psformer.msa_block_ms": ("psformer.msa_block",),
    "numcore.matmul_ms": ("numcore.matmul",),
    "numcore.neighborhood_rows_ms": ("numcore.neighborhood_rows",),
    "numcore.backward_ms": ("numcore.backward",),
    "selector.shallow_3dcnn_ms": ("selector.shallow_3dcnn",),
    "selector.select_patches_ms": ("selector.select_patches",),
    "selector.score_gate_ms": ("selector.score_gate",),
    "spectral.prominent_eigvec_ms": ("spectral.prominent_eigvec",),
    "gopcodec.sad_nearest_ms": ("gopcodec.sad_nearest",),
    "gopcodec.encode_gop_ms": ("gopcodec.encode_gop",),
    "gopcodec.decode_gop_ms": ("gopcodec.decode_gop",),
    "gopcodec.read_gop_ms": ("gopcodec.read_gop",),
    "gopcodec.write_gop_ms": ("gopcodec.write_gop",),
    "videoio.read_rawvid_ms": ("videoio.read_rawvid",),
    "training.error_loss_ms": ("training.error_constraint_loss",),
    "training.adam_step_ms": ("training.adam_step",),
    "training.eval_ms": ("training.extract_feature", "training.rank1"),
}
TRAINING_FORWARD = ("psformer.forward", "psformer.dense_forward",
                    "selector.select_patches")
SPAN_CALLS = {
    "numcore.matmul_calls": "numcore.matmul",
    "spectral.eig_calls": "spectral.prominent_eigvec",
}
COUNTS = ("numcore.tape_entries", "gopcodec.sad_compares")


TRACE_METRICS = ("trace.untraced_clips_per_s", "trace.traced_clips_per_s",
                 "trace.overhead_clips_per_s")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "ms" for name in SPAN_TIMES}
    units["training.forward_ms"] = "ms"
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units.update({name: "count" for name in (*SPAN_CALLS, *COUNTS)})
    units.update({f"psformer.gmacs.{s}": "GMAC" for s in MACS_STAGES})
    units.update({"psformer.open_rate": "share", "selector.kept_fraction": "share",
                  "selector.gmacs": "GMAC", "gmacs_per_clip": "GMAC",
                  "gopcodec.gop_bytes": "bytes"})
    units.update({name: "1/s" for name in TRACE_METRICS})
    return units


def span_metrics(spans: list, counts: dict, passes: int) -> dict[str, float]:
    """Per-pass times (ms) and counts from one traced run's spans."""
    rows = sp.summarize(spans)
    own = sp.self_times(spans)
    out = {}
    for metric, names in SPAN_TIMES.items():
        total = sum(rows[n]["total_s"] for n in names if n in rows)
        out[metric] = 1e3 * total / passes
    forward = sum(
        s.end - s.start for i, s in enumerate(spans)
        if s.name in TRAINING_FORWARD
        and sp.has_ancestor(spans, i, {"training.two_stage_train"})
        and not sp.has_ancestor(spans, i, {"training.extract_feature"}))
    out["training.forward_ms"] = 1e3 * forward / passes
    for layer in LAYERS:
        total = sum(t for s, t in zip(spans, own) if s.name.startswith(layer + "."))
        out[f"{layer}.self_ms"] = 1e3 * total / passes
    for metric, name in SPAN_CALLS.items():
        out[metric] = rows[name]["calls"] / passes if name in rows else 0.0
    for name in COUNTS:
        out[name] = counts.get(name, 0) / passes
    return out


def result_metrics(observations: list) -> dict[str, float]:
    """Per-clip model figures from the operations' own results."""
    served = [o for o in observations if o.counter is not None]
    out = {f"psformer.gmacs.{s}": 0.0 for s in MACS_STAGES}
    out.update({"psformer.open_rate": 0.0, "selector.kept_fraction": 0.0,
                "selector.gmacs": 0.0, "gmacs_per_clip": 0.0})
    if served:
        k = len(served)
        for s in MACS_STAGES:
            out[f"psformer.gmacs.{s}"] = sum(
                o.counter.by_stage.get(s, 0) for o in served) / k / 1e9
        out["selector.gmacs"] = sum(
            o.counter.by_stage.get("selection_cnn", 0)
            + o.counter.by_stage.get("selector_mlp", 0) for o in served) / k / 1e9
        out["gmacs_per_clip"] = sum(o.counter.total for o in served) / k / 1e9
        out["psformer.open_rate"] = sum(o.open_rate for o in served) / k
        out["selector.kept_fraction"] = sum(o.kept_fraction for o in served) / k
    out["gopcodec.gop_bytes"] = (sum(o.gop_bytes for o in observations)
                                 / max(1, len(observations)))
    return out
