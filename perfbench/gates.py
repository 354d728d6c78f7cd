"""Per-operation correctness gates.

Each gate returns a list of problems; an empty list means the operation
passed. The benchmark counts an operation as failed when any gate
reports a problem, so speed is never measured on wrong answers.
"""

from __future__ import annotations

import math

from sparsepatch.costmodel import runtime_counter_report

# a served feature may move by this share of its largest reference entry,
# which admits summation-order changes and rejects any change of meaning
FEATURE_RTOL = 1e-6
# losses in the training log, relative
LOSS_RTOL = 1e-6


def mac_problems(counter, geom, kept_counts, open_pattern) -> list[str]:
    """Counted MACs must equal the exact cost of the same run, per stage."""
    report = runtime_counter_report(counter, geom, kept_counts, open_pattern)
    problems = []
    diff = counter.total - round(report.analytic_gmacs * 1e9)
    if diff:
        problems.append(f"counted MACs differ from the exact cost by {diff}")
    for stage, gmacs in report.breakdown.items():
        stage_diff = counter.by_stage.get(stage, 0) - round(gmacs * 1e9)
        if stage_diff:
            problems.append(f"stage {stage}: counted MACs differ by {stage_diff}")
    return problems


def feature_problems(feature, reference, rtol: float = FEATURE_RTOL) -> list[str]:
    if len(feature) != len(reference):
        return [f"feature has {len(feature)} entries, reference {len(reference)}"]
    if not all(math.isfinite(v) for v in feature):
        return ["feature has non-finite entries"]
    scale = max(1.0, max(abs(v) for v in reference))
    worst = max(abs(a - b) for a, b in zip(feature, reference))
    if worst > rtol * scale:
        return [f"feature deviates from the reference by {worst:.3e} "
                f"(allowed {rtol * scale:.3e})"]
    return []


def serve_problems(observed: dict, reference: dict) -> list[str]:
    """Kept counts and routing exactly as recorded; feature within tolerance."""
    problems = []
    if observed["kept"] != reference["kept"]:
        problems.append(f"kept counts {observed['kept']} != reference {reference['kept']}")
    if observed["open"] != reference["open"]:
        problems.append("routing pattern differs from the reference")
    return problems + feature_problems(observed["feature"], reference["feature"])


def train_log_problems(log: list[dict], reference: list[dict]) -> list[str]:
    """Epoch, stage and rank-1 values exact; losses finite and within
    LOSS_RTOL of the recorded log."""
    if len(log) != len(reference):
        return [f"log has {len(log)} rows, reference {len(reference)}"]
    problems = []
    for row, ref in zip(log, reference):
        for key, want in ref.items():
            got = row[key]
            if key.startswith("loss_"):
                if not math.isfinite(got):
                    problems.append(f"epoch {row['epoch']}: {key} is not finite")
                elif abs(got - want) > LOSS_RTOL * max(1.0, abs(want)):
                    problems.append(f"epoch {row['epoch']}: {key} {got!r} != {want!r}")
            elif not (got == want or (isinstance(want, float) and math.isnan(want)
                                      and math.isnan(got))):
                problems.append(f"epoch {row['epoch']}: {key} {got!r} != {want!r}")
    return problems
