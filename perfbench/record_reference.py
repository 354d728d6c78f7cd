"""Record the outputs the benchmark's correctness gates compare against.

    python3 perfbench/record_reference.py

Serves every clip of the universe with both serve models, records the
digest of each clip's encoded .gop1 file and the log of every training
seed, and writes ``reference.json`` and ``reference_features.npz`` next
to this file. Takes about ten minutes on two cores. Rerun it only in a
change that is meant to alter the program's outputs, and say so there.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    run.bootstrap()
    import numpy as np
    from sparsepatch import gopcodec

    import workloads as w

    ref = {"serve": {name: {} for name in w.SERVE_MODELS}, "ingest": {}, "train": {}}
    features = {}
    gops = {}
    for key in w.universe():
        gop = gopcodec.encode_gop(w.render(key))
        path = run.ROOT / ".bench_work" / "reference" / f"{key}.gop1"
        path.parent.mkdir(parents=True, exist_ok=True)
        gopcodec.write_gop(gop, path)
        ref["ingest"][key] = hashlib.sha256(path.read_bytes()).hexdigest()
        gops[key] = path
    for name, spec in w.SERVE_MODELS.items():
        model, params = w.build_serve_params(name)
        for key, path in gops.items():
            out = w.serve_clip(path, model, params, spec["threshold"])
            ref["serve"][name][key] = {"kept": out["kept"], "open": out["open"]}
            features[f"{name}.{key}"] = np.asarray(out["feature"], dtype=np.float32)
            print(name, key, out["kept"], len(out["open"]), flush=True)
    for s in range(w.TRAIN_SEEDS):
        ref["train"][str(s)] = w.train_call(s)
    for path in gops.values():
        path.unlink()
    path.parent.rmdir()
    w.REFERENCE_JSON.write_text(json.dumps(ref, sort_keys=True) + "\n")
    np.savez_compressed(w.REFERENCE_FEATURES, **features)
    return 0


if __name__ == "__main__":
    sys.exit(main())
