"""The benchmark's workloads: inputs from a seed, set-up, one operation
and the gate that checks it.

Every input comes from a fixed universe of synthetic clips, so that the
outputs of each one can be recorded once (``record_reference.py``) and
compared on every later run. The seed picks which clips of the universe
form a run's pool and in which order; a run serves whole passes over
its pool.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsepatch import gopcodec, numcore, psformer, selector, training, videoio
from sparsepatch.costmodel import Geometry

import gates

HERE = Path(__file__).resolve().parent
REFERENCE_JSON = HERE / "reference.json"
REFERENCE_FEATURES = HERE / "reference_features.npz"

# the served clip universe: paper geometry, three backgrounds, twelve
# identities, two clips each
HEIGHT, WIDTH, FRAMES = 128, 256, 8
BACKGROUNDS = ("textured", "distractor", "uniform")
IDENTITIES = 12
CLIPS_PER_IDENTITY = 2
UNIVERSE_SEED = 0
# the command line's default model seed (init_psformer_params seed 0,
# init_selector_params seed 1)
PARAM_SEED = 0

SERVE_MODELS = {
    # the paper's ViT-B geometry at the command line's default threshold
    "serve-vitb": {"dim": 768, "layers": 12, "heads": 12, "threshold": 0.5},
    # the command line's default model; no cosine distance exceeds 2.0,
    # so every (layer, frame) takes the global-warp path. Not a timed
    # workload (perfbench/README.md says why): the tests serve it because
    # it is fast, and its recorded kept counts rank the clips.
    "serve-small": {"dim": 64, "layers": 4, "heads": 4, "threshold": 2.0},
}
# complementary pairs per background in one pass of a run's pool
PAIRS_PER_BACKGROUND = {"serve-vitb": 1, "ingest": 2}

# training: toy geometry, one dense and one sparse epoch per call; seed s
# renders background s % 3, and one pass runs one seed per background
TRAIN_SEEDS = 9
TRAIN_SPEC = {"identity_count": 4, "clips_per_identity": 3, "height": 64,
              "width": 64, "frames": 4, "motion_amplitude": 2.0}
TRAIN_MODEL = {"dim": 32, "layers": 2, "heads": 2}
TRAIN_CONFIG = {"stage1_epochs": 1, "stage2_epochs": 1, "batch_identities": 2,
                "batch_clips": 2, "heldout_clips": 1, "noise_samples": 2}


def clip_key(background: str, identity: int, clip: int) -> str:
    return f"{background}-{identity:02d}-{clip}"


def universe() -> list[str]:
    return [clip_key(bg, ident, clip) for bg in BACKGROUNDS
            for ident in range(IDENTITIES) for clip in range(CLIPS_PER_IDENTITY)]


# set-up warms up on the same clip whatever the seed
WARMUP_KEY = universe()[0]


def render(key: str) -> videoio.RawClip:
    background, ident, clip = key.split("-")
    spec = videoio.SynthSpec(identity_count=IDENTITIES,
                             clips_per_identity=CLIPS_PER_IDENTITY,
                             height=HEIGHT, width=WIDTH, frames=FRAMES,
                             background=background, seed=UNIVERSE_SEED)
    return videoio.synth_clip(spec, identity=int(ident), clip_seed=int(clip))


def kept_fractions(reference: dict) -> dict[str, float]:
    """Recorded kept fraction per clip (the selector is the same for
    both serve models)."""
    n = (HEIGHT // 16) * (WIDTH // 16) * (FRAMES - 1)
    return {key: sum(entry["kept"]) / n
            for key, entry in reference["serve"]["serve-small"].items()}


def draw_pool(seed: int, pairs_per_background: int,
              kept: dict[str, float]) -> list[str]:
    """One pass: ``pairs_per_background`` complementary pairs per background.

    A background's clips are ranked by kept fraction and the i-th lightest
    is paired with the i-th heaviest, so every pass holds the same spread
    of light and heavy clips while the seed picks which ones; the kept
    fraction sets most of a clip's cost. The pass order is seeded too.
    """
    rng = random.Random(seed)
    pool = []
    for bg in BACKGROUNDS:
        ranked = sorted((k for k in kept if k.startswith(bg + "-")),
                        key=lambda k: (kept[k], k))
        half = len(ranked) // 2
        for i in rng.sample(range(half), pairs_per_background):
            pool += [ranked[i], ranked[-1 - i]]
    rng.shuffle(pool)
    return pool


def serve_geometry(name: str) -> Geometry:
    m = SERVE_MODELS[name]
    return Geometry(height=HEIGHT, width=WIDTH, frames=FRAMES, dim=m["dim"],
                    layers=m["layers"], heads=m["heads"])


def build_serve_params(name: str):
    m = SERVE_MODELS[name]
    model = psformer.PsformerConfig(dim=m["dim"], layers=m["layers"],
                                    heads=m["heads"], grid_h=HEIGHT // 16,
                                    grid_w=WIDTH // 16, max_frames=FRAMES)
    params = psformer.init_psformer_params(model, seed=PARAM_SEED)
    selector.init_selector_params(seed=PARAM_SEED + 1, params=params)
    return model, params


def serve_clip(path, model, params, threshold: float) -> dict:
    """The ``sparsepatch forward`` call sequence on one .gop1 file."""
    gop = gopcodec.read_gop(path)
    counter = numcore.MacCounter()
    with numcore.mac_counting(counter):
        clip = gopcodec.decode_gop(gop)
        semantics = selector.shallow_3dcnn(clip, params)
        sel = selector.select_patches(gop, params, mode="infer", seed=0,
                                      semantics=semantics)
        res = psformer.psformer_forward(gop, sel, params, model,
                                        threshold=threshold)
    return {
        "feature": res.feature.data[0].tolist(),
        "kept": sel.kept_counts,
        "open": [[r.layer, r.frame] for r in res.routing if r.open_path],
        "routed": len(res.routing),
        "counter": counter,
    }


def train_spec(train_seed: int) -> videoio.SynthSpec:
    return videoio.SynthSpec(background=BACKGROUNDS[train_seed % len(BACKGROUNDS)],
                             seed=train_seed, **TRAIN_SPEC)


def train_call(train_seed: int) -> list[dict]:
    """One fixed-size ``two_stage_train`` call; returns its log."""
    spec = train_spec(train_seed)
    config = training.TrainConfig(seed=train_seed, **TRAIN_CONFIG)
    model = psformer.PsformerConfig(grid_h=spec.height // 16,
                                    grid_w=spec.width // 16,
                                    max_frames=spec.frames, **TRAIN_MODEL)
    return training.two_stage_train(spec, config, model=model).log


def train_passes_per_call() -> int:
    """Clip forward+backward passes in one call: P x K clips per batch,
    one batch per full group of P training identities, every epoch."""
    c = TRAIN_CONFIG
    groups = TRAIN_SPEC["identity_count"] // c["batch_identities"]
    per_epoch = groups * c["batch_identities"] * c["batch_clips"]
    return per_epoch * (c["stage1_epochs"] + c["stage2_epochs"])


def train_file(workdir: Path, spec, identity: int, clip: int) -> Path:
    return workdir / f"train-s{spec.seed}-{identity}-{clip}.gop1"


def load_reference() -> tuple[dict, dict]:
    ref = json.loads(REFERENCE_JSON.read_text())
    with np.load(REFERENCE_FEATURES) as npz:
        features = {name: npz[name] for name in npz.files}
    return ref, features


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Observation:
    """What one operation returned plus what its gate found."""

    passes: int
    problems: list[str] = field(default_factory=list)
    counter: object = None
    kept_fraction: float | None = None
    open_rate: float | None = None
    gop_bytes: float = 0.0


class Workload:
    """``pool`` is one pass of inputs; ``warmup`` is the input set-up uses."""

    name = ""
    pool: list
    warmup: object

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference, self.features = load_reference()

    def prepare(self) -> None:
        """Write this run's input files; not timed, not set-up."""

    def setup(self) -> None:
        """Build what the operation needs and run it once."""
        self.operate(self.warmup)

    def operate(self, item):
        """One operation on one input: the timed part."""
        raise NotImplementedError

    def check(self, item, result) -> Observation:
        """Gate and summarize one operation; not timed."""
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything setup() changed outside this object."""


class Serve(Workload):
    def __init__(self, name: str, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.name = name
        self.threshold = SERVE_MODELS[name]["threshold"]
        self.geometry = serve_geometry(name)
        self.pool = draw_pool(seed, PAIRS_PER_BACKGROUND[name],
                              kept_fractions(self.reference))
        self.warmup = WARMUP_KEY
        self.model = self.params = None

    def path(self, key: str) -> Path:
        return self.workdir / f"{key}.gop1"

    def prepare(self) -> None:
        for key in {*self.pool, self.warmup}:
            gopcodec.write_gop(gopcodec.encode_gop(render(key)), self.path(key))

    def setup(self) -> None:
        self.model = self.params = None  # let a repeated set-up free the old model
        self.model, self.params = build_serve_params(self.name)
        super().setup()

    def operate(self, key):
        return serve_clip(self.path(key), self.model, self.params, self.threshold)

    def check(self, key, result) -> Observation:
        ref = dict(self.reference["serve"][self.name][key])
        ref["feature"] = self.features[f"{self.name}.{key}"].tolist()
        counter = result["counter"]
        problems = gates.serve_problems(result, ref)
        problems += gates.mac_problems(counter, self.geometry, result["kept"],
                                       [tuple(p) for p in result["open"]])
        n = self.geometry.patch_count
        return Observation(
            passes=1, problems=problems, counter=counter,
            kept_fraction=sum(result["kept"]) / (n * (FRAMES - 1)),
            open_rate=len(result["open"]) / result["routed"],
            gop_bytes=self.path(key).stat().st_size)


class Ingest(Workload):
    name = "ingest"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.pool = draw_pool(seed, PAIRS_PER_BACKGROUND["ingest"],
                              kept_fractions(self.reference))
        self.warmup = WARMUP_KEY

    def prepare(self) -> None:
        for key in {*self.pool, self.warmup}:
            videoio.write_rawvid(render(key), self.workdir / f"{key}.rv1")

    def operate(self, key):
        """The ``sparsepatch encode`` sequence plus a read-back."""
        raw = videoio.read_rawvid(self.workdir / f"{key}.rv1")
        gop = gopcodec.encode_gop(raw)
        bit_exact = np.array_equal(gopcodec.decode_gop(gop).pixels, raw.pixels)
        out = self.workdir / f"{key}.gop1"
        gopcodec.write_gop(gop, out)
        back = gopcodec.read_gop(out)
        round_trip = (np.array_equal(back.i_frame.patches, gop.i_frame.patches)
                      and np.array_equal(back.motion, gop.motion)
                      and np.array_equal(back.residual, gop.residual))
        return {"bit_exact": bit_exact, "round_trip": round_trip, "path": out}

    def check(self, key, result) -> Observation:
        problems = []
        if not result["bit_exact"]:
            problems.append("decode is not bit exact")
        if not result["round_trip"]:
            problems.append("file round trip changed the clip")
        if sha256(result["path"]) != self.reference["ingest"][key]:
            problems.append("encoded bytes differ from the reference")
        return Observation(passes=1, problems=problems,
                           gop_bytes=result["path"].stat().st_size)


class Train(Workload):
    name = "train"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        per_bg = [[s for s in range(TRAIN_SEEDS) if s % len(BACKGROUNDS) == b]
                  for b in range(len(BACKGROUNDS))]
        self.pool = [rng.choice(seeds) for seeds in per_bg]
        rng.shuffle(self.pool)
        self.warmup = 0
        self._make_dataset = None

    def prepare(self) -> None:
        for s in {*self.pool, self.warmup}:
            spec = train_spec(s)
            for ident in range(spec.identity_count):
                for clip in range(spec.clips_per_identity):
                    gop = gopcodec.encode_gop(videoio.synth_clip(spec, ident, clip))
                    gopcodec.write_gop(gop, train_file(self.workdir, spec, ident, clip))

    def read_dataset(self, spec) -> list:
        """Stands in for training.make_dataset: the same records, read
        from the .gop1 files prepare() wrote."""
        return [training.ClipRecord(
                    gop=gopcodec.read_gop(train_file(self.workdir, spec, ident, clip)),
                    identity=ident, clip=clip)
                for ident in range(spec.identity_count)
                for clip in range(spec.clips_per_identity)]

    def setup(self) -> None:
        if self._make_dataset is None:
            self._make_dataset = training.make_dataset
            training.make_dataset = self.read_dataset
        super().setup()

    def operate(self, train_seed):
        return train_call(train_seed)

    def check(self, train_seed, result) -> Observation:
        problems = gates.train_log_problems(result,
                                            self.reference["train"][str(train_seed)])
        sizes = [p.stat().st_size
                 for p in self.workdir.glob(f"train-s{train_seed}-*.gop1")]
        return Observation(passes=train_passes_per_call(), problems=problems,
                           gop_bytes=sum(sizes) / len(sizes))

    def close(self) -> None:
        if self._make_dataset is not None:
            training.make_dataset = self._make_dataset
            self._make_dataset = None


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "serve-vitb":
        return Serve(name, seed, workdir)
    if name == "ingest":
        return Ingest(seed, workdir)
    if name == "train":
        return Train(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
