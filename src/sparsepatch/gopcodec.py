"""Group-of-pictures codec over 16x16 patches.

Frame 0 of a clip is kept whole (the I-frame, an N x 768 patch matrix).
Every later frame stores, per patch, the index of its best-matching
I-frame patch under the sum of absolute differences, plus the exact
signed residual. Decoding is therefore bit-exact by construction:

    patch[t][n] == i_frame[motion[t-1][n]] + residual[t-1][n]

Patch layout is row-major in both senses: patch n = grid_w * row + col,
and inside a patch the 768 columns run over (y, x, channel).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .numcore import note_uncounted
from .videoio import PATCH, RawClip, pack_header, parse_header

_MAGIC = b"GOPV1\x00"
PATCH_DIM = PATCH * PATCH * 3  # 768


@dataclass
class PatchGrid:
    """One frame as an (N, 768) int16 matrix plus its grid shape."""

    patches: np.ndarray
    grid_h: int
    grid_w: int

    def __post_init__(self):
        n = self.grid_h * self.grid_w
        p = self.patches
        if not isinstance(p, np.ndarray) or p.dtype != np.int16:
            raise ValidationError("patches must be an int16 array")
        if p.shape != (n, PATCH_DIM):
            raise ValidationError(f"patches must be ({n}, {PATCH_DIM}), got {p.shape}")

    @property
    def count(self) -> int:
        return self.grid_h * self.grid_w


def patchify(frame: np.ndarray) -> PatchGrid:
    """Split an (H, W, 3) uint8 frame into flattened 16x16 patches."""
    if not isinstance(frame, np.ndarray) or frame.dtype != np.uint8:
        raise ValidationError("frame must be a uint8 array")
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValidationError(f"frame must be (H, W, 3), got {frame.shape}")
    h, w, _ = frame.shape
    if h % PATCH or w % PATCH or h == 0 or w == 0:
        raise ValidationError(f"frame size {h}x{w} not a multiple of {PATCH}")
    gh, gw = h // PATCH, w // PATCH
    tiles = frame.reshape(gh, PATCH, gw, PATCH, 3).transpose(0, 2, 1, 3, 4)
    return PatchGrid(patches=tiles.reshape(gh * gw, PATCH_DIM).astype(np.int16),
                     grid_h=gh, grid_w=gw)


def unpatchify(grid: PatchGrid) -> np.ndarray:
    p = grid.patches
    if p.min(initial=0) < 0 or p.max(initial=0) > 255:
        raise ValidationError("patch values outside [0, 255] cannot form a frame")
    gh, gw = grid.grid_h, grid.grid_w
    tiles = p.reshape(gh, gw, PATCH, PATCH, 3).transpose(0, 2, 1, 3, 4)
    return tiles.reshape(gh * PATCH, gw * PATCH, 3).astype(np.uint8)


# ---------------------------------------------------------------------------
# SAD search
# ---------------------------------------------------------------------------

# bytes of one query block's temporaries: half for its (rows, keys) tables,
# half for one chunk of surviving pairs (a sweep in CHANGES.md picked it)
_SAD_BLOCK_BYTES = 1 << 19


def sad_nearest(queries: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L1 nearest key per query row; first minimum wins ties.

    Rows hold pixels in [0, 255] as uint8 or int16; other dtypes are
    refused before any work. The search is exact and pruned by successive
    elimination, |sum(q) - sum(k)| <= SAD(q, k). Each query's candidate is
    the key with the smallest such bound (the first on ties), and its SAD
    is the bar. Another key is compared only if its bound is below the
    bar, or equals it at a lower index than the candidate's: a later key
    can at best tie the bar, and the first minimum wins that tie. |q - k|
    is exact in int16 and its sums in int32. Query rows go in blocks whose
    (rows, keys) tables fit half of ``_SAD_BLOCK_BYTES``, and a block's
    surviving pairs are compared in chunks that fit the other half.
    Returns int32 (indices, sums). ``sad_compares`` tallies the pixel
    compares of an exhaustive search, queries x keys x dim, and
    ``sad_evaluated`` the ones made.
    """
    q = np.asarray(queries)
    k = np.asarray(keys)
    if q.dtype not in (np.uint8, np.int16) or k.dtype not in (np.uint8, np.int16):
        raise ValidationError(
            f"SAD search takes uint8 or int16 pixels, got {q.dtype} and {k.dtype}")
    if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ValidationError(f"incompatible SAD shapes {q.shape} vs {k.shape}")
    if k.shape[0] == 0:
        raise ValidationError("SAD search needs at least one key")
    nq, nk, dim = q.shape[0], k.shape[0], q.shape[1]
    note_uncounted("sad_compares", nq * nk * dim)
    k_sums = k.sum(axis=1, dtype=np.int32)
    half = _SAD_BLOCK_BYTES // 2
    # a query row takes at most 32 table bytes a key, plus its candidate's
    # gathered row and difference; a pair, both gathered rows and theirs
    rows = max(1, half // (32 * nk + (k.itemsize + 2) * dim))
    pairs = max(1, half // ((q.itemsize + k.itemsize + 2) * dim))
    idx = np.empty(nq, dtype=np.int32)
    best = np.empty(nq, dtype=np.int32)
    evaluated = 0
    for lo in range(0, nq, rows):
        block = slice(lo, lo + rows)
        idx[block], best[block], count = _nearest_in_block(q[block], k, k_sums, pairs)
        evaluated += count
    note_uncounted("sad_evaluated", evaluated * dim)
    return idx, best


def _nearest_in_block(q: np.ndarray, k: np.ndarray, k_sums: np.ndarray,
                      pairs: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``sad_nearest`` for one block of query rows, comparing ``pairs``
    (query, key) pairs at a time; also returns how many it compared."""
    at = np.arange(q.shape[0])
    bound = np.abs(np.subtract.outer(q.sum(axis=1, dtype=np.int32), k_sums))
    cand = bound.argmin(axis=1)
    bar = _row_sads(q, k[cand])[:, None]
    live = (bound < bar) | ((bound == bar) & (np.arange(k.shape[0]) < cand[:, None]))
    live[at, cand] = False
    sad = np.full(bound.shape, np.iinfo(np.int32).max, dtype=np.int32)
    sad[at, cand] = bar[:, 0]
    qi, ki = np.nonzero(live)
    for lo in range(0, qi.size, pairs):
        qc, kc = qi[lo:lo + pairs], ki[lo:lo + pairs]
        sad[qc, kc] = _row_sads(q[qc], k[kc])
    idx = sad.argmin(axis=1)
    return idx, sad[at, idx], at.size + qi.size


def _row_sads(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int32 L1 distance of each row of ``a`` to the same row of ``b``."""
    diff = np.subtract(a, b, dtype=np.int16)
    return np.abs(diff, out=diff).sum(axis=1, dtype=np.int32)


# ---------------------------------------------------------------------------
# GOP container
# ---------------------------------------------------------------------------


@dataclass
class GopClip:
    """Encoded clip: I-frame patches, per-P-frame motion and residuals."""

    i_frame: PatchGrid
    motion: np.ndarray
    residual: np.ndarray
    height: int
    width: int

    def __post_init__(self):
        gh, gw = self.height // PATCH, self.width // PATCH
        if (gh, gw) != (self.i_frame.grid_h, self.i_frame.grid_w):
            raise ValidationError("I-frame grid does not match clip dimensions")
        n = self.i_frame.count
        i, m, r = self.i_frame.patches, self.motion, self.residual
        if not isinstance(m, np.ndarray) or m.dtype != np.int32 or m.ndim != 2 \
                or m.shape[1] != n:
            raise ValidationError(f"motion must be int32 (T-1, {n})")
        if not isinstance(r, np.ndarray) or r.dtype != np.int16 \
                or r.shape != (m.shape[0], n, PATCH_DIM):
            raise ValidationError(f"residual must be int16 (T-1, {n}, {PATCH_DIM})")
        if m.size and (m.min() < 0 or m.max() >= n):
            raise ValidationError("motion index outside the I-frame grid")
        if r.size and (r.min() < -255 or r.max() > 255):
            raise ValidationError("residual outside [-255, 255]")
        # the file stores the I-frame as bytes
        if i.min(initial=0) < 0 or i.max(initial=0) > 255:
            raise ValidationError("I-frame patches outside [0, 255]")

    @property
    def frames(self) -> int:
        return self.motion.shape[0] + 1

    def frame_patches(self, t: int) -> np.ndarray:
        """Frame ``t`` as (N, 768) int16 patches: the I-frame at t = 0,
        ``i_frame[motion] + residual`` after that."""
        base = self.i_frame.patches
        if t == 0:
            return base
        return base[self.motion[t - 1]] + self.residual[t - 1]


def encode_gop(clip: RawClip) -> GopClip:
    """Motion-compensate every P-frame against the I-frame, keeping exact
    residuals. One ``sad_nearest`` call searches all P-frame patches
    against the I-frame's, on int16 pixels in [0, 255]: exact, pruned by
    the patch-sum bound, and the earliest I-frame patch on ties. Labels
    and masks are not part of the encoded stream."""
    t, h, w, _ = clip.pixels.shape
    # frames stacked vertically patchify to each frame's patches in turn
    patches = patchify(clip.pixels.reshape(t * h, w, 3)).patches
    n = patches.shape[0] // t
    # a copy, so the GopClip does not hold every frame's patches
    i_grid = PatchGrid(patches=patches[:n].copy(), grid_h=h // PATCH, grid_w=w // PATCH)
    idx, _ = sad_nearest(patches[n:], i_grid.patches)
    residual = patches[n:] - i_grid.patches[idx]
    return GopClip(i_frame=i_grid, motion=idx.reshape(t - 1, n),
                   residual=residual.reshape(t - 1, n, PATCH_DIM),
                   height=h, width=w)


def decode_gop(gop: GopClip) -> RawClip:
    gh, gw = gop.i_frame.grid_h, gop.i_frame.grid_w
    frames = [unpatchify(PatchGrid(patches=gop.frame_patches(t), grid_h=gh, grid_w=gw))
              for t in range(gop.frames)]
    return RawClip(pixels=np.stack(frames, axis=0))


def write_gop(gop: GopClip, path) -> None:
    """Write each section straight from its array; only a change of dtype
    or a non-C-order layout copies."""
    with open(path, "wb") as f:
        f.write(pack_header(_MAGIC, gop.height, gop.width, gop.frames))
        f.write(gop.i_frame.patches.astype(np.uint8, order="C"))
        f.write(gop.motion.astype("<i4", order="C", copy=False))
        f.write(gop.residual.astype("<i2", order="C", copy=False))


def read_gop(path) -> GopClip:
    data = Path(path).read_bytes()
    height, width, frames, pos = parse_header(data, _MAGIC)
    n = (height // PATCH) * (width // PATCH)

    size_i = n * PATCH_DIM
    if len(data) < pos + size_i:
        raise ParseError("truncated I-frame section", offset=len(data))
    i_patches = np.frombuffer(data, dtype=np.uint8, count=size_i, offset=pos)
    i_patches = i_patches.reshape(n, PATCH_DIM).astype(np.int16)
    pos += size_i

    count_m = (frames - 1) * n
    if len(data) < pos + 4 * count_m:
        raise ParseError("truncated motion section", offset=len(data))
    motion = np.frombuffer(data, dtype="<i4", count=count_m, offset=pos)
    motion = motion.reshape(frames - 1, n).astype(np.int32)
    if motion.size and (motion.min() < 0 or motion.max() >= n):
        raise ParseError("motion index outside the I-frame grid", offset=pos)
    pos += 4 * count_m

    count_r = (frames - 1) * n * PATCH_DIM
    if len(data) < pos + 2 * count_r:
        raise ParseError("truncated residual section", offset=len(data))
    residual = np.frombuffer(data, dtype="<i2", count=count_r, offset=pos)
    residual = residual.reshape(frames - 1, n, PATCH_DIM).astype(np.int16)
    if residual.size and (residual.min() < -255 or residual.max() > 255):
        raise ParseError("residual outside [-255, 255]", offset=pos)
    residual_pos = pos
    pos += 2 * count_r
    if pos != len(data):
        raise ParseError("trailing bytes after residual section", offset=pos)

    grid = PatchGrid(patches=i_patches,
                     grid_h=height // PATCH, grid_w=width // PATCH)
    gop = GopClip(i_frame=grid, motion=motion, residual=residual,
                  height=height, width=width)
    # a residual inside [-255, 255] can still push a pixel off the byte
    # range; refuse here so every accepted file decodes and serves
    for t in range(1, frames):
        patches = gop.frame_patches(t)
        if patches.min() < 0 or patches.max() > 255:
            raise ParseError(f"P-frame {t} reconstructs outside [0, 255]",
                             offset=residual_pos + 2 * (t - 1) * n * PATCH_DIM)
    return gop
