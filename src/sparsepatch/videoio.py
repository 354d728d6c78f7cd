"""Raw video clips: container format and synthetic generator.

Clips are (T, H, W, 3) uint8 with H and W multiples of 16, so every frame
tiles exactly into 16x16 patches. The on-disk format is deliberately dumb:

    magic  "RVID1\\0"
    u32le  height, width, frames
    bytes  frames * height * width * 3 of RGB pixels
    then optional sections, each tagged:
      "MASK" + frames * (H/16) * (W/16) bytes of {0,1} patch masks
      "IDNT" + u32le identity label

The synthetic generator draws a moving person (striped torso plus head)
whose geometry is snapped to the 16 px patch grid, which makes the stored
patch masks exact. The unsnapped continuous position still drives the
stripe phase, so patch content varies at sub-patch scale and motion
compensation has real residuals to encode.
"""

from __future__ import annotations

import colorsys
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import ParseError, ValidationError
from .numcore import rng_stream

PATCH = 16
_MAGIC = b"RVID1\x00"
_BACKGROUNDS = ("uniform", "textured", "distractor")

# appearance constants; the texture band is deliberately narrow so static
# background patches cluster tightly in any feature space, while the
# saturated walker stands out
_TEXTURE_LO, _TEXTURE_HI = 88.0, 152.0
_DISTRACTOR_RGB = (108.0, 108.0, 108.0)


@dataclass
class RawClip:
    """Decoded clip plus optional identity label and patch masks."""

    pixels: np.ndarray
    identity: int | None = None
    masks: np.ndarray | None = None

    def __post_init__(self):
        p = self.pixels
        if not isinstance(p, np.ndarray) or p.dtype != np.uint8:
            raise ValidationError("pixels must be a uint8 array")
        if p.ndim != 4 or p.shape[3] != 3:
            raise ValidationError(f"pixels must be (T, H, W, 3), got {p.shape}")
        t, h, w, _ = p.shape
        if t < 1:
            raise ValidationError("clip needs at least one frame")
        if h % PATCH or w % PATCH or h == 0 or w == 0:
            raise ValidationError(f"frame size {h}x{w} must be positive multiples of {PATCH}")
        if self.masks is not None:
            m = self.masks
            want = (t, h // PATCH, w // PATCH)
            if not isinstance(m, np.ndarray) or m.dtype != np.uint8 or m.shape != want:
                raise ValidationError(f"masks must be uint8 {want}")
            if m.max(initial=0) > 1:
                raise ValidationError("mask values must be 0 or 1")
        if self.identity is not None and int(self.identity) < 0:
            raise ValidationError("identity label must be non-negative")

    @property
    def frames(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


@dataclass
class SynthSpec:
    """Parameters of the synthetic person-clip generator."""

    identity_count: int
    clips_per_identity: int
    height: int = 128
    width: int = 256
    frames: int = 8
    background: str = "textured"
    motion_amplitude: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.identity_count < 1 or self.clips_per_identity < 1:
            raise ValidationError("identity_count and clips_per_identity must be >= 1")
        if self.height % PATCH or self.width % PATCH:
            raise ValidationError(f"height and width must be multiples of {PATCH}")
        if self.frames < 1:
            raise ValidationError("frames must be >= 1")
        if self.background not in _BACKGROUNDS:
            raise ValidationError(f"background must be one of {_BACKGROUNDS}")
        if not 0 <= self.motion_amplitude < np.inf:
            raise ValidationError("motion_amplitude must be finite and >= 0")


# ---------------------------------------------------------------------------
# container I/O
# ---------------------------------------------------------------------------


def pack_header(magic: bytes, height: int, width: int, frames: int) -> bytes:
    """The header of a clip container (``.rv1`` and ``.gop1``): the
    format's magic, then u32le height, width and frames."""
    return magic + struct.pack("<III", height, width, frames)


def parse_header(data: bytes, magic: bytes) -> tuple[int, int, int, int]:
    """Check a container header written by ``pack_header``.

    Returns (height, width, frames, offset of the first payload byte).
    Raises ParseError on a wrong magic, a short header, or dimensions
    that are not positive or not multiples of 16 in height and width.
    """
    if len(data) < len(magic) or data[: len(magic)] != magic:
        name = magic.rstrip(b"\0").decode()
        raise ParseError(f"bad or missing {name} magic", offset=0)
    pos = len(magic)
    if len(data) < pos + 12:
        raise ParseError("truncated header", offset=len(data))
    height, width, frames = struct.unpack_from("<III", data, pos)
    if frames < 1 or height < 1 or width < 1 or height % PATCH or width % PATCH:
        raise ParseError(f"invalid dimensions {frames}x{height}x{width}", offset=pos)
    return height, width, frames, pos + 12


def write_rawvid(clip: RawClip, path) -> None:
    """Write each section straight from its array, as ``write_gop`` does."""
    with open(path, "wb") as f:
        f.write(pack_header(_MAGIC, clip.height, clip.width, clip.frames))
        f.write(np.ascontiguousarray(clip.pixels))
        if clip.masks is not None:
            f.write(b"MASK")
            f.write(np.ascontiguousarray(clip.masks))
        if clip.identity is not None:
            f.write(b"IDNT" + struct.pack("<I", int(clip.identity)))


def read_rawvid(path) -> RawClip:
    data = Path(path).read_bytes()
    height, width, frames, pos = parse_header(data, _MAGIC)
    npix = frames * height * width * 3
    if len(data) < pos + npix:
        raise ParseError("truncated pixel payload", offset=len(data))
    pixels = np.frombuffer(data, dtype=np.uint8, count=npix, offset=pos)
    pixels = pixels.reshape(frames, height, width, 3).copy()
    pos += npix

    masks = None
    identity = None
    while pos < len(data):
        tag = data[pos:pos + 4]
        if tag == b"MASK":
            if masks is not None:
                raise ParseError("duplicate MASK section", offset=pos)
            pos += 4
            nmask = frames * (height // PATCH) * (width // PATCH)
            if len(data) < pos + nmask:
                raise ParseError("truncated MASK section", offset=len(data))
            masks = np.frombuffer(data, dtype=np.uint8, count=nmask, offset=pos)
            masks = masks.reshape(frames, height // PATCH, width // PATCH).copy()
            if masks.max(initial=0) > 1:
                raise ParseError("MASK values outside {0, 1}", offset=pos)
            pos += nmask
        elif tag == b"IDNT":
            if identity is not None:
                raise ParseError("duplicate IDNT section", offset=pos)
            pos += 4
            if len(data) < pos + 4:
                raise ParseError("truncated IDNT section", offset=len(data))
            identity = struct.unpack_from("<I", data, pos)[0]
            pos += 4
        else:
            raise ParseError(f"unknown section tag {tag!r}", offset=pos)
    return RawClip(pixels=pixels, identity=identity, masks=masks)


# ---------------------------------------------------------------------------
# synthetic clips
# ---------------------------------------------------------------------------


def _identity_colors(identity: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    hue = (identity % max(count, 1)) / max(count, 1)
    r, g, b = colorsys.hsv_to_rgb(hue, 0.85, 0.85)
    main = np.array([r, g, b]) * 255.0
    return main, main * 0.45


def _person_patch_dims(grid_h: int, grid_w: int) -> tuple[int, int]:
    torso_h = max(2, grid_h // 2)
    torso_w = max(1, grid_w // 5)
    if torso_h + 1 >= grid_h:
        torso_h = grid_h - 1  # leave one row so placement has a choice
    return torso_h, torso_w


def _paint_person(frame: np.ndarray, top_px: int, left_px: int,
                  torso_h: int, torso_w: int, phase: int,
                  main: np.ndarray, shade: np.ndarray, head: np.ndarray) -> None:
    head_w = max(1, torso_w // 3)
    head_left = left_px + ((torso_w - head_w) // 2) * PATCH
    frame[top_px:top_px + PATCH, head_left:head_left + head_w * PATCH] = head
    torso_top = top_px + PATCH
    cols = np.arange(torso_w * PATCH)
    stripe = ((cols + phase) // 4) % 2  # vertical stripes, 4 px period halves
    band = np.where(stripe[:, None].astype(bool), shade, main)
    frame[torso_top:torso_top + torso_h * PATCH,
          left_px:left_px + torso_w * PATCH] = band[None, :, :]


def _background(spec: SynthSpec, clip_seed: int) -> np.ndarray:
    h, w = spec.height, spec.width
    if spec.background == "uniform":
        return np.full((h, w, 3), 121.0)
    rng = rng_stream(spec.seed, "background", clip_seed)
    # achromatic (r=g=b) luminance noise: the clutter lives entirely in
    # the gray axis, so only the walker carries color contrast
    coarse = rng.uniform(_TEXTURE_LO, _TEXTURE_HI, size=(h // 8, w // 8, 1))
    base = np.kron(np.repeat(coarse, 3, axis=2), np.ones((8, 8, 1)))
    return uniform_filter(base, size=(9, 9, 1), mode="nearest")


def synth_clip(spec: SynthSpec, identity: int, clip_seed: int) -> RawClip:
    """Deterministically render one labeled clip for ``identity``.

    Same (spec, identity, clip_seed) always produces identical bytes.
    motion_amplitude is the walker's horizontal speed in px/frame; zero
    amplitude (no velocity, no jitter) yields T identical frames.
    """
    if not 0 <= identity < spec.identity_count:
        raise ValidationError(f"identity {identity} outside [0, {spec.identity_count})")
    h, w = spec.height, spec.width
    grid_h, grid_w = h // PATCH, w // PATCH
    torso_h, torso_w = _person_patch_dims(grid_h, grid_w)
    person_rows = torso_h + 1

    geom = rng_stream(spec.seed, "clip", identity, clip_seed)
    top_row = int(geom.integers(0, grid_h - person_rows + 1))
    max_left = w - torso_w * PATCH
    x0 = float(geom.uniform(0, max_left))
    velocity = float(geom.choice([-1.0, 1.0]) * spec.motion_amplitude)
    jitter = geom.uniform(-spec.motion_amplitude / 2, spec.motion_amplitude / 2,
                          size=spec.frames)

    main, shade = _identity_colors(identity, spec.identity_count)
    head = np.array([205.0, 172.0, 132.0]) + (identity * 7) % 29

    background = _background(spec, clip_seed)
    if spec.background == "distractor":
        # a static person-shaped blob underneath the walker
        d_top = int(geom.integers(0, grid_h - person_rows + 1)) * PATCH
        d_left = int(geom.integers(0, grid_w - torso_w + 1)) * PATCH
        gray = np.array(_DISTRACTOR_RGB)
        _paint_person(background, d_top, d_left, torso_h, torso_w, 0,
                      gray, gray * 0.7, gray * 1.2)

    pixels = np.empty((spec.frames, h, w, 3), dtype=np.uint8)
    masks = np.zeros((spec.frames, grid_h, grid_w), dtype=np.uint8)
    head_w = max(1, torso_w // 3)
    head_col_off = (torso_w - head_w) // 2
    for t in range(spec.frames):
        x = x0 + velocity * t + jitter[t]
        x = min(max(x, 0.0), float(max_left))
        left_col = int(round(x / PATCH))
        left_col = min(max(left_col, 0), grid_w - torso_w)
        phase = int(round(x)) - left_col * PATCH
        frame = background.copy()
        _paint_person(frame, top_row * PATCH, left_col * PATCH,
                      torso_h, torso_w, phase, main, shade, head)
        pixels[t] = np.clip(frame, 0, 255).astype(np.uint8)
        masks[t, top_row, left_col + head_col_off:left_col + head_col_off + head_w] = 1
        masks[t, top_row + 1:top_row + 1 + torso_h, left_col:left_col + torso_w] = 1
    return RawClip(pixels=pixels, identity=identity, masks=masks)
