import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepatch.errors import ParseError, ValidationError
from sparsepatch.gopcodec import encode_gop, read_gop, write_gop
from sparsepatch.videoio import (
    RawClip,
    SynthSpec,
    read_rawvid,
    synth_clip,
    write_rawvid,
)


def _clip(t=2, h=32, w=48, seed=0, identity=None, with_masks=False):
    rng = np.random.Generator(np.random.PCG64(seed))
    pixels = rng.integers(0, 256, size=(t, h, w, 3), dtype=np.uint8)
    masks = None
    if with_masks:
        masks = rng.integers(0, 2, size=(t, h // 16, w // 16), dtype=np.uint8)
    return RawClip(pixels=pixels, identity=identity, masks=masks)


def test_rawclip_validation():
    with pytest.raises(ValidationError):
        RawClip(pixels=np.zeros((2, 30, 32, 3), dtype=np.uint8))
    with pytest.raises(ValidationError):
        RawClip(pixels=np.zeros((2, 32, 32, 3), dtype=np.float64))
    with pytest.raises(ValidationError):
        RawClip(pixels=np.zeros((2, 32, 32, 3), dtype=np.uint8),
                masks=np.full((2, 2, 2), 3, dtype=np.uint8))
    with pytest.raises(ValidationError):
        RawClip(pixels=np.zeros((2, 32, 32, 3), dtype=np.uint8), identity=-1)


def test_roundtrip_plain(tmp_path):
    clip = _clip()
    path = tmp_path / "clip.rv1"
    write_rawvid(clip, path)
    back = read_rawvid(path)
    assert np.array_equal(back.pixels, clip.pixels)
    assert back.identity is None
    assert back.masks is None


def test_roundtrip_full(tmp_path):
    clip = _clip(identity=7, with_masks=True)
    path = tmp_path / "clip.rv1"
    write_rawvid(clip, path)
    back = read_rawvid(path)
    assert np.array_equal(back.pixels, clip.pixels)
    assert back.identity == 7
    assert np.array_equal(back.masks, clip.masks)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.sampled_from([16, 32]), st.sampled_from([16, 48]),
       st.integers(0, 2**31 - 1), st.booleans(), st.booleans())
def test_roundtrip_property(t, h, w, seed, with_masks, with_id):
    clip = _clip(t=t, h=h, w=w, seed=seed,
                 identity=(seed % 100) if with_id else None,
                 with_masks=with_masks)
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.rv1")
        write_rawvid(clip, path)
        back = read_rawvid(path)
    assert np.array_equal(back.pixels, clip.pixels)
    assert back.identity == clip.identity
    if with_masks:
        assert np.array_equal(back.masks, clip.masks)


def test_parse_errors(tmp_path):
    path = tmp_path / "bad.rv1"
    good = tmp_path / "good.rv1"
    write_rawvid(_clip(identity=3, with_masks=True), good)
    blob = good.read_bytes()

    path.write_bytes(blob[:100])
    with pytest.raises(ParseError, match="truncated pixel"):
        read_rawvid(path)

    path.write_bytes(blob + b"JUNKxxxx")
    with pytest.raises(ParseError, match="unknown section"):
        read_rawvid(path)

    # duplicate identity section
    path.write_bytes(blob + blob[-8:])
    with pytest.raises(ParseError, match="duplicate IDNT"):
        read_rawvid(path)


@pytest.mark.parametrize("fmt", ["rv1", "gop1"])
def test_container_header_errors(tmp_path, fmt):
    # .rv1 and .gop1 share one header: magic, then u32le height, width, frames
    clip = _clip()
    path = tmp_path / f"clip.{fmt}"
    if fmt == "rv1":
        write_rawvid(clip, path)
        read, name = read_rawvid, "RVID1"
    else:
        write_gop(encode_gop(clip), path)
        read, name = read_gop, "GOPV1"
    blob = path.read_bytes()
    wide = bytearray(blob)
    struct.pack_into("<I", wide, 10, 17)
    cases = [(b"NOPE" + blob[4:], f"bad or missing {name} magic", 0),
             (blob[:10], "truncated header", 10),
             (bytes(wide), "invalid dimensions 2x32x17", 6)]
    for data, message, offset in cases:
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value) == f"{message} (byte offset {offset})"
        assert info.value.offset == offset


def test_parse_error_reports_offset():
    err = ParseError("boom", offset=42)
    assert err.offset == 42
    assert "42" in str(err)


def _spec(**kw):
    base = dict(identity_count=4, clips_per_identity=2, height=64, width=64,
                frames=4, background="textured", motion_amplitude=4.0, seed=11)
    base.update(kw)
    return SynthSpec(**base)


def test_synth_determinism():
    a = synth_clip(_spec(), identity=1, clip_seed=5)
    b = synth_clip(_spec(), identity=1, clip_seed=5)
    c = synth_clip(_spec(), identity=1, clip_seed=6)
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(a.masks, b.masks)
    assert not np.array_equal(a.pixels, c.pixels)


def test_synth_zero_amplitude_freezes_clip():
    clip = synth_clip(_spec(motion_amplitude=0.0), identity=0, clip_seed=1)
    for t in range(1, clip.frames):
        assert np.array_equal(clip.pixels[t], clip.pixels[0])
        assert np.array_equal(clip.masks[t], clip.masks[0])


def test_synth_masks_are_rigid_and_labeled():
    spec = _spec(background="distractor", height=128, width=256, frames=6)
    clip = synth_clip(spec, identity=2, clip_seed=3)
    assert clip.identity == 2
    counts = clip.masks.reshape(clip.frames, -1).sum(axis=1)
    # the walker is rigid: same number of person patches in every frame
    assert len(set(counts.tolist())) == 1
    assert counts[0] > 0
    # person must actually move across the grid in at least one frame
    assert any(not np.array_equal(clip.masks[t], clip.masks[0])
               for t in range(1, clip.frames))


def test_synth_mask_marks_painted_patches():
    spec = _spec(background="uniform", height=64, width=128, frames=3,
                 motion_amplitude=5.0)
    clip = synth_clip(spec, identity=1, clip_seed=9)
    gh, gw = clip.height // 16, clip.width // 16
    for t in range(clip.frames):
        frame = clip.pixels[t].astype(np.int32)
        flat = np.full((64, 128, 3), 121.0).astype(np.int32)
        diff = np.abs(frame - flat).sum(axis=2)
        patch_changed = diff.reshape(gh, 16, gw, 16).sum(axis=(1, 3)) > 0
        torso_and_head = clip.masks[t].astype(bool)
        # every painted patch is inside the mask and vice versa
        assert np.array_equal(patch_changed, torso_and_head)


def test_synth_identities_differ():
    a = synth_clip(_spec(background="uniform"), identity=0, clip_seed=4)
    b = synth_clip(_spec(background="uniform"), identity=3, clip_seed=4)
    assert not np.array_equal(a.pixels, b.pixels)


def test_synth_validation():
    with pytest.raises(ValidationError):
        SynthSpec(identity_count=0, clips_per_identity=1)
    with pytest.raises(ValidationError):
        SynthSpec(identity_count=1, clips_per_identity=1, height=30)
    with pytest.raises(ValidationError):
        SynthSpec(identity_count=1, clips_per_identity=1, background="plasma")
    for amplitude in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="motion_amplitude must be finite and >= 0"):
            SynthSpec(identity_count=1, clips_per_identity=1, motion_amplitude=amplitude)
    with pytest.raises(ValidationError):
        synth_clip(_spec(), identity=99, clip_seed=0)
