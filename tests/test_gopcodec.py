import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from sparsepatch import gopcodec
from sparsepatch import numcore as nc
from sparsepatch.errors import ParseError, ValidationError
from sparsepatch.gopcodec import (
    GopClip,
    PatchGrid,
    decode_gop,
    encode_gop,
    patchify,
    read_gop,
    sad_nearest,
    unpatchify,
    write_gop,
)
from sparsepatch.videoio import RawClip, SynthSpec, synth_clip


def _noise_clip(t=3, h=32, w=48, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return RawClip(pixels=rng.integers(0, 256, size=(t, h, w, 3), dtype=np.uint8))


def test_patchify_layout():
    # pixel (y, x, c) of patch (pr, pc) must land at
    # row grid_w*pr+pc, column (y*16 + x)*3 + c
    h, w = 32, 48
    frame = (np.arange(h * w * 3) % 251).reshape(h, w, 3).astype(np.uint8)
    grid = patchify(frame)
    assert (grid.grid_h, grid.grid_w) == (2, 3)
    for pr, pc, y, x, c in [(0, 0, 0, 0, 0), (0, 1, 3, 7, 2), (1, 2, 15, 15, 1),
                            (1, 0, 8, 2, 0)]:
        v = grid.grid_w * pr + pc
        col = (y * 16 + x) * 3 + c
        assert grid.patches[v, col] == frame[pr * 16 + y, pc * 16 + x, c]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([16, 32]), st.sampled_from([16, 48]), st.integers(0, 2**31 - 1))
def test_patchify_unpatchify_roundtrip(h, w, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    frame = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    assert np.array_equal(unpatchify(patchify(frame)), frame)


def test_unpatchify_range_check():
    grid = patchify(np.zeros((16, 16, 3), dtype=np.uint8))
    grid.patches[0, 0] = -3
    with pytest.raises(ValidationError):
        unpatchify(grid)


def test_sad_nearest_matches_cityblock_oracle():
    rng = np.random.Generator(np.random.PCG64(5))
    q = rng.integers(0, 256, size=(40, 768), dtype=np.uint8)
    k = rng.integers(0, 256, size=(17, 768), dtype=np.uint8)
    idx, best = sad_nearest(q, k)
    d = cdist(q.astype(np.float64), k.astype(np.float64), "cityblock")
    assert np.array_equal(idx, d.argmin(axis=1))
    assert np.array_equal(best.astype(np.float64), d.min(axis=1))


def test_sad_nearest_tie_breaks_to_first():
    k = np.zeros((4, 8), dtype=np.uint8)
    k[1] = 1  # keys 0, 2, 3 are identical
    q = np.zeros((1, 8), dtype=np.uint8)
    idx, best = sad_nearest(q, k)
    assert idx[0] == 0
    assert best[0] == 0


def _sad_oracle(q, k):
    d = np.abs(q.astype(np.int64)[:, None, :] - k.astype(np.int64)[None]).sum(axis=2)
    return d.argmin(axis=1), d.min(axis=1)  # argmin takes the first minimum


@pytest.mark.parametrize("q_dtype,k_dtype", [(np.uint8, np.uint8),
                                             (np.int16, np.int16),
                                             (np.uint8, np.int16)])
def test_sad_nearest_matches_oracle_across_blocks(q_dtype, k_dtype):
    rng = np.random.Generator(np.random.PCG64(8))
    keys = rng.integers(0, 256, size=(40, 768))
    keys[[11, 30]] = keys[4]  # tied keys: the first, 4, must win
    rows = gopcodec._SAD_BLOCK_BYTES // (2 * keys.size)
    assert rows > 1
    queries = rng.integers(0, 256, size=(3 * rows + rows // 2, 768))
    queries[[0, rows, 3 * rows + 1]] = keys[30]
    queries[2] = keys[4] ^ 1  # nearest to the tied keys, not equal to them
    idx, best = sad_nearest(queries.astype(q_dtype), keys.astype(k_dtype))
    want_idx, want_best = _sad_oracle(queries, keys)
    assert idx.dtype == best.dtype == np.int32
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(best, want_best)
    assert idx[0] == idx[rows] == idx[3 * rows + 1] == idx[2] == 4


def test_sad_nearest_zero_queries_and_single_key():
    rng = np.random.Generator(np.random.PCG64(3))
    keys = rng.integers(0, 256, size=(5, 768)).astype(np.int16)
    idx, best = sad_nearest(keys[:0], keys)
    assert idx.shape == best.shape == (0,)
    queries = rng.integers(0, 256, size=(6, 768)).astype(np.uint8)
    idx, best = sad_nearest(queries, keys[:1])
    assert not idx.any()
    assert np.array_equal(best, _sad_oracle(queries, keys[:1])[1])


def test_sad_nearest_peak_memory_stays_within_one_block():
    # the last ViT-B pool query: one frame's 128 patches against ~330
    rng = np.random.Generator(np.random.PCG64(4))
    queries = rng.integers(0, 256, size=(128, 768)).astype(np.int16)
    keys = rng.integers(0, 256, size=(330, 768)).astype(np.int16)
    tracemalloc.start()
    try:
        sad_nearest(queries, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = gopcodec._SAD_BLOCK_BYTES + queries.nbytes + keys.nbytes + (64 << 10)
    assert peak <= bound, (peak, bound)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), alphabet=st.integers(1, 3),
       shape=st.tuples(st.integers(0, 12), st.integers(1, 12), st.integers(1, 6)),
       dtypes=st.sampled_from([(np.uint8, np.uint8), (np.int16, np.int16),
                               (np.uint8, np.int16), (np.int16, np.uint8)]),
       block_bytes=st.sampled_from([1, 4096, gopcodec._SAD_BLOCK_BYTES]))
def test_sad_nearest_matches_oracle_on_tie_heavy_rows(seed, alphabet, shape, dtypes,
                                                      block_bytes):
    # few distinct values, repeated rows, column permutations (equal sums,
    # other content) and rows raised in some pixels (bound equal to SAD)
    # make bound ties, bar ties and SAD ties common; a 1-byte budget makes
    # every block one row and every chunk one pair
    nq, nk, dim = shape
    rng = np.random.Generator(np.random.PCG64(seed))
    values = np.sort(rng.choice(256, size=alphabet, replace=False))
    keys = values[rng.integers(0, alphabet, size=(nk, dim))]
    queries = values[rng.integers(0, alphabet, size=(nq, dim))]
    for rows in (keys, queries):
        for i in range(1, len(rows)):
            src = keys[rng.integers(0, min(i, nk))]
            pick = rng.integers(0, 4)
            if pick == 1:
                rows[i] = src
            elif pick == 2:
                rows[i] = rng.permutation(src)
            elif pick == 3:
                rows[i] = np.where(rng.random(dim) < 0.3, values[-1], src)
    q_dtype, k_dtype = dtypes
    with mock.patch.object(gopcodec, "_SAD_BLOCK_BYTES", block_bytes):
        idx, best = sad_nearest(queries.astype(q_dtype), keys.astype(k_dtype))
    want_idx, want_best = _sad_oracle(queries, keys)
    assert idx.dtype == best.dtype == np.int32
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(best, want_best)


def test_sad_nearest_smallest_bound_key_is_not_always_nearest():
    q = np.full((1, 4), 10, dtype=np.uint8)
    keys = np.array([[40, 0, 0, 0],       # sum 40: bound 0, SAD 60
                     [11, 11, 11, 11]],   # sum 44: bound 4, SAD 4
                    dtype=np.uint8)
    idx, best = sad_nearest(q, keys)
    assert (idx[0], best[0]) == (1, 4)


def test_sad_nearest_earlier_key_tying_the_bar_wins():
    # key 1 has the smallest bound (0) and SAD 8, the bar. Key 0 lies above
    # the query in every pixel, so its bound equals its SAD: both 8, the
    # bar. It must be compared and win the tie; key 2, the same pixels at
    # a later index, can at best tie and is never compared.
    q = np.full((1, 4), 10, dtype=np.int16)
    keys = np.array([[12, 12, 12, 12],
                     [14, 6, 10, 10],
                     [12, 12, 12, 12]], dtype=np.int16)
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        idx, best = sad_nearest(q, keys)
    assert (idx[0], best[0]) == (0, 8)
    assert counter.uncounted == {"sad_compares": 3 * 4, "sad_evaluated": 2 * 4}


def _vitb_geometry_clip(background):
    spec = SynthSpec(identity_count=2, clips_per_identity=1, height=128, width=256,
                     frames=8, background=background, motion_amplitude=6.0, seed=5)
    return synth_clip(spec, identity=1, clip_seed=0)


def test_encode_motion_on_uniform_background_is_the_first_argmin():
    # a uniform background repeats one patch, so most searches are ties
    clip = _vitb_geometry_clip("uniform")
    gop = encode_gop(clip)
    i_pix = patchify(clip.pixels[0]).patches.astype(np.float64)
    for t in range(1, clip.frames):
        p_pix = patchify(clip.pixels[t]).patches.astype(np.float64)
        d = cdist(p_pix, i_pix, "cityblock")
        assert np.array_equal(gop.motion[t - 1], d.argmin(axis=1))


def test_encode_compares_under_a_quarter_of_the_pairs_on_a_textured_clip():
    counter = nc.MacCounter()
    with nc.mac_counting(counter):
        encode_gop(_vitb_geometry_clip("textured"))
    compares = counter.uncounted["sad_compares"]
    assert compares == 7 * 128 * 128 * 768
    assert 0 < counter.uncounted["sad_evaluated"] < 0.25 * compares


@pytest.mark.parametrize("dtype", [np.float64, np.int32])
def test_sad_nearest_refuses_other_dtypes_before_any_work(dtype):
    pixels = np.zeros((2, 768), dtype=dtype)
    counter = nc.MacCounter()
    with nc.mac_counting(counter), pytest.raises(ValidationError, match="uint8 or int16"):
        sad_nearest(pixels, pixels.astype(np.int16))
    assert "sad_compares" not in counter.uncounted


@pytest.mark.parametrize("frames", [1, 4])
def test_encode_gop_searches_once_per_clip(monkeypatch, frames):
    calls = []

    def spy(queries, keys):
        calls.append((queries.shape, keys.shape))
        return sad_nearest(queries, keys)

    monkeypatch.setattr(gopcodec, "sad_nearest", spy)
    clip = _noise_clip(t=frames, h=48, w=64, seed=12)
    gop = encode_gop(clip)
    assert calls == [(((frames - 1) * 12, 768), (12, 768))]
    i_pix = patchify(clip.pixels[0]).patches
    for t in range(1, frames):
        p_pix = patchify(clip.pixels[t]).patches
        motion, _ = _sad_oracle(p_pix, i_pix)
        assert np.array_equal(gop.motion[t - 1], motion)
        assert np.array_equal(gop.residual[t - 1], p_pix - i_pix[motion])
    assert np.array_equal(decode_gop(gop).pixels, clip.pixels)


def test_encode_decode_bit_exact_noise():
    clip = _noise_clip()
    back = decode_gop(encode_gop(clip))
    assert np.array_equal(back.pixels, clip.pixels)


def test_encode_decode_bit_exact_synth():
    spec = SynthSpec(identity_count=3, clips_per_identity=1, height=64,
                     width=128, frames=5, background="distractor",
                     motion_amplitude=6.0, seed=2)
    clip = synth_clip(spec, identity=1, clip_seed=0)
    gop = encode_gop(clip)
    back = decode_gop(gop)
    assert np.array_equal(back.pixels, clip.pixels)
    assert gop.frames == clip.frames


def test_encode_motion_against_oracle():
    clip = _noise_clip(t=4, h=48, w=64, seed=9)
    gop = encode_gop(clip)
    i_pix = patchify(clip.pixels[0]).patches.astype(np.float64)
    for t in range(1, clip.frames):
        p_pix = patchify(clip.pixels[t]).patches.astype(np.float64)
        d = cdist(p_pix, i_pix, "cityblock")
        assert np.array_equal(gop.motion[t - 1], d.argmin(axis=1))


def test_static_clip_has_identity_motion_and_zero_residual():
    frame = np.arange(32 * 32 * 3).reshape(32, 32, 3)
    frame = (frame % 211).astype(np.uint8)
    clip = RawClip(pixels=np.stack([frame, frame, frame]))
    gop = encode_gop(clip)
    # all patches distinct here, so each matches itself exactly
    assert np.array_equal(gop.motion, np.tile(np.arange(4), (2, 1)))
    assert not gop.residual.any()


def test_duplicate_patches_pick_smallest_index():
    # frame of identical patches: every P patch matches I patch 0
    frame = np.full((32, 32, 3), 77, dtype=np.uint8)
    clip = RawClip(pixels=np.stack([frame, frame]))
    gop = encode_gop(clip)
    assert np.array_equal(gop.motion[0], np.zeros(4, dtype=np.int32))
    assert not gop.residual.any()


def test_single_frame_clip():
    clip = _noise_clip(t=1)
    gop = encode_gop(clip)
    assert gop.motion.shape == (0, 6)
    back = decode_gop(gop)
    assert np.array_equal(back.pixels, clip.pixels)


def test_gop_file_roundtrip(tmp_path):
    clip = _noise_clip(t=3, seed=21)
    gop = encode_gop(clip)
    path = tmp_path / "clip.gop1"
    write_gop(gop, path)
    back = read_gop(path)
    assert np.array_equal(back.i_frame.patches, gop.i_frame.patches)
    assert np.array_equal(back.motion, gop.motion)
    assert np.array_equal(back.residual, gop.residual)
    assert np.array_equal(decode_gop(back).pixels, clip.pixels)


def test_gop_parse_errors(tmp_path):
    clip = _noise_clip(t=2, h=16, w=32, seed=3)
    good = tmp_path / "good.gop1"
    write_gop(encode_gop(clip), good)
    blob = good.read_bytes()
    bad = tmp_path / "bad.gop1"

    bad.write_bytes(blob[:20])
    with pytest.raises(ParseError, match="truncated I-frame"):
        read_gop(bad)

    bad.write_bytes(blob[:-4])
    with pytest.raises(ParseError, match="truncated residual"):
        read_gop(bad)

    bad.write_bytes(blob + b"zz")
    with pytest.raises(ParseError, match="trailing bytes"):
        read_gop(bad)

    # corrupt a motion entry to point outside the grid
    hacked = bytearray(blob)
    motion_off = 6 + 12 + 2 * 768
    hacked[motion_off:motion_off + 4] = (999).to_bytes(4, "little")
    bad.write_bytes(bytes(hacked))
    with pytest.raises(ParseError, match="motion index"):
        read_gop(bad)

    # out-of-range residuals; np.abs leaves int16's -32768 negative
    residual_off = motion_off + 4 * 2  # past the P-frame's two motion entries
    for value in (-32768, -256, 256):
        hacked = bytearray(blob)
        hacked[residual_off:residual_off + 2] = value.to_bytes(2, "little", signed=True)
        bad.write_bytes(bytes(hacked))
        with pytest.raises(ParseError, match=r"residual outside \[-255, 255\]") as err:
            read_gop(bad)
        assert err.value.offset == residual_off


def test_gopclip_validation():
    grid = patchify(np.zeros((16, 32, 3), dtype=np.uint8))
    motion = np.zeros((1, 2), dtype=np.int32)
    residual = np.zeros((1, 2, 768), dtype=np.int16)
    GopClip(i_frame=grid, motion=motion, residual=residual, height=16, width=32)
    with pytest.raises(ValidationError):
        GopClip(i_frame=grid, motion=motion + 9, residual=residual,
                height=16, width=32)
    with pytest.raises(ValidationError):
        GopClip(i_frame=grid, motion=motion, residual=residual + 300,
                height=16, width=32)
    with pytest.raises(ValidationError):
        GopClip(i_frame=grid, motion=motion, residual=residual,
                height=32, width=32)
    # write_gop stores the I-frame as bytes, so 300 or -5 would not read back
    for value in (300, -5):
        bad = PatchGrid(patches=np.full((2, 768), value, dtype=np.int16), grid_h=1, grid_w=2)
        with pytest.raises(ValidationError, match=r"I-frame patches outside \[0, 255\]"):
            GopClip(i_frame=bad, motion=motion, residual=residual, height=16, width=32)
