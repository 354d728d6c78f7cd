"""Minimal reverse-mode autodiff over 2-D float64 arrays.

Design notes:

* Every tape value is a 2-D array. Vectors are (1, d) rows, scalars are
  (1, 1). The ``Tensor`` constructor raises ShapeError on anything else,
  and every op builds a 2-D output, so ops check only that their shapes
  fit. This keeps gradient bookkeeping trivial (no implicit rank games
  beyond row/column broadcast in ``add``/``mul``).
* The recording ops, each with its own backward: ``matmul`` (with an
  optional bias row, a linear layer) and ``multihead_attention``; the
  elementwise ``add``, ``sub``, ``mul``, ``relu``, ``gelu``, ``exp_``,
  ``log_``, ``sqrt_``, ``reciprocal`` and ``hard_gate``; ``layer_norm``;
  ``sum_``, ``concat`` and ``slice_``, which take the axis as a required
  argument (0, 1, or for ``sum_`` also None); and ``transpose``,
  ``segment_mean``, ``gather_rows``, ``gather_labels`` and
  ``neighborhood_rows``. A row maximum or minimum is ``gather_labels``
  at the row's argmax or argmin. ``scale`` and ``add_const`` (``mul``
  and ``add`` by a constant), ``mean`` and ``cosine_distance`` compose
  them.
* No op writes into an array it did not allocate, forward or backward,
  so an op's output may be a view of its input: ``slice_`` returns one.
  ``transpose`` copies, so a product against it takes a fresh array's
  BLAS path. Fused ops write into the buffers they allocate: ``matmul``
  adds its bias into the fresh product, ``layer_norm`` keeps one
  normalized copy and one output, and ``gelu`` builds its output in one
  buffer. Each op's output is finite-checked; ``layer_norm`` checks its
  variance too, where the op chain it replaced would have overflowed
  first.
* Recording is explicit: ops only build a backward graph while a Tape is
  active (see the ``tape()`` context manager). Outside a tape the same
  functions are plain numpy computations, which is what inference and
  finite-difference probes use.
* Creation order is a valid topological order, so Tape.backward just
  walks its entries in reverse. Gradients accumulate on ``Tensor.grad``;
  leaf parameters keep theirs until zeroed.
* ``matmul`` and ``multihead_attention`` (its two products per head)
  are the only ops that count multiply-accumulates. All elementwise
  work, reductions, softmax, normalization and gathers count zero, and
  the analytic cost model relies on that convention. Work outside the
  tape tallies itself where it runs, through ``count_macs`` and
  ``note_uncounted``. A product charges its MACs to a slice of rows: a
  stage has one label for all rows, or one label per row, and then each
  row's MACs go to its own label.
* Backward state that the forward result does not need (an activation's
  derivative, attention probabilities) is built only while a tape
  records the op. ``matmul``, whose input gradients are products too,
  forms one only for an operand that records a gradient.
* ``grad_check`` compares central differences with the gradients of one
  taped pass, in which only the checked tensors record; it leaves every
  tensor it was given with the ``requires_grad`` and ``grad`` it had.
"""

from __future__ import annotations

import math
import zlib
from contextlib import contextmanager, nullcontext

import numpy as np
from scipy.special import ndtr

from .errors import NumericalError, ShapeError, ValidationError

# ---------------------------------------------------------------------------
# tensors and the tape
# ---------------------------------------------------------------------------


class Tensor:
    """A 2-D float64 array plus an accumulated gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor data must be 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a (1, 1) tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Tape:
    """Records (output, parents, backward_fn) triples in creation order."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: list = []

    def record(self, out: Tensor, parents: tuple, backward) -> None:
        self._entries.append((out, parents, backward))

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and push gradients back to the leaves."""
        if loss.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got {loss.shape}")
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        else:
            loss.grad = loss.grad + np.ones_like(loss.data)
        for out, parents, backward_fn in reversed(self._entries):
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            for parent, grad in zip(parents, grads):
                if grad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = grad.copy() if grad.base is not None else grad
                else:
                    parent.grad = parent.grad + grad


_TAPE_STACK: list[Tape] = []


@contextmanager
def tape():
    t = Tape()
    _TAPE_STACK.append(t)
    try:
        yield t
    finally:
        _TAPE_STACK.pop()


def _taping(parents: tuple) -> bool:
    """Whether an op on ``parents`` will be recorded, so it needs backward state."""
    return bool(_TAPE_STACK) and any(p.requires_grad for p in parents)


def _check_finite(values: np.ndarray) -> None:
    """Raise NumericalError unless every entry is finite."""
    # A finite sum implies all entries are finite; the slow path only runs
    # when the fast reduction itself overflowed on legal large values.
    total = float(values.sum())
    if not math.isfinite(total) and not np.isfinite(values).all():
        raise NumericalError("operation produced non-finite values")


def _record(out_data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Finalize an op: finite-check the result and register it if taping."""
    _check_finite(out_data)
    needs = _taping(parents)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs
    out.grad = None
    if needs:
        _TAPE_STACK[-1].record(out, parents, backward)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcast_ok(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# multiply-accumulate counting
# ---------------------------------------------------------------------------


class MacCounter:
    """Tally of matmul multiply-accumulates, grouped by pipeline stage.

    Ops that are not matmuls (elementwise work, reductions, SAD searches,
    eigendecompositions) contribute zero; the functions that run the last
    two tally them under ``uncounted`` so reports can disclose what the
    MAC total omits.
    """

    def __init__(self):
        self.total: int = 0
        self.by_stage: dict[str, int] = {}
        self.uncounted: dict[str, int] = {}
        # per stage: its labels, and the index of each row's label, or
        # None when one label covers every row
        self._stage_stack: list = [(["other"], None)]

    def add(self, per_row: int, rows: slice) -> None:
        """Charge ``per_row`` MACs for each of a product's ``rows``, a
        slice with a start and a stop."""
        labels, index = self._stage_stack[-1]
        counts = [rows.stop - rows.start] if index is None else \
            np.bincount(index[rows], minlength=len(labels))
        for label, count in zip(labels, counts):
            macs = per_row * int(count)
            self.total += macs
            self.by_stage[label] = self.by_stage.get(label, 0) + macs

    def note_uncounted(self, kind: str, amount: int) -> None:
        self.uncounted[kind] = self.uncounted.get(kind, 0) + amount

    @contextmanager
    def stage(self, label):
        """Charge MACs inside the block to ``label``, or, given one label
        per row, each product row's MACs to the label at its index."""
        if isinstance(label, str):
            self._stage_stack.append(([label], None))
        else:
            labels, index = np.unique(label, return_inverse=True)
            self._stage_stack.append((labels.tolist(), index))
        try:
            yield
        finally:
            self._stage_stack.pop()


_COUNTER_STACK: list[MacCounter] = []


@contextmanager
def mac_counting(counter: MacCounter):
    _COUNTER_STACK.append(counter)
    try:
        yield counter
    finally:
        _COUNTER_STACK.pop()


def active_counter() -> MacCounter | None:
    return _COUNTER_STACK[-1] if _COUNTER_STACK else None


def stage(label):
    """``MacCounter.stage`` on the active counter; does nothing when no
    counter is active."""
    counter = active_counter()
    return counter.stage(label) if counter is not None else nullcontext()


def count_macs(per_row: int, rows: slice) -> None:
    """Charge ``per_row`` MACs for each of a product's ``rows`` (a slice
    with a start and a stop) to the active counter's current
    stage; does nothing when no counter is active. Called by the code
    that does the work."""
    counter = active_counter()
    if counter is not None:
        counter.add(per_row, rows)


def note_uncounted(kind: str, amount: int) -> None:
    """Tally ``amount`` of an uncounted operation ``kind`` on the active
    counter; does nothing when no counter is active."""
    counter = active_counter()
    if counter is not None:
        counter.note_uncounted(kind, amount)


# ---------------------------------------------------------------------------
# core ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus the (1, n) row ``bias`` when given: a linear layer.
    The bias is added in place into the fresh product, and backward forms
    an operand's gradient only when that operand records one."""
    parents = (a, b) if bias is None else (a, b, bias)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")
    if bias is not None and bias.shape != (1, b.shape[1]):
        raise ShapeError(f"bias {bias.shape} does not fit a product of width {b.shape[1]}")
    count_macs(a.shape[1] * b.shape[1], slice(0, a.shape[0]))
    out_data = a.data @ b.data
    if bias is not None:
        out_data += bias.data

    def backward(g):
        grads = (g @ b.data.T if a.requires_grad else None,
                 a.data.T @ g if b.requires_grad else None)
        return grads if bias is None else (*grads, g.sum(axis=0, keepdims=True))

    return _record(out_data, parents, backward)


def transpose(x: Tensor) -> Tensor:

    def backward(g):
        return (g.T,)

    return _record(x.data.T.copy(), (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"add broadcast mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"sub broadcast mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"mul broadcast mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(a.data * b.data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def backward(g):
        return (g * mask,)

    return _record(np.where(mask, x.data, 0.0), (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, y = x * Phi(x), built in the one
    ``ndtr`` buffer; the backward computes Phi again."""
    out = ndtr(x.data)
    out *= x.data

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
        return (g * (ndtr(x.data) + x.data * pdf),)

    return _record(out, (x,), backward)


def exp_(x: Tensor) -> Tensor:
    y = np.exp(x.data)

    def backward(g):
        return (g * y,)

    return _record(y, (x,), backward)


def log_(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(x.data)

    def backward(g):
        return (g / x.data,)

    return _record(y, (x,), backward)


def sqrt_(x: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        y = np.sqrt(x.data)

    def backward(g):
        return (g * 0.5 / y,)

    return _record(y, (x,), backward)


def reciprocal(x: Tensor) -> Tensor:
    y = 1.0 / x.data

    def backward(g):
        return (-g * y * y,)

    return _record(y, (x,), backward)


_LN_EPS = 1e-6


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization with learned (1, d) scale and shift:
    (x - mean) / sqrt(var + eps) * gamma + beta, with var the row mean of
    squared deviations. The variance is finite-checked as well as the
    output, since an overflowed one would normalize its row to zero."""
    d = x.shape[1]
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ShapeError(f"layer_norm of width {d} got gamma {gamma.shape}, beta {beta.shape}")
    xhat = x.data - x.data.sum(axis=1, keepdims=True) * (1.0 / d)
    out = np.multiply(xhat, xhat)
    var = out.sum(axis=1, keepdims=True) * (1.0 / d)
    _check_finite(var)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def backward(g):
        gxhat = g * gamma.data
        gx = gxhat - gxhat.mean(axis=1, keepdims=True)
        gx -= xhat * (gxhat * xhat).mean(axis=1, keepdims=True)
        gx *= inv
        return gx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return _record(out, (x, gamma, beta), backward)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(m, heads * w) -> (heads, m, w) view, one matrix per head."""
    return x.reshape(x.shape[0], heads, x.shape[1] // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(heads, m, w) -> (m, heads * w), the heads side by side."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], x.shape[0] * x.shape[2])


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                        segments) -> Tensor:
    """Softmax attention computed separately per segment, all heads at once.

    ``segments`` lists ``(rows, keys)`` pairs: ``rows`` is a slice of
    query rows of ``q``, and ``keys`` a slice or an integer index array
    of the rows of ``k`` and ``v`` those queries attend to, so a run of
    rows is read as a view. A query row belongs to at most one segment
    (rows in none come out zero); the keys of one segment are distinct,
    while segments may share keys. The columns of ``q`` and ``k`` split
    into ``heads`` slices of width dk, those of ``v`` into slices of
    width dv; scores are scaled by 1/sqrt(dk). A segment of m queries
    and r keys counts heads * m * r * (dk + dv) MACs, the two products
    of every head.
    """
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    if heads < 1 or q.shape[1] % heads or v.shape[1] % heads:
        raise ShapeError(f"{heads} heads do not split widths {q.shape[1]} and {v.shape[1]}")
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    c = 1.0 / math.sqrt(dk)
    keep = _taping((q, k, v))
    out = np.zeros((q.shape[0], heads * dv))
    saved = []
    for rows, keys in segments:
        qs = _split_heads(q.data[rows], heads)
        ks = _split_heads(k.data[keys], heads)
        vs = _split_heads(v.data[keys], heads)
        count_macs(heads * ks.shape[1] * (dk + dv), rows)
        p = np.matmul(qs, ks.transpose(0, 2, 1))
        p *= c
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)
        out[rows] = _merge_heads(np.matmul(p, vs))
        if keep:
            saved.append((rows, keys, qs, ks, vs, p))

    def backward(g):
        gq, gk, gv = np.zeros_like(q.data), np.zeros_like(k.data), np.zeros_like(v.data)
        for rows, keys, qs, ks, vs, p in saved:
            go = _split_heads(g[rows], heads)
            gv[keys] += _merge_heads(np.matmul(p.transpose(0, 2, 1), go))
            gp = np.matmul(go, vs.transpose(0, 2, 1))
            gs = (gp - (gp * p).sum(axis=2, keepdims=True)) * p * c
            gq[rows] += _merge_heads(np.matmul(gs, ks))
            gk[keys] += _merge_heads(np.matmul(gs.transpose(0, 2, 1), qs))
        return gq, gk, gv

    return _record(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _require_axis(axis, allowed: tuple) -> None:
    if not (axis is None or type(axis) is int) or axis not in allowed:
        raise ShapeError(f"axis must be one of {allowed}, got {axis!r}")


def sum_(x: Tensor, axis) -> Tensor:
    """Sum down the columns (``axis=0``, giving (1, n)), along the rows
    (``axis=1``, giving (m, 1)) or over everything (``axis=None``)."""
    _require_axis(axis, (0, 1, None))

    def backward(g):
        return (np.broadcast_to(g, x.shape),)

    return _record(x.data.sum(axis=axis, keepdims=True), (x,), backward)


def mean(x: Tensor, axis) -> Tensor:
    """``sum_`` divided by the number of entries summed."""
    total = sum_(x, axis)
    return scale(total, 1.0 / (x.data.size if axis is None else x.shape[axis]))


def segment_mean(x: Tensor, sizes) -> Tensor:
    """Column means of consecutive row runs, one output row per run.

    ``sizes`` gives the run lengths in order; each is at least 1 and
    together they cover every row of ``x``.
    """
    sizes = np.asarray(sizes, dtype=np.intp).ravel()
    if not sizes.size or sizes.min() < 1 or sizes.sum() != x.shape[0]:
        raise ShapeError(f"segment sizes {sizes.tolist()} do not split {x.shape[0]} rows")
    ends = np.cumsum(sizes)
    inv = 1.0 / sizes[:, None]
    # a sum per run matches mean(x, 0) bit for bit, and beats add.reduceat,
    # which walks axis 0 of a row-major array slowly
    sums = np.stack([x.data[e - m:e].sum(axis=0) for m, e in zip(sizes, ends)])

    def backward(g):
        return (np.repeat(g * inv, sizes, axis=0),)

    return _record(sums * inv, (x,), backward)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def concat(parts: list[Tensor], axis) -> Tensor:
    """Stack tensors vertically (``axis=0``) or side by side (``axis=1``)."""
    _require_axis(axis, (0, 1))
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    across = {p.shape[1 - axis] for p in parts}
    if len(across) != 1:
        raise ShapeError(f"concat along axis {axis} mismatch: {sorted(across)}")
    offsets = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record(np.concatenate([p.data for p in parts], axis=axis),
                   tuple(parts), backward)


def slice_(x: Tensor, start: int, stop: int, axis) -> Tensor:
    """Rows (``axis=0``) or columns (``axis=1``) ``start:stop`` of ``x``."""
    _require_axis(axis, (0, 1))
    if not (0 <= start <= stop <= x.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] along axis {axis} out of range for {x.shape}")
    span = (slice(None),) * axis + (slice(start, stop),)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[span] = g
        return (gx,)

    return _record(x.data[span], (x,), backward)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows by integer index; backward scatter-adds (repeats allowed)."""
    idx = np.asarray(idx, dtype=np.intp).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"gather_rows index out of range for {x.shape}")

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(x.data[idx], (x,), backward)


def gather_labels(x: Tensor, labels) -> Tensor:
    """Pick one column per row, returning (m, 1). At ``x.data.argmax(axis=1)``
    this is the row maximum, with the gradient going to the first maximum."""
    labels = np.asarray(labels, dtype=np.intp).ravel()
    if labels.shape[0] != x.shape[0]:
        raise ShapeError(f"gather_labels needs {x.shape[0]} labels, got {labels.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= x.shape[1]):
        raise ShapeError(f"label out of range for {x.shape[1]} columns")
    rows = np.arange(x.shape[0])

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[rows, labels] = g[:, 0]
        return (gx,)

    return _record(x.data[rows, labels].reshape(-1, 1), (x,), backward)


def neighborhood_rows(x: Tensor, frames: int, height: int, width: int,
                      offset: int, centres: range) -> Tensor:
    """3x3x3 neighborhoods of a video grid in im2col form, spatial stride 2.

    Row ``(t * height + y) * width + x`` of ``x`` holds the C channels of
    cell (t, y, x). The output has one row per centre (t, 2 * yo + offset,
    2 * xo + offset) for t in ``centres``, a run of frames, yo <
    height // 2 and xo < width // 2, in (t, yo, xo) order; ``offset`` is 0
    or 1. Its 27 * C columns are the centre's (3, 3, 3, C) window
    flattened in (dt, dy, dx, channel) order, each of dt, dy, dx running
    -1, 0, 1. Cells outside the grid read as zero; only the frames the
    windows reach are padded. Backward adds each tap's gradient back into
    the cells it read.
    """
    c = x.shape[1]
    if x.shape[0] != frames * height * width:
        raise ShapeError(f"{x.shape[0]} rows do not fill a {frames}x{height}x{width} grid")
    if offset not in (0, 1):
        raise ShapeError(f"neighborhood offset must be 0 or 1, got {offset}")
    if centres.step != 1 or not 0 <= centres.start < centres.stop <= frames:
        raise ShapeError(f"centre frames {centres} are not a run within {frames} frames")
    ho, wo = height // 2, width // 2
    # padded frame k is clip frame centres.start - 1 + k; clip frames lo:hi
    # are the ones the windows read
    lo, hi = max(centres.start - 1, 0), min(centres.stop + 1, frames)
    inner = (slice(lo - centres.start + 1, hi - centres.start + 1), slice(1, -1), slice(1, -1))
    pad_shape = (len(centres) + 2, height + 2, width + 2, c)

    def windows(volume):
        # (centres, ho, wo, 3, 3, 3, C) view of a zero-padded volume: window
        # (t, yo, xo) starts at padded cell (t, 2 * yo + offset, 2 * xo + offset)
        view = np.lib.stride_tricks.sliding_window_view(volume, (3, 3, 3), (0, 1, 2),
                                                        writeable=True)
        return view[:, offset::2, offset::2][:, :ho, :wo].transpose(0, 1, 2, 4, 5, 6, 3)

    padded = np.zeros(pad_shape)
    padded[inner] = x.data.reshape(frames, height, width, c)[lo:hi]

    def backward(g):
        gpad = np.zeros(pad_shape)
        gview, g = windows(gpad), g.reshape(len(centres), ho, wo, 3, 3, 3, c)
        # taps overlap, so they are added one at a time in column order
        for dt, dy, dx in np.ndindex(3, 3, 3):
            gview[:, :, :, dt, dy, dx] += g[:, :, :, dt, dy, dx]
        gx = np.zeros_like(x.data)
        gx.reshape(frames, height, width, c)[lo:hi] = gpad[inner]
        return (gx,)

    return _record(windows(padded).reshape(-1, 27 * c), (x,), backward)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


# Saturating-sigmoid surrogate used by the selection gate. The hard
# forward emits 1 where x > 0; the backward substitutes the slope of
# clip(1.2 * sigmoid(x) - 0.1, 0, 1), which is nonzero only while the
# clip is inactive, i.e. |x| < ln(11).
_GATE_BAND = math.log(11.0)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def soft_gate_value(x: np.ndarray) -> np.ndarray:
    return np.clip(1.2 * _stable_sigmoid(x) - 0.1, 0.0, 1.0)


def hard_gate(x: Tensor) -> Tensor:

    def backward(g):
        inside = np.abs(x.data) < _GATE_BAND
        s = _stable_sigmoid(x.data)
        return (g * np.where(inside, 1.2 * s * (1.0 - s), 0.0),)

    return _record((x.data > 0.0).astype(np.float64), (x,), backward)


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------


def scale(x: Tensor, c: float) -> Tensor:
    return mul(x, Tensor(c))


def add_const(x: Tensor, c: float) -> Tensor:
    return add(x, Tensor(c))


def cosine_distance(a: Tensor, b: Tensor) -> Tensor:
    """1 - cos(a, b) row by row, as an (m, 1) column; ``b`` may be a
    single (1, d) row shared by every row of ``a``. A zero vector yields
    exactly 1.

    The tiny constant inside each sqrt keeps the expression differentiable
    everywhere and, for an all-zero input, drives the cosine itself to
    zero rather than NaN.
    """
    na = sqrt_(add_const(sum_(mul(a, a), 1), 1e-24))
    nb = sqrt_(add_const(sum_(mul(b, b), 1), 1e-24))
    dot = sum_(mul(a, b), 1)
    cos = mul(dot, reciprocal(mul(na, nb)))
    return add_const(scale(cos, -1.0), 1.0)


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------


def rng_stream(seed: int, *tags) -> np.random.Generator:
    """Independent generator for (seed, tags); strings hash via crc32."""
    entropy = [int(seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(zlib.crc32(tag.encode("utf-8")))
        else:
            entropy.append(int(tag) & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class ParamSet:
    """Named collection of trainable tensors with stable iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValidationError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ValidationError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def save_npz(self, path) -> None:
        np.savez(path, **{name: t.data for name, t in self.items()})

    @classmethod
    def load_npz(cls, path) -> "ParamSet":
        params = cls()
        with np.load(path) as archive:
            for name in sorted(archive.files):
                params.add(name, archive[name])
        return params


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(loss, tensors, names: list[str], eps: float = 1e-5,
               max_coords: int | None = None, seed: int = 0) -> dict[str, float]:
    """Max relative error between taped and central-difference gradients,
    per named tensor.

    ``loss`` takes no argument, returns a (1, 1) tensor, must be
    deterministic and reads the tensors of ``tensors`` (a ParamSet or a
    name -> Tensor dict) in place, so perturbing one is reflected. One
    taped pass gives every analytic gradient: only the named tensors
    record during it, and afterwards every tensor of ``tensors`` gets its
    own ``requires_grad`` and ``grad`` back, also when ``loss`` raises.
    By default every coordinate of a named tensor is probed; pass
    ``max_coords`` to probe a seeded subsample instead and bound the cost
    on large tensors.
    """
    checked = {name: tensors[name] for name in names}
    found = [(t, t.requires_grad, t.grad) for _, t in tensors.items()]
    try:
        for t, _, _ in found:
            t.requires_grad = False
        for t in checked.values():
            t.requires_grad, t.grad = True, None
        with tape() as tp:
            tp.backward(loss())
        analytic = {name: np.zeros_like(t.data) if t.grad is None else t.grad
                    for name, t in checked.items()}
    finally:
        for t, requires_grad, grad in found:
            t.requires_grad, t.grad = requires_grad, grad

    report: dict[str, float] = {}
    for name, x in checked.items():
        size = x.data.size
        if max_coords is not None and size > max_coords:
            coords = rng_stream(seed, "gradcheck").choice(size, size=max_coords,
                                                          replace=False)
        else:
            coords = range(size)
        flat = x.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        worst = 0.0
        for c in coords:
            c = int(c)
            keep = flat[c]
            flat[c] = keep + eps
            up = loss().item()
            flat[c] = keep - eps
            down = loss().item()
            flat[c] = keep
            numeric = (up - down) / (2.0 * eps)
            err = abs(aflat[c] - numeric) / (abs(numeric) + 1e-8)
            if err > worst:
                worst = err
        report[name] = worst
    return report
