"""Graph-spectral patch saliency.

Patches of one frame form a fully connected graph weighted by feature
inner products. The eigenvector of the symmetric normalized Laplacian at
the smallest non-trivial eigenvalue splits the graph along its weakest
cut; with a sign convention that makes the smaller side positive, that
split is a foreground score per patch.

``prominent_eigvec`` is the one entry; it checks its features once, and
its private steps do not re-check what they build. Everything here is
plain numpy on purpose: the decomposition is not differentiated, and
callers treat the saliency vector as a constant. The Gram product is
still a real matmul, so it is charged to the active MAC counter.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError
from .numcore import count_macs, note_uncounted

_REL_TOL = 1e-8


def _laplacian(f: np.ndarray) -> np.ndarray | None:
    """Symmetric normalized Laplacian of the features' inner-product
    graph, or None when the graph has no edges.

    The Gram product costs n * n * d MACs. Clamping it at zero keeps the
    weights similarities, so no degree is negative; degrees get a floor
    of 1e-12 * max(degree) so an isolated patch cannot divide by zero.
    """
    n, d = f.shape
    count_macs(n * d, slice(0, n))
    a = f @ f.T
    a = 0.5 * (a + a.T)  # exact symmetry despite float summation order
    np.maximum(a, 0.0, out=a)
    deg = a.sum(axis=1)
    if not np.isfinite(deg).all():
        # finite features can still overflow their Gram product
        raise ValidationError("affinity contains non-finite values")
    if deg.max() <= 0.0:
        return None
    reg = deg + 1e-12 * deg.max()
    inv_sqrt = 1.0 / np.sqrt(reg)
    lap = (np.diag(reg) - a) * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (lap + lap.T)


def _eigh(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of ``lap``.

    Each decomposition run is tallied as ``eig_decompositions`` on the
    active counter, and its result is verified by reconstruction, so a
    silently bad factorization cannot leak downstream.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    note_uncounted("eig_decompositions", 1)
    residual = float(np.linalg.norm(lap @ eigenvectors - eigenvectors * eigenvalues))
    if not residual <= 1e-8 * max(float(np.linalg.norm(lap)), 1.0):  # NaN fails too
        raise NumericalError(
            f"eigendecomposition residual {residual:.3e} exceeds tolerance")
    return eigenvalues, eigenvectors


def _split(f: np.ndarray) -> np.ndarray | None:
    """Unoriented unit eigenvector at the smallest informative Laplacian
    eigenvalue, or None when the graph gives no usable split."""
    lap = _laplacian(f)
    if lap is None:
        return None  # no edges, so nothing is decomposed
    eigenvalues, eigenvectors = _eigh(lap)
    floor = _REL_TOL * float(eigenvalues[-1])
    candidates = np.flatnonzero(eigenvalues > floor)
    if candidates.size == 0:
        return None
    k = int(candidates[0])
    if k + 1 < eigenvalues.size and float(eigenvalues[k + 1]) - float(eigenvalues[k]) <= floor:
        return None  # not isolated: the split direction would be arbitrary
    return eigenvectors[:, k].copy()


def prominent_eigvec(f) -> np.ndarray:
    """Unit eigenvector at the smallest informative Laplacian eigenvalue of
    the (n, d) features ``f``, oriented so that its positive entries, the
    smaller side, mark foreground.

    ``f`` must be a nonempty, finite 2-D array; otherwise ValidationError
    is raised before any MAC is charged. The split is unusable when the
    graph has no edges, when no eigenvalue clears the noise floor (1e-8
    of the largest), or when the candidate is not separated from the next
    eigenvalue, as happens for constant features at n >= 3. Such a frame
    gets ``np.zeros(n)`` and is tallied as ``saliency_fallbacks`` on the
    active counter.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.size == 0:
        raise ValidationError(f"feature matrix must be nonempty and 2-D, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValidationError("feature matrix contains non-finite values")
    y = _split(f)
    if y is None:
        note_uncounted("saliency_fallbacks", 1)
        return np.zeros(f.shape[0])
    # the smaller side is positive; on a tie, the first nonzero entry is
    positive, negative = int((y > 0).sum()), int((y < 0).sum())
    nonzero = np.flatnonzero(y)
    if positive > negative or (positive == negative and nonzero.size and y[nonzero[0]] < 0):
        y = -y
    return y
