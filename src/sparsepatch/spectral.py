"""Graph-spectral patch saliency.

Patches of one frame form a fully connected graph weighted by feature
inner products. The eigenvector of the symmetric normalized Laplacian at
the smallest non-trivial eigenvalue splits the graph along its weakest
cut; with a sign convention that makes the smaller side positive, that
split is a foreground score per patch.

Everything here is plain numpy on purpose: the decomposition is not
differentiated, and callers treat the saliency vector as a constant.
The Gram product is still a real matmul, so ``affinity`` charges it to
the active MAC counter, and ``sym_eig`` tallies each decomposition.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFeatureError, DegenerateGraphError, ValidationError
from .numcore import Tensor, count_macs, sym_eig

_REL_TOL = 1e-8


def _as_features(f) -> np.ndarray:
    arr = f.data if isinstance(f, Tensor) else np.asarray(f, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"feature matrix must be nonempty, got {arr.shape}")
    return arr


def affinity(f) -> np.ndarray:
    """Pairwise inner products of patch features, clamped at zero.

    Clamping keeps the graph weights interpretable as similarities. The
    (n, d) features cost n * n * d MACs on the active counter.
    """
    arr = _as_features(f)
    count_macs(arr.shape[0] * arr.shape[1], slice(0, arr.shape[0]))
    a = arr @ arr.T
    a = 0.5 * (a + a.T)  # exact symmetry despite float summation order
    np.maximum(a, 0.0, out=a)
    return a


def normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian with degree regularization.

    Degrees get a relative floor of 1e-12 * max(degree) so isolated
    patches cannot produce a division by zero; a graph whose every degree
    is zero (or negative) has no usable structure and raises.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"affinity must be square, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("affinity contains non-finite values")
    if np.abs(a - a.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(a).max(initial=0.0)):
        raise ValidationError("affinity must be symmetric")
    deg = a.sum(axis=1)
    if deg.max(initial=0.0) <= 0.0:
        raise DegenerateGraphError("all patch degrees are zero; graph has no edges")
    reg = deg + 1e-12 * deg.max()
    if reg.min() <= 0.0:
        raise DegenerateGraphError("negative degree; unclamped affinity is not a graph")
    inv_sqrt = 1.0 / np.sqrt(reg)
    lap = (np.diag(reg) - a) * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (lap + lap.T)


def prominent_eigvec(f) -> np.ndarray:
    """Unit eigenvector at the smallest informative Laplacian eigenvalue,
    oriented so that its positive entries, the smaller side, mark foreground.

    Raises DegenerateFeatureError when no eigenvalue clears the noise
    floor (1e-8 of the largest) or when the candidate is not separated
    from the next eigenvalue, as happens for constant features at N >= 3
    where the split direction would be arbitrary.
    """
    lap = normalized_laplacian(affinity(f))
    eigenvalues, eigenvectors = sym_eig(lap)
    lam_max = float(eigenvalues[-1])
    floor = _REL_TOL * lam_max
    if lam_max <= 0.0:
        raise DegenerateFeatureError("Laplacian spectrum is entirely zero")
    candidates = np.nonzero(eigenvalues > floor)[0]
    if candidates.size == 0:
        raise DegenerateFeatureError("no eigenvalue above the noise floor")
    k = int(candidates[0])
    lam = float(eigenvalues[k])
    if k + 1 < eigenvalues.size and float(eigenvalues[k + 1]) - lam <= floor:
        raise DegenerateFeatureError(
            f"smallest informative eigenvalue {lam:.6g} is not isolated")
    y = eigenvectors[:, k].copy()
    # the smaller side is positive; on a tie, the first nonzero entry is
    positive, negative = int((y > 0).sum()), int((y < 0).sum())
    nonzero = np.flatnonzero(y)
    if positive > negative or (positive == negative and nonzero.size and y[nonzero[0]] < 0):
        y = -y
    return y
