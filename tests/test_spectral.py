import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepatch.errors import (
    DegenerateFeatureError,
    DegenerateGraphError,
    ValidationError,
)
from sparsepatch.numcore import MacCounter, Tensor, mac_counting
from sparsepatch.spectral import (
    affinity,
    normalized_laplacian,
    prominent_eigvec,
)


def test_affinity_clamps_negative_products():
    f = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    a = affinity(f)
    assert a[0, 1] == 0.0 and a[1, 0] == 0.0
    assert a[0, 0] == 1.0
    assert a[2, 2] == 4.0


def test_affinity_accepts_tensor():
    a = affinity(Tensor([[1.0, 1.0], [1.0, 1.0]]))
    assert isinstance(a, np.ndarray)
    assert np.allclose(a, 2.0)


def test_affinity_charges_its_gram_product():
    counter = MacCounter()
    with mac_counting(counter), counter.stage("saliency"):
        affinity(np.ones((5, 3)))
    assert counter.by_stage == {"saliency": 5 * 5 * 3}


def test_laplacian_known_value():
    # uniform 2-node graph: D = 2I (up to the tiny floor), L = I - A/2
    a = np.ones((2, 2))
    lap = normalized_laplacian(a)
    assert np.allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-9)


def test_laplacian_degenerate_graph():
    with pytest.raises(DegenerateGraphError):
        normalized_laplacian(np.zeros((3, 3)))
    with pytest.raises(DegenerateGraphError):
        normalized_laplacian(np.array([[1.0, -3.0], [-3.0, 1.0]]))


def test_laplacian_validation():
    with pytest.raises(ValidationError):
        normalized_laplacian(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        normalized_laplacian(np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_laplacian_spectrum_bounded(n, c, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    f = rng.standard_normal((n, c))
    a = affinity(f)
    if a.sum(axis=1).max() <= 0.0:
        return  # fully clamped graph; covered by the degenerate test
    lap = normalized_laplacian(a)
    w = np.linalg.eigvalsh(lap)
    assert w.min() > -1e-9
    assert w.max() < 2.0 + 1e-9


def test_two_identical_patches_split_canonically():
    # all-ones affinity at N=2: spectrum {0, 1}, eigvec (1,-1)/sqrt(2)
    # after the tie-break (equal positive/negative counts, first entry +)
    f = np.ones((2, 3))
    sal = prominent_eigvec(f)
    lap = normalized_laplacian(affinity(f))
    assert sal @ lap @ sal == pytest.approx(1.0, abs=1e-9)
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(sal, [r, -r], atol=1e-9)


def test_constant_features_are_degenerate_at_n3():
    with pytest.raises(DegenerateFeatureError, match="not isolated"):
        prominent_eigvec(np.ones((3, 4)))


def test_zero_features_degenerate_graph():
    with pytest.raises(DegenerateGraphError):
        prominent_eigvec(np.zeros((4, 2)))


def test_minority_cluster_is_positive():
    rng = np.random.Generator(np.random.PCG64(7))
    base_a = np.array([1.0, 0.2, 0.1, 0.05])
    base_b = np.array([0.1, 1.0, 0.9, 0.7])
    f = np.stack([base_a + rng.normal(0, 0.02, 4) for _ in range(6)]
                 + [base_b + rng.normal(0, 0.02, 4) for _ in range(2)])
    sal = prominent_eigvec(f)
    pos = int((sal > 0).sum())
    neg = int((sal < 0).sum())
    assert pos <= neg
    # the two minority patches should be the positive ones
    assert set(np.nonzero(sal > 0)[0]) == {6, 7}


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 16), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_saliency_is_unit_eigenvector(n, c, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    f = np.abs(rng.standard_normal((n, c))) + 0.1
    try:
        sal = prominent_eigvec(f)
    except (DegenerateFeatureError, DegenerateGraphError):
        return
    assert np.linalg.norm(sal) == pytest.approx(1.0, abs=1e-9)
    lap = normalized_laplacian(affinity(f))
    # a unit eigenvector's eigenvalue is its Rayleigh quotient
    lam = sal @ lap @ sal
    assert np.linalg.norm(lap @ sal - lam * sal) < 1e-8
    spectrum = np.linalg.eigvalsh(lap)
    assert lam == pytest.approx(spectrum[spectrum > 1e-8 * spectrum[-1]][0], abs=1e-9)
    assert (sal > 0).sum() <= (sal < 0).sum()


def test_saliency_returns_plain_numpy():
    f = Tensor(np.abs(np.random.Generator(np.random.PCG64(3)).standard_normal((5, 3))) + 0.2,
               requires_grad=True)
    sal = prominent_eigvec(f)
    assert isinstance(sal, np.ndarray)
