import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepatch import spectral
from sparsepatch.errors import NumericalError, ValidationError
from sparsepatch.numcore import MacCounter, mac_counting
from sparsepatch.spectral import _eigh, _laplacian, prominent_eigvec


def _counted(f):
    """prominent_eigvec(f) under a fresh counter: (saliency, counter)."""
    counter = MacCounter()
    with mac_counting(counter):
        sal = prominent_eigvec(f)
    return sal, counter


def test_affinity_clamps_negative_products():
    # rows 0 and 1 have inner product -1: clamped, they share no edge, so
    # the Laplacian's off-diagonal entries are all zero
    f = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    lap = _laplacian(f)
    assert not (lap - np.diag(np.diag(lap))).any()
    # each node keeps only its self-loop: 1 - a_ii / (a_ii + 1e-12 * 4)
    assert np.allclose(np.diag(lap), [4e-12, 4e-12, 1e-12], rtol=1e-3, atol=0.0)


def test_affinity_charges_its_gram_product():
    counter = MacCounter()
    with mac_counting(counter), counter.stage("saliency"):
        prominent_eigvec(np.ones((5, 3)))
    assert counter.by_stage == {"saliency": 5 * 5 * 3}


def test_laplacian_known_value():
    # uniform 2-node graph: D = 2I (up to the tiny floor), L = I - A/2
    lap = _laplacian(np.ones((2, 1)))
    assert np.allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-9)


def test_laplacian_degenerate_graph():
    # only all-zero features leave a graph with no edges: any nonzero row
    # has a positive self-product
    assert _laplacian(np.zeros((3, 2))) is None
    # a zero row is an isolated patch; the degree floor keeps it finite
    lap = _laplacian(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert np.isfinite(lap).all()
    assert lap[0, 0] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_laplacian_spectrum_bounded(n, c, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    lap = _laplacian(rng.standard_normal((n, c)))
    assert np.array_equal(lap, lap.T)
    w = np.linalg.eigvalsh(lap)
    assert w.min() > -1e-9
    assert w.max() < 2.0 + 1e-9


def test_two_identical_patches_split_canonically():
    # all-ones affinity at N=2: spectrum {0, 1}, eigvec (1,-1)/sqrt(2)
    # after the tie-break (equal positive/negative counts, first entry +)
    f = np.ones((2, 3))
    sal = prominent_eigvec(f)
    lap = _laplacian(f)
    assert sal @ lap @ sal == pytest.approx(1.0, abs=1e-9)
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(sal, [r, -r], atol=1e-9)


def test_constant_features_are_degenerate_at_n3():
    # spectrum {0, 1.5, 1.5}: the candidate is not isolated, so the split
    # direction would be arbitrary
    sal, counter = _counted(np.ones((3, 4)))
    assert np.array_equal(sal, np.zeros(3))
    assert counter.uncounted == {"eig_decompositions": 1, "saliency_fallbacks": 1}


def test_zero_features_degenerate_graph():
    # no edges: zero saliency, one fallback, nothing decomposed
    sal, counter = _counted(np.zeros((4, 2)))
    assert np.array_equal(sal, np.zeros(4))
    assert counter.uncounted == {"saliency_fallbacks": 1}
    assert counter.total == 4 * 4 * 2


def test_malformed_or_overflowing_features_are_refused():
    # malformed features are refused at the door, before any MAC
    for bad in (np.array([[1.0, np.nan], [0.0, 1.0]]),
                np.array([[1.0, np.inf], [0.0, 1.0]]),
                np.ones(4), np.ones((0, 3)), np.ones((3, 0))):
        counter = MacCounter()
        with mac_counting(counter), pytest.raises(ValidationError, match="feature matrix"):
            prominent_eigvec(bad)
        assert counter.total == 0 and counter.by_stage == {} and counter.uncounted == {}
    # finite features whose Gram product overflows are refused too
    with pytest.raises(ValidationError, match="affinity contains non-finite values"):
        prominent_eigvec(np.full((4, 3), 1e160))


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
    sal = prominent_eigvec(f)
    if not sal.any():
        return  # no usable split; covered by the degenerate tests
    assert np.linalg.norm(sal) == pytest.approx(1.0, abs=1e-9)
    lap = _laplacian(f)
    # a unit eigenvector's eigenvalue is its Rayleigh quotient
    lam = sal @ lap @ sal
    assert np.linalg.norm(lap @ sal - lam * sal) < 1e-8
    spectrum = np.linalg.eigvalsh(lap)
    assert lam == pytest.approx(spectrum[spectrum > 1e-8 * spectrum[-1]][0], abs=1e-9)
    assert (sal > 0).sum() <= (sal < 0).sum()


def test_eigh_known_matrix():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, v = _eigh(m)
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)
    assert np.allclose(m @ v, v * w, atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2**31 - 1))
def test_eigh_reconstructs(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((n, n))
    s = a + a.T
    w, v = _eigh(s)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.allclose(v @ np.diag(w) @ v.T, s, atol=1e-8 * max(1.0, np.abs(s).max()))


def test_eigh_tallies_each_decomposition_it_runs():
    counter = MacCounter()
    with mac_counting(counter):
        _eigh(np.eye(2))
        _eigh(np.eye(3))
    _eigh(np.eye(2))  # outside the context: not tallied
    assert counter.uncounted == {"eig_decompositions": 2}
    assert counter.total == 0


def test_eigh_failure_raises_numerical_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eigh", no_convergence)
    counter = MacCounter()
    with mac_counting(counter), pytest.raises(NumericalError, match="failed to converge"):
        prominent_eigvec(np.array([[1.0, 0.1], [0.1, 1.0]]))
    # a decomposition that never finished is not tallied, nor is a fallback
    assert counter.uncounted == {}


@pytest.mark.parametrize("bad", ["wrong vectors", "nan"])
def test_eigh_residual_check_raises_numerical_error(monkeypatch, bad):
    real = np.linalg.eigh

    def corrupt(a):
        w, v = real(a)
        return (w, np.roll(v, 1, axis=1)) if bad == "wrong vectors" else (w * np.nan, v)

    monkeypatch.setattr(spectral.np.linalg, "eigh", corrupt)
    counter = MacCounter()
    with mac_counting(counter), pytest.raises(NumericalError, match="residual"):
        prominent_eigvec(np.array([[1.0, 0.1], [0.1, 1.0], [0.5, 0.5]]))
    assert counter.uncounted == {"eig_decompositions": 1}
