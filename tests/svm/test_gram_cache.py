"""GramCache: cached columns must equal direct kernel evaluation, the
cache must only compute what it has not seen, and any kernel-parameter
change must invalidate wholesale."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.svm.gram_cache import GramCache
from repro.svm.kernels import (
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
)
from repro.utils import pairwise_sq_dists, row_sq_norms

KERNELS = [
    RBFKernel(0.25),
    LinearKernel(),
    PolynomialKernel(degree=2, gamma=0.5, coef0=1.0),
]


@pytest.fixture()
def x():
    return np.random.default_rng(0).normal(size=(40, 7))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
def test_columns_match_direct_kernel(kernel, x):
    cache = GramCache(x)
    ids = [3, 11, 27, 5]
    rows = np.asarray(ids)
    cache.ensure(kernel, ids, rows)
    np.testing.assert_allclose(cache.cross(ids), kernel.compute(x, x[rows]),
                               atol=1e-12)
    # External vectors land in the same columns: ids seen by ensure()
    # are served from cache by ensure_vectors().
    assert cache.ensure_vectors(kernel, ids[:2], x[rows[:2]]) == 0
    np.testing.assert_allclose(cache.cross(ids[:2]),
                               kernel.compute(x, x[rows[:2]]), atol=1e-12)


def test_warm_round_computes_only_new_columns(x):
    kernel = RBFKernel(0.5)
    cache = GramCache(x)
    assert cache.ensure(kernel, [1, 2, 3], np.array([1, 2, 3])) == 3
    assert cache.misses == 3 and cache.hits == 0
    # Second round: same ids plus two new ones -> only 2 fresh columns.
    ids = [1, 2, 3, 8, 9]
    assert cache.ensure(kernel, ids, np.asarray(ids)) == 2
    assert cache.misses == 5 and cache.hits == 3
    assert cache.n_cached == 5


def test_params_change_invalidates(x):
    cache = GramCache(x)
    cache.ensure(RBFKernel(0.5), [0, 1], np.array([0, 1]))
    assert cache.params == ("rbf", 0.5)
    # Same family, different gamma -> wholesale invalidation.
    assert cache.ensure(RBFKernel(1.0), [0, 1], np.array([0, 1])) == 2
    assert cache.n_cached == 2
    # Different family -> invalidation again, values match the new kernel.
    assert cache.ensure(LinearKernel(), [0, 1], np.array([0, 1])) == 2
    np.testing.assert_allclose(cache.cross([0, 1]), x @ x[[0, 1]].T,
                               atol=1e-12)


def test_gram_requires_ensure(x):
    cache = GramCache(x)
    with pytest.raises(ConfigurationError, match="ensure"):
        cache.cross([4])


def test_ids_rows_must_align(x):
    with pytest.raises(ConfigurationError, match="align"):
        GramCache(x).ensure(LinearKernel(), [1, 2], np.array([1]))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
def test_blockwise_matches_full(kernel):
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(33, 5)), rng.normal(size=(6, 5))
    blocked = kernel.compute_blocked(a, b, block_rows=8)
    np.testing.assert_allclose(blocked, kernel.compute(a, b), atol=1e-12)


def test_rbf_norms_reuse_matches():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(20, 4)), rng.normal(size=(7, 4))
    kernel = RBFKernel(0.3)
    plain = kernel.compute(a, b)
    reused = kernel.compute(a, b, a_sq=row_sq_norms(a), b_sq=row_sq_norms(b))
    np.testing.assert_allclose(reused, plain, atol=1e-12)
    np.testing.assert_allclose(
        pairwise_sq_dists(a, b, a_sq=row_sq_norms(a), b_sq=row_sq_norms(b)),
        pairwise_sq_dists(a, b), atol=1e-12)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
def test_diag_matches_gram_diagonal(kernel, x):
    np.testing.assert_allclose(kernel.diag(x),
                               np.diag(kernel.compute(x, x)), atol=1e-12)
    cache = GramCache(x)
    np.testing.assert_allclose(cache.diag(kernel), kernel.diag(x), atol=1e-12)
    # Cached diag object is reused while the params key is stable.
    assert cache.diag(kernel) is cache.diag(kernel)


def test_symbolic_gamma_raises_on_diag():
    with pytest.raises(ConfigurationError, match="prepare"):
        RBFKernel("scale").diag(np.ones((2, 2)))
