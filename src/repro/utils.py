"""Small shared helpers: RNG handling and argument validation."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "as_rng",
    "check_positive",
    "check_in_range",
    "check_2d",
    "row_sq_norms",
    "pairwise_sq_dists",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy :class:`~numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh OS-seeded generator).  All stochastic code in this
    library threads randomness through this helper so experiments are
    reproducible end to end.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (strictly by default)."""
    if strict and not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: tuple[bool, bool] = (True, True),
) -> float:
    """Validate that ``value`` lies in the interval [low, high] (by default)."""
    lo_ok = value >= low if inclusive[0] else value > low
    hi_ok = value <= high if inclusive[1] else value < high
    if not (lo_ok and hi_ok):
        lo_b = "[" if inclusive[0] else "("
        hi_b = "]" if inclusive[1] else ")"
        raise ConfigurationError(
            f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value!r}"
        )
    return value


def check_2d(name: str, array: np.ndarray) -> np.ndarray:
    """Coerce ``array`` to a 2-D float array, raising on bad shapes."""
    arr = np.asarray(array, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    return arr


def row_sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row of ``x`` (1-D, length n)."""
    x = np.asarray(x, dtype=float)
    return np.einsum("ij,ij->i", x, x)


def pairwise_sq_dists(
    a: np.ndarray,
    b: np.ndarray,
    *,
    a_sq: np.ndarray | None = None,
    b_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` and rows of ``b``.

    Uses the expansion ``|a-b|^2 = |a|^2 + |b|^2 - 2 a.b`` and clips tiny
    negative values produced by floating point cancellation.  ``a_sq`` /
    ``b_sq`` are optional precomputed :func:`row_sq_norms` of ``a`` / ``b``
    — the Gram cache passes them so the database norms are computed once
    per engine instead of once per kernel evaluation.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aa = (row_sq_norms(a) if a_sq is None else np.asarray(a_sq))[:, None]
    bb = (row_sq_norms(b) if b_sq is None else np.asarray(b_sq))[None, :]
    d2 = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)
