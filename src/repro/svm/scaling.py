"""Feature scalers (fit on training data, apply everywhere).

The paper is silent on scaling; its three accident features live on very
different ranges (1/mdist in [0, 0.5], vdiff in pixels/frame, theta in
[0, pi]), so the RBF kernel needs the columns commensurate.
``StandardScaler`` feeds the SVM; the heuristic square-sum score reads
the raw features, as the paper does.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.utils import check_2d

__all__ = ["StandardScaler"]

_STD_FLOOR = 1e-12


class StandardScaler:
    """Per-column standardisation to zero mean / unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = check_2d("x", x)
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        self.scale_ = np.where(std > _STD_FLOOR, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler: call fit() first")
        x = check_2d("x", x)
        return (x - self.mean_) / self.scale_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler: call fit() first")
        x = check_2d("x", x)
        return x * self.scale_ + self.mean_

