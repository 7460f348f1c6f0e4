"""Polynomial curve and parametric trajectory models.

:class:`PolynomialCurve` is one fitted polynomial with evaluation and
differentiation; :class:`TrajectoryModel` fits a vehicle trail as a pair
of polynomials x(t), y(t) over frame time, whose first derivative is the
velocity tangent vector the paper uses (Section 3.2).  Inputs are
normalized to a centered unit interval internally so high degrees stay
well conditioned on frame numbers in the thousands.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.trajectory.polyfit import fit_polynomial, vandermonde

__all__ = ["PolynomialCurve", "TrajectoryModel"]


class PolynomialCurve:
    """A univariate polynomial ``f(u) = a_0 + a_1 u + ... + a_k u^k``
    composed with the affine input map ``u = (x - shift) / scale``."""

    def __init__(self, coefficients: np.ndarray, *, shift: float = 0.0,
                 scale: float = 1.0) -> None:
        coeffs = np.atleast_1d(np.asarray(coefficients, dtype=float))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ConfigurationError(
                f"coefficients must be a non-empty 1-D array, got shape "
                f"{coeffs.shape}"
            )
        if scale == 0:
            raise ConfigurationError("scale must be non-zero")
        self.coefficients = coeffs
        self.shift = float(shift)
        self.scale = float(scale)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray,
            degree: int) -> "PolynomialCurve":
        """Least-squares fit with internal input normalization."""
        x = np.asarray(x, dtype=float).ravel()
        shift = float(x.mean()) if len(x) else 0.0
        span = float(x.max() - x.min()) if len(x) > 1 else 1.0
        scale = span / 2.0 if span > 0 else 1.0
        u = (x - shift) / scale
        coeffs, _ = fit_polynomial(u, y, degree)
        return cls(coeffs, shift=shift, scale=scale)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        u = (np.asarray(x, dtype=float) - self.shift) / self.scale
        value = vandermonde(np.atleast_1d(u), self.degree) @ self.coefficients
        return float(value[0]) if np.isscalar(x) else value

    def derivative(self) -> "PolynomialCurve":
        """d/dx of the curve (chain rule folds in the input scale)."""
        if self.degree == 0:
            return PolynomialCurve([0.0], shift=self.shift, scale=self.scale)
        powers = np.arange(1, self.degree + 1, dtype=float)
        coeffs = self.coefficients[1:] * powers / self.scale
        return PolynomialCurve(coeffs, shift=self.shift, scale=self.scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PolynomialCurve(degree={self.degree}, "
                f"coefficients={np.round(self.coefficients, 4).tolist()})")


class TrajectoryModel:
    """Parametric trajectory: x(t), y(t) fitted over frame time.

    The paper fits y as a polynomial of x (its clips move mostly along one
    axis); a parametric fit over time subsumes that and also handles
    vertical motion, stops and U-turns.  ``degree`` follows the paper's
    example (a 4th-degree polynomial in Figure 2).
    """

    def __init__(self, frames: np.ndarray, points: np.ndarray,
                 degree: int = 4) -> None:
        frames = np.asarray(frames, dtype=float).ravel()
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(frames) != len(points):
            raise ConfigurationError(
                f"{len(frames)} frames but {len(points)} points"
            )
        if len(frames) < 2:
            raise ConfigurationError(
                "need at least 2 observations to model a trajectory"
            )
        if degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {degree}")
        self.frames = frames
        self.degree = int(degree)
        self.curve_x = PolynomialCurve.fit(frames, points[:, 0], degree)
        self.curve_y = PolynomialCurve.fit(frames, points[:, 1], degree)
        self._dx = self.curve_x.derivative()
        self._dy = self.curve_y.derivative()
        fitted = self.positions(frames)
        self.rms_error = float(
            np.sqrt(np.mean(np.sum((fitted - points) ** 2, axis=1)))
        )

    def position(self, t: float) -> np.ndarray:
        return np.array([self.curve_x(float(t)), self.curve_y(float(t))])

    def positions(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float).ravel()
        return np.column_stack([self.curve_x(t), self.curve_y(t)])

    def velocity(self, t: float) -> np.ndarray:
        """Tangent vector at ``t`` (pixels per frame)."""
        return np.array([self._dx(float(t)), self._dy(float(t))])

    def speed(self, t: float) -> float:
        return float(np.hypot(*self.velocity(t)))

    @classmethod
    def from_track(cls, track, degree: int = 4) -> "TrajectoryModel":
        """Fit a :class:`~repro.tracking.track.Track` directly."""
        return cls(track.frame_array(), track.point_array(), degree=degree)
