"""Uniform one-dimensional grids and the fields that live on them.

Conventions shared by the stationary and dynamic solvers:

* normalisation uses the plain node sum, ``h * sum(values)``;
* integrals of smooth integrands use trapezoidal quadrature;
* first derivatives use second-order central differences in the interior
  and first-order one-sided differences at the two edge nodes
  (:func:`gradient` below, identical to ``numpy.gradient`` with its default
  ``edge_order=1``).

Field values are immutable snapshots: arrays are copied on construction and
marked read-only, so fields can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DENSITY_FLOOR = 1e-12  # densities below it drop out of the 1/P terms
MODULUS_FLOOR = 1e-12  # moduli |psi| below it leave the phase undefined
_DOT_SLICE = 8192  # below the length at which OpenBLAS threads a dot


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform grid with nodes ``origin + i * spacing``, i = 0..n_points-1."""

    n_points: int
    spacing: float
    origin: float = 0.0

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError("grid needs at least 3 nodes")
        if not self.spacing > 0:
            raise ValueError("grid spacing must be positive")

    @classmethod
    def from_interval(cls, x_min: float, x_max: float, n_points: int) -> "Grid1D":
        if not x_max > x_min:
            raise ValueError("interval must have positive length")
        return cls(n_points=n_points, spacing=(x_max - x_min) / (n_points - 1),
                   origin=x_min)

    def nodes(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.n_points)

    def shifted(self, shift: float) -> "Grid1D":
        return Grid1D(self.n_points, self.spacing, self.origin + shift)

    def compatible_with(self, other: "Grid1D") -> bool:
        return (self.n_points == other.n_points
                and abs(self.spacing - other.spacing) <= 1e-12 * self.spacing
                and abs(self.origin - other.origin) <= 1e-9)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real field on a grid; ``kind`` selects the validation contract.

    density    values >= 0 and h * sum(values) = 1 within 1e-10
    action     defined modulo a global additive constant; NaN marks nodes
               where the phase it came from was undefined
    potential  no constraint beyond finiteness
    """

    grid: Grid1D
    values: np.ndarray
    kind: str = "potential"

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, float))
        if self.values.shape != (self.grid.n_points,):
            raise ValueError("field length does not match grid")
        if self.kind not in ("density", "action", "potential"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind != "action" and not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.kind} field must be finite")
        if self.kind == "density":
            if np.any(self.values < 0):
                raise ValueError("density must be nonnegative")
            total = self.grid.spacing * float(self.values.sum())
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"density must be normalised, got {total!r}")


@dataclass(frozen=True, eq=False)
class WaveField:
    """Complex field; when ``normalized`` is set, h * sum|values|^2 = 1."""

    grid: Grid1D
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, complex))
        if self.values.shape != (self.grid.n_points,):
            raise ValueError("field length does not match grid")
        if self.normalized and abs(self.norm() - 1.0) > 1e-10:
            raise ValueError("wave field marked normalised but is not")

    def norm(self) -> float:
        return self.grid.spacing * float((np.abs(self.values) ** 2).sum())

    def density_values(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def normalized_wave(grid: Grid1D, values) -> WaveField:
    """Scale ``values`` to unit norm and wrap them in a WaveField."""
    v = np.asarray(values, dtype=complex)
    nrm = np.sqrt(grid.spacing * float((np.abs(v) ** 2).sum()))
    if nrm == 0:
        raise ValueError("cannot normalise the zero field")
    return WaveField(grid, v / nrm, normalized=True)


def gradient(values: np.ndarray, spacing: float) -> np.ndarray:
    """First derivative: central differences inside, one-sided at the edges.

    Matches ``numpy.gradient(values, spacing, axis=-1)`` bit for bit; stacked
    rows (shape (..., n), n >= 3) are differentiated row by row in one call.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.inexact):
        values = values.astype(np.float64)
    h = spacing
    n = values.shape[-1]
    out = np.empty_like(values)
    np.subtract(values[..., 2:], values[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2.0 * h
    # both edges at once: columns (1, n-1) minus columns (0, n-2)
    np.subtract(values[..., 1::n - 2], values[..., 0:n - 1:n - 2],
                out=out[..., ::n - 1])
    out[..., ::n - 1] /= h
    return out


def gradient_adjoint(weights: np.ndarray, spacing: float) -> np.ndarray:
    """Transpose of :func:`gradient` as a linear map on node vectors.

    ``gradient(x) @ y == x @ gradient_adjoint(y)`` for all x and y; stacked
    rows (shape (..., n), n >= 3) are transposed row by row.
    """
    # u_i is row i's stencil coefficient: 1/h on the one-sided edge rows,
    # 1/(2h) on the central rows; row i puts -u_i on its left node and
    # +u_i on its right node
    u = weights / spacing
    u[..., 1:-1] *= 0.5
    r = np.empty_like(u)
    np.subtract(u[..., :-2], u[..., 2:], out=r[..., 1:-1])
    r[..., 0] = -(u[..., 0] + u[..., 1])
    r[..., -1] = u[..., -2] + u[..., -1]
    return r


def _dot(a: np.ndarray, b: np.ndarray):
    """``np.vdot`` of 1-D arrays as the in-order sum over fixed slices, each
    one single-threaded BLAS call: the same bytes at any BLAS thread count,
    and those of one ``np.vdot`` up to ``_DOT_SLICE`` elements."""
    if a.size <= _DOT_SLICE:
        return np.vdot(a, b)
    return sum(np.vdot(a[i:i + _DOT_SLICE], b[i:i + _DOT_SLICE])
               for i in range(0, a.size, _DOT_SLICE))


def trapezoid(values: np.ndarray, spacing: float) -> float:
    return float(np.trapezoid(values, dx=spacing))


def trapezoid_weights(n: int, spacing: float) -> np.ndarray:
    w = np.full(n, spacing)
    w[0] = w[-1] = spacing / 2
    return w
