"""Finite-difference oracle for the Robin spectrum, used by the tests only.

A uniform grid with endpoints discretizes -phi'' on [-L/2, L/2]; the Robin
closure eliminates a ghost point at each wall with lumped half-weight end
cells, and a diagonal similarity makes the generalized problem a symmetric
tridiagonal matrix, solved by scipy.  The eigenvalues carry O(h^2) error;
`fd_eigenvalues_richardson` removes the leading term.
"""

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from robinbec.errors import ValidationError
from robinbec.spectrum import BoxParams, Mode, eigenfunction_eval


def fd_eigenvalues_raw(sigma: float, L: float, grid_points: int, n_modes: int) -> np.ndarray:
    """Lowest eigenvalues of the discretized operator; sigma <= 0 allowed
    (sigma = 0 reproduces the Neumann box and is used as a sanity case).

    Uniform grid with endpoints, ghost-point Robin closure, half-weight
    end cells; the generalized problem is symmetrized by the diagonal
    similarity, so the matrix stays tridiagonal symmetric.
    """
    if grid_points < 100:
        raise ValidationError(f"grid_points must be >= 100, got {grid_points}")
    if n_modes < 1 or n_modes > grid_points:
        raise ValidationError("n_modes must be in [1, grid_points]")
    if not (math.isfinite(sigma) and sigma <= 0.0):
        raise ValidationError(f"sigma must be <= 0, got {sigma}")
    if not (math.isfinite(L) and L > 0.0):
        raise ValidationError(f"L must be > 0, got {L}")
    n = int(grid_points)
    h = L / (n - 1)
    d = np.full(n, 2.0) / h**2
    d[0] += 2.0 * sigma / h
    d[-1] += 2.0 * sigma / h
    e = np.full(n - 1, -1.0) / h**2
    e[0] = -math.sqrt(2.0) / h**2
    e[-1] = -math.sqrt(2.0) / h**2
    return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, int(n_modes) - 1))


def fd_eigenvalues(params: BoxParams, grid_points: int, n_modes: int) -> np.ndarray:
    """First `n_modes` eigenvalue estimates with O(h^2) error."""
    return fd_eigenvalues_raw(params.sigma, params.L, grid_points, n_modes)


def fd_eigenvalues_richardson(params: BoxParams, grid_points: int, n_modes: int) -> np.ndarray:
    """Richardson extrapolation over grids (N, 2N-1), removing the h^2 term."""
    coarse = fd_eigenvalues(params, grid_points, n_modes)
    fine = fd_eigenvalues(params, 2 * int(grid_points) - 1, n_modes)
    return (4.0 * fine - coarse) / 3.0


def boundary_residual_scale(mode: Mode, params: BoxParams) -> float:
    """Scale for judging `Mode.residual`: max(1, |sigma| * |phi(L/2)|)."""
    phi_wall = abs(eigenfunction_eval(mode, params, params.half))
    return max(1.0, params.s * phi_wall)
