"""Spatial density diagnostics.

n_total(x) = sum_k occ_k |phi_k(x)|^2, split into the wall-mode
(condensate) part k in {0, 1} and the thermal remainder k >= 2.  The
profiles inherit the reflection symmetry of |phi_k|^2, and their grid is
built mirror-symmetric so that the symmetry holds to the last bit.

`localization_radius` quantifies the surface character of the wall-mode
density: the smallest distance d from a wall such that the windows within
d of either wall hold a requested fraction of the condensate mass.  For
wall-hugging profiles it stays O(1/|sigma|) while the total condensate
number grows linearly in L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectrum import SpectrumTable, eigenfunction_eval
from .thermo import ThermoState

_trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


class EmptyCondensate(ValidationError):
    """Localization radius of an identically-zero condensate profile."""


@dataclass(frozen=True, eq=False)
class Profile:
    """Densities on a symmetric grid; n_cond + n_thermal = n_total."""

    grid: np.ndarray
    n_total: np.ndarray
    n_cond: np.ndarray
    n_thermal: np.ndarray
    weights: np.ndarray


def _symmetric_grid(L: float, grid_n: int) -> np.ndarray:
    x = np.linspace(-0.5 * L, 0.5 * L, grid_n)
    return 0.5 * (x - x[::-1])  # exact mirror pairs, endpoints exact


def density_profile(spectrum: SpectrumTable, state: ThermoState, grid_n: int) -> Profile:
    """Mode-sum of occ_k |phi_k|^2 on a `grid_n`-point symmetric grid."""
    if grid_n < 64:
        raise ValidationError(f"grid_n must be >= 64, got {grid_n}")
    if spectrum.params != state.params.box:
        raise ValidationError("spectrum and state describe different boxes")
    occ = np.asarray(state.occ, dtype=float)
    if spectrum.k_max + 1 < len(occ):
        raise ValidationError("spectrum table does not cover all occupied modes")
    x = _symmetric_grid(state.params.box.L, int(grid_n))
    n_cond = np.zeros_like(x)
    n_thermal = np.zeros_like(x)
    for k, w in enumerate(occ):
        if w == 0.0:
            continue
        phi = eigenfunction_eval(spectrum.modes[k], spectrum.params, x)
        contrib = w * phi * phi
        if k < 2:
            n_cond += contrib
        else:
            n_thermal += contrib
    return Profile(
        grid=x,
        n_total=n_cond + n_thermal,
        n_cond=n_cond,
        n_thermal=n_thermal,
        weights=occ.copy(),
    )


def profile_mass(profile: Profile, which: str = "total") -> float:
    """Trapezoid integral of one density component over the box."""
    comp = {"total": profile.n_total, "cond": profile.n_cond, "thermal": profile.n_thermal}
    if which not in comp:
        raise ValidationError(f"which must be one of {sorted(comp)}, got {which!r}")
    return float(_trapezoid(comp[which], profile.grid))


def localization_radius(profile: Profile, fraction: float) -> float:
    """Smallest d with condensate mass within d of either wall >= fraction
    of the total condensate mass.

    Uses the right-wall cumulative integral F(t) = int_t^{L/2} n_cond dx;
    by symmetry the two-wall mass at distance d is 2 F(L/2 - d), and the
    target crossing is interpolated on the trapezoid cumulative.
    """
    if not (0.0 < fraction < 1.0):
        raise ValidationError(f"fraction must be in (0, 1), got {fraction}")
    x = profile.grid
    nc = profile.n_cond
    if not np.any(nc > 0.0):
        raise EmptyCondensate("condensate profile is identically zero")
    seg = 0.5 * (nc[1:] + nc[:-1]) * np.diff(x)
    # F[j] = integral from x[j] to the right wall
    F = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    total = F[0]
    target = 0.5 * fraction * total
    # F decreases along j; find the last j with F[j] >= target
    j = int(np.searchsorted(-F, -target, side="right")) - 1
    j = max(0, min(j, len(x) - 2))
    f_hi, f_lo = F[j], F[j + 1]
    if f_hi == f_lo:
        t = x[j]
    else:
        t = x[j] + (f_hi - target) / (f_hi - f_lo) * (x[j + 1] - x[j])
    half = 0.5 * (x[-1] - x[0])
    return float(min(max(x[-1] - t, 0.0), half))


def write_profile_csv(profile: Profile, path, comment_lines=()) -> None:
    """CSV rows `x,n_total,n_cond,n_thermal` at 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        fh.write("x,n_total,n_cond,n_thermal\n")
        for i in range(len(profile.grid)):
            fh.write(
                f"{profile.grid[i]:.17g},{profile.n_total[i]:.17g},"
                f"{profile.n_cond[i]:.17g},{profile.n_thermal[i]:.17g}\n"
            )
