"""Phase-space containers for the reduced spherical representation.

A spherically symmetric collisionless system is represented by a finite
collection of shell particles.  Each shell carries a radius r > 0, a
radial momentum w = x.p / r, the conserved magnitude ell = |x ^ p| of
specific angular momentum, and a mass weight.  Units fix 4*pi*G = 1, so
the Poisson equation reads Laplacian(U) = rho and the inward radial
force on a shell is M(<r) / (4 pi r^2).

By construction the represented distribution is exactly spherically
symmetric: the total linear momentum and the total angular momentum
vector vanish, and the centre of mass sits at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Ensemble",
    "RadialDensityProfile",
    "DiagnosticsRecord",
]


def _as_readonly(values, name, n=None):
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    if n is not None and arr.size != n:
        raise DomainError(f"{name} must have length {n}, got {arr.size}")
    arr.setflags(write=False)
    return arr


class Ensemble:
    """A time-stamped, immutable collection of shell particles.

    Parameters
    ----------
    time : float
        Simulation time of the snapshot.
    r, w, ell, mass : array_like
        Per-particle radius, radial momentum, angular momentum
        magnitude and mass weight.  All four must share one length.
    group : array_like of str, optional
        Opaque subpopulation labels of any length (e.g. "shell",
        "core") used by scenario-aware diagnostics.  Defaults to "" for
        every particle.
    """

    __slots__ = ("time", "r", "w", "ell", "mass", "group", "_total_mass")

    def __init__(self, time, r, w, ell, mass, group=None):
        self.time = float(time)
        self.r = _as_readonly(r, "r")
        n = self.r.size
        if n == 0:
            raise DomainError("an ensemble must contain at least one particle")
        self.w = _as_readonly(w, "w", n)
        self.ell = _as_readonly(ell, "ell", n)
        self.mass = _as_readonly(mass, "mass", n)
        if group is None:
            grp = np.full(n, "")
        else:
            grp = np.array(group, dtype=str).reshape(-1)
            if grp.size != n:
                raise DomainError(f"group must have length {n}, got {grp.size}")
        grp.setflags(write=False)
        self.group = grp

        for name in ("r", "w", "ell", "mass"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"{name} contains non-finite values")
        if np.any(self.r <= 0.0):
            raise DomainError("all radii must be positive")
        if np.any(self.mass <= 0.0):
            raise DomainError("all masses must be positive")
        if np.any(self.ell < 0.0):
            raise DomainError("angular momentum magnitudes must be >= 0")
        self._total_mass = float(np.sum(self.mass))

    @property
    def n(self):
        return self.r.size

    @property
    def total_mass(self):
        """Total mass, accumulated with numpy's pairwise summation."""
        return self._total_mass


@dataclass(frozen=True)
class RadialDensityProfile:
    """Binned estimate of the mass density rho(r).

    `bin_edges` has one more entry than `bin_density`; edges increase
    and start at 0.  The density is constant inside each spherical
    shell, so the binned mass is sum_k density_k * (4 pi / 3) *
    (edge_{k+1}^3 - edge_k^3).
    """

    bin_edges: np.ndarray
    bin_density: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        dens = np.asarray(self.bin_density, dtype=np.float64)
        if edges.ndim != 1 or dens.ndim != 1 or edges.size != dens.size + 1:
            raise DomainError("profile needs n+1 edges for n bins")
        if edges[0] < 0.0 or np.any(np.diff(edges) <= 0.0):
            raise DomainError("bin edges must increase and start at >= 0")
        if np.any(dens < 0.0):
            raise DomainError("densities must be >= 0")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "bin_density", dens)

    def binned_mass(self):
        edges = self.bin_edges
        vol = (4.0 * np.pi / 3.0) * (edges[1:] ** 3 - edges[:-1] ** 3)
        return float(np.sum(self.bin_density * vol))


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time sample of every conserved or monitored quantity, as the
    simulator records it (the Kurth table is built as columns, with no
    record).

    A None cell (`energy_kinetic`, `energy_potential`, the moments) is
    written empty; `energy_total` is always set and, when the split is
    present, equals kinetic - potential exactly as computed.
    """

    time: float
    energy_total: float
    energy_kinetic: float | None
    energy_potential: float | None
    mass: float
    variance: float
    dilation_moment: float | None
    conformal_moment: float | None
    inner_radius: float
    outer_radius: float
    inner_radius_shell: float
    concentration: tuple  # ((R, M_R), ...)
    lq_norms: tuple  # ((q, norm), ...)
