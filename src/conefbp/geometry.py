"""Exact geometry of the cone x4 = c|x| in R^4 and of spherical caps.

This module provides spherical cap areas and curvatures with their
Gauss-Bonnet audit, the homogeneity exponent of separated harmonics of
the cone, and the classical threshold for a plane through the vertex
of a k-dimensional cone to be area minimizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, as_slope

__all__ = [
    "CapGeometry",
    "homogeneity_exponent",
    "cap_geometry",
    "morgan_threshold",
    "is_minimizing",
]


def homogeneity_exponent(c) -> float:
    """Positive root of a(a+1) = 2/(1+c^2).

    Lies in (0, 1] and equals 1 exactly when the cone is flat (c = 0).
    """
    c = as_slope(c)
    return 0.5 * (-1.0 + math.sqrt(1.0 + 8.0 / (1.0 + c * c)))


@dataclass(frozen=True)
class CapGeometry:
    """Geometry of the spherical cap {phi < phi0} and its complement."""

    phi0: float
    t0: float
    H1: float
    kappa: float
    areaU: float
    areaV: float
    boundary_length: float


def cap_geometry(phi0: float) -> CapGeometry:
    """Areas and curvatures of the latitude cap at polar angle phi0.

    kappa is the geodesic curvature of the latitude circle signed with
    respect to the complement cap V = {phi > phi0}; with this convention
    the Gauss-Bonnet identity areaV + kappa * length = 2 pi holds and
    kappa agrees with the radius-one mean curvature H1 = -cot(phi0) of
    the cone over the circle.  The cap area is the closed form
    2 pi (1 - cos(phi0)).
    """
    phi0 = float(phi0)
    if not 0.0 < phi0 < math.pi:
        raise InvalidParameterError(f"cap angle must lie in (0, pi), got {phi0!r}")
    t0 = math.cos(phi0)
    s0 = math.sin(phi0)
    h1 = -t0 / s0
    area_u = 2.0 * math.pi * (1.0 - t0)
    return CapGeometry(
        phi0=phi0,
        t0=t0,
        H1=h1,
        kappa=h1,
        areaU=area_u,
        areaV=4.0 * math.pi - area_u,
        boundary_length=2.0 * math.pi * s0,
    )


def _check_plane_dimension(k) -> int:
    if not float(k).is_integer():
        raise InvalidParameterError(f"plane dimension must be an integer, got {k!r}")
    k = int(k)
    if k < 2:
        raise InvalidParameterError(f"plane dimension must be >= 2, got {k}")
    return k


def morgan_threshold(k) -> float:
    """Largest slope at which a k-plane through the vertex is minimizing.

    Solves delta^2 = 4(k-1)/k^2 under delta = 1/sqrt(1+c^2), giving
    (k-2)/(2 sqrt(k-1)).  The value degenerates to 0 at k = 2, where the
    minimality predicate is false for every slope.
    """
    k = _check_plane_dimension(k)
    return (k - 2.0) / (2.0 * math.sqrt(k - 1.0))


def is_minimizing(k, c) -> bool:
    """Whether a k-plane through the vertex of the slope-c cone minimizes area."""
    k = _check_plane_dimension(k)
    c = as_slope(c)
    if k < 3:
        return False
    return c <= morgan_threshold(k)
