import math

import numpy as np
import pytest

from conefbp.ode import symmetric_solution


def legendre_series(lam, phi, terms=6000):
    """Power series in sin^2(phi/2) solving f'' + cot f' + lam f = 0, f(0)=1.

    Independent of the package integrator: a_{k+1} = a_k (k(k+1) - lam)
    / (k+1)^2 against s^k with s = sin^2(phi/2).
    """
    s = math.sin(0.5 * phi) ** 2
    total = 1.0
    a = 1.0
    for k in range(terms):
        a *= (k * (k + 1) - lam) / ((k + 1) * (k + 1))
        term = a * s ** (k + 1)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def legendre_series_deriv(lam, phi, terms=6000):
    """phi-derivative of ``legendre_series``, term by term.

    d/dphi s^(k+1) = (k+1) s^k sin(phi)/2 with s = sin^2(phi/2).
    """
    s = math.sin(0.5 * phi) ** 2
    total = 0.0
    a = 1.0
    for k in range(terms):
        a *= (k * (k + 1) - lam) / ((k + 1) * (k + 1))
        term = (k + 1) * a * s**k
        total += term
        if k > 0 and abs(term) < 1e-18 * abs(total):
            break
    return 0.5 * math.sin(phi) * total


def edge_apply_slices(u, wr, wp):
    """Row-by-row reference of ``grid.edge_apply``, phi edges as 2-D column slices."""
    out = np.zeros_like(u)
    d = wr * (u[1:, :] - u[:-1, :])
    out[1:, :] += d
    out[:-1, :] -= d
    e = wp * (u[:, 1:] - u[:, :-1])
    out[:, 1:] += e
    out[:, :-1] -= e
    return out


def dense_edge_form(shape, wr, wp):
    """Matrix of the edge form with weights (wr, wp), assembled node by node in row-major order."""
    nr, nphi = shape
    a = np.zeros((nr * nphi, nr * nphi))
    edges = [((i, j), (i + 1, j), wr[i, j]) for i in range(nr - 1) for j in range(nphi)]
    edges += [((i, j), (i, j + 1), wp[i, j]) for i in range(nr) for j in range(nphi - 1)]
    for p, q, w in edges:
        k, m = p[0] * nphi + p[1], q[0] * nphi + q[1]
        a[k, k] += w
        a[m, m] += w
        a[k, m] -= w
        a[m, k] -= w
    return a


def annulus_steklov_quotient(c, R):
    """Exact minimum of the boundary Rayleigh quotient on (1/R, R), zero radial ends.

    Separating F = e^(-rho/2) v(rho) h(phi) in rho = log r, the lowest
    radial mode with v(+-log R) = 0 has mu_R = 1/4 + pi^2 / (4 log^2 R),
    and h solves h'' + cot h' - mu_R/(1+c^2) h = 0, regular at the pole.
    The minimum is sin(phi0) h'(phi0) / (|cos phi0| h(phi0)); R = inf
    gives mu = 1/4, the closed-form stability ratio.  Uses only the
    series oracles in this file, never the package integrator.
    """
    one = 1.0 + c * c
    phi0 = series_phi0(c)
    mu = 0.25 + math.pi**2 / (4.0 * math.log(R) ** 2)
    lam = -mu / one
    h = legendre_series(lam, phi0)
    hp = legendre_series_deriv(lam, phi0)
    return math.sin(phi0) * hp / (abs(math.cos(phi0)) * h)


def series_energy_and_weiss(c, nodes=48):
    """Energy and Weiss monitor of the symmetric solution u = r f(phi), from the series alone.

    f is the degree-one series profile scaled so that f'(phi0) = -1, the
    free-boundary condition |grad u| = 1.  Returns (E, W): the energy on
    the unit ball of the cone,

        E = (2 pi sqrt(1+c^2)/3) [int_0^phi0 (f^2/(1+c^2) + f'^2) sin dphi + 1 - cos phi0],

    with the integral by Gauss-Legendre on ``nodes`` points, and the
    monitor W = (2 pi sqrt(1+c^2)/3)(1 - cos phi0), the same at every
    radius: for a harmonic one-homogeneous u the Dirichlet integral
    cancels the surface term and leaves the positivity volume.
    """
    one = 1.0 + c * c
    lam = 2.0 / one
    phi0 = series_phi0(c)
    scale = -1.0 / legendre_series_deriv(lam, phi0)
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = 0.5 * phi0 * (x + 1.0)
    f = scale * np.array([legendre_series(lam, p) for p in phi])
    fp = scale * np.array([legendre_series_deriv(lam, p) for p in phi])
    bulk = 0.5 * phi0 * float(np.sum(w * (f * f / one + fp * fp) * np.sin(phi)))
    volume = 2.0 * math.pi * math.sqrt(one) / 3.0 * (1.0 - math.cos(phi0))
    return 2.0 * math.pi * math.sqrt(one) / 3.0 * bulk + volume, volume


def series_zero(lam, lo, hi, iters=100):
    """Bisection zero of the series solution; oracle for first_zero.

    Raises ValueError unless the series changes sign on [lo, hi].
    """
    if (legendre_series(lam, lo) > 0.0) == (legendre_series(lam, hi) > 0.0):
        raise ValueError(f"series has the same sign at both ends of ({lo}, {hi})")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if legendre_series(lam, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def series_phi0(c):
    """Series zero of the degree-one profile at slope c, for 0 <= c <= 2.8.

    phi0 runs from pi/2 at c = 0 to 3.0 near c = 2.8; beyond that the
    bracket (1, 3) holds no zero and series_zero refuses it.
    """
    return series_zero(2.0 / (1.0 + c * c), 1.0, 3.0)


def series_critical_c0(lo=0.3, hi=1.0, tol=1e-12):
    """Critical slope from the series oracles alone, by bisection.

    The margin g'(phi0) - H1 g(phi0) has H1 = -cot(phi0), phi0 the series
    zero of the degree-one profile and g the series profile at
    lam = -1/(4(1+c^2)) (exponent -1/2); it is positive below c0.
    """

    def margin(c):
        one = 1.0 + c * c
        phi0 = series_phi0(c)
        lam = -0.25 / one
        return legendre_series_deriv(lam, phi0) + legendre_series(lam, phi0) / math.tan(phi0)

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_rk4(y, yp, h, p, q):
    """Reference RK4 for y'' = p y' + q y, one scalar stage loop per step.

    p and q are sequences of the coefficients at the half-step nodes
    x0, x0 + h/2, x0 + h, ... (2n+1 of them for n steps).  Independent of
    the package kernel, which builds and applies step matrices; returns
    lists of y and y' at the n+1 step nodes.
    """
    ys = [y]
    yps = [yp]
    for k in range(0, len(p) - 2, 2):
        p0, pm, p1 = p[k : k + 3]
        q0, qm, q1 = q[k : k + 3]
        l1 = p0 * yp + q0 * y
        y2 = y + 0.5 * h * yp
        p2 = yp + 0.5 * h * l1
        l2 = pm * p2 + qm * y2
        y3 = y + 0.5 * h * p2
        p3 = yp + 0.5 * h * l2
        l3 = pm * p3 + qm * y3
        y4 = y + h * p3
        p4 = yp + h * l3
        l4 = p1 * p4 + q1 * y4
        y = y + h / 6.0 * (yp + 2.0 * (p2 + p3) + p4)
        yp = yp + h / 6.0 * (l1 + 2.0 * (l2 + l3) + l4)
        ys.append(y)
        yps.append(yp)
    return ys, yps


@pytest.fixture(scope="session")
def sol01():
    return symmetric_solution(0.1)


@pytest.fixture(scope="session")
def sol03():
    return symmetric_solution(0.3)


@pytest.fixture(scope="session")
def sol05():
    return symmetric_solution(0.5)


@pytest.fixture(scope="session")
def series_energy():
    """``series_energy_and_weiss`` at c = 0.1 and 0.3, keyed by c, computed once."""
    return {c: series_energy_and_weiss(c) for c in (0.1, 0.3)}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
