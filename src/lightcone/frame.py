"""Moving-frame integration and surface assembly.

The frame F solves dF = M(w) F dw with

    M(w) = [[G, -G^2], [1, -G]] * omega(w),

and the surface is X = F f3 F*.  M is trace free and rank one, so det F is
constant along any path; |det F - 1| is tracked as the integrator's primary
accuracy sentinel and is never silently repaired (an explicit renormalization
flag exists for experiments).

Each RK4 step is step-doubled (one step of h against two of h/2).  The nine
evaluations of M this takes fall on six bit-distinct points, w, w+h/4,
w+h/2, w+h and two past the midpoint, so each is evaluated once, and M(w)
is kept across rejected retries: 6 evaluations per step, 5 per retry.

Grids are integrated deterministically in one thread: a sweep along the
real axis from the middle u-node, then each column vertically.  (The
integrator is pure Python and holds the GIL, so a thread pool gains
nothing.)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bjorling import BjorlingData, WeierstrassData, weierstrass_from_bjorling
from .errors import IntegrationError, StiffnessError
from .lorentz import F3, adjoint, frame_from_point, hermitize

__all__ = [
    "EPS_LOC", "H_MAX", "GridSpec", "IntegrationStats", "SurfaceGrid",
    "integrate_frame", "solve_bjorling",
]

EPS_LOC = 1e-10   # local error budget per unit arclength
H_MAX = 1.0 / 64  # cap on the RK4 step
_H_MIN = 1e-12

Mat4 = tuple[complex, complex, complex, complex]  # (m11, m12, m21, m22)


def _finite(m: Mat4) -> bool:
    return all(cmath.isfinite(z) for z in m)


@dataclass
class IntegrationStats:
    steps: int = 0
    rejected: int = 0
    max_det_drift: float = 0.0
    min_step: float = math.inf


def _det(f: Mat4) -> complex:
    return f[0] * f[3] - f[1] * f[2]


def _rk4(f: Mat4, hc: complex, m_a: Mat4, m_b: Mat4, m_c: Mat4) -> Mat4:
    """One classical RK4 step of dF = M F dw over hc, given M at the start,
    the midpoint and the end of the step."""
    f11, f12, f21, f22 = f
    half = 0.5 * hc
    a11, a12, a21, a22 = m_a
    k1_11 = a11 * f11 + a12 * f21
    k1_12 = a11 * f12 + a12 * f22
    k1_21 = a21 * f11 + a22 * f21
    k1_22 = a21 * f12 + a22 * f22
    y11, y12 = f11 + half * k1_11, f12 + half * k1_12
    y21, y22 = f21 + half * k1_21, f22 + half * k1_22
    b11, b12, b21, b22 = m_b
    k2_11 = b11 * y11 + b12 * y21
    k2_12 = b11 * y12 + b12 * y22
    k2_21 = b21 * y11 + b22 * y21
    k2_22 = b21 * y12 + b22 * y22
    y11, y12 = f11 + half * k2_11, f12 + half * k2_12
    y21, y22 = f21 + half * k2_21, f22 + half * k2_22
    k3_11 = b11 * y11 + b12 * y21
    k3_12 = b11 * y12 + b12 * y22
    k3_21 = b21 * y11 + b22 * y21
    k3_22 = b21 * y12 + b22 * y22
    y11, y12 = f11 + hc * k3_11, f12 + hc * k3_12
    y21, y22 = f21 + hc * k3_21, f22 + hc * k3_22
    c11, c12, c21, c22 = m_c
    k4_11 = c11 * y11 + c12 * y21
    k4_12 = c11 * y12 + c12 * y22
    k4_21 = c21 * y11 + c22 * y21
    k4_22 = c21 * y12 + c22 * y22
    sixth = hc / 6.0
    return (f11 + sixth * (k1_11 + 2 * k2_11 + 2 * k3_11 + k4_11),
            f12 + sixth * (k1_12 + 2 * k2_12 + 2 * k3_12 + k4_12),
            f21 + sixth * (k1_21 + 2 * k2_21 + 2 * k3_21 + k4_21),
            f22 + sixth * (k1_22 + 2 * k2_22 + 2 * k3_22 + k4_22))


def integrate_frame(wd: WeierstrassData, f0: np.ndarray, path,
                    eps_loc: float = EPS_LOC, h_max: float = H_MAX,
                    renormalize_det: bool = False,
                    stats: IntegrationStats | None = None) -> np.ndarray:
    """Integrate dF = M(w) F dw along straight segments between waypoints.

    Classical RK4 with step doubling: each step of arclength h is accepted
    once the Richardson error estimate |F_(h/2x2) - F_h|/15 drops below
    eps_loc * h, halving h as needed.  M comes from wd.coef_fn, evaluated
    6 times per step and 5 per rejected retry.  Pole hits surface as
    IntegrationError carrying the offending w; h < 1e-12 raises
    StiffnessError.
    """
    coef = wd.coef_fn
    f = (complex(f0[0, 0]), complex(f0[0, 1]), complex(f0[1, 0]), complex(f0[1, 1]))
    waypoints = [complex(p) for p in path]
    for w_a, w_b in zip(waypoints[:-1], waypoints[1:]):
        seg = w_b - w_a
        length = abs(seg)
        if length < _H_MIN:
            continue  # the frame moves by O(|M| 1e-12), below every budget here
        direction = seg / length
        s = 0.0
        h = min(h_max, length)
        # the final step is cut to the remainder; stop once the remainder is
        # ulp-sized so float cancellation cannot underflow the step control
        while s < length * (1.0 - 1e-14):
            h = min(h, length - s)
            w = w_a + direction * s
            m_w = None  # M(w), kept across rejected retries
            while True:
                if h < _H_MIN:
                    raise StiffnessError("step size underflow", w)
                hc = direction * h
                hh = 0.5 * hc
                w_mid = w + hh
                try:
                    if m_w is None:
                        m_w = coef(w)
                    m_mid = coef(w_mid)
                    m_end = coef(w + hc)
                    big = _rk4(f, hc, m_w, m_mid, m_end)
                    # the two half steps, each with its points computed as a
                    # half step from its own start, as the full step's are
                    half = _rk4(f, hh, m_w, coef(w + 0.5 * hh), m_mid)
                    two = _rk4(half, hh, m_mid, coef(w_mid + 0.5 * hh), coef(w_mid + hh))
                except (ZeroDivisionError, ValueError, OverflowError) as exc:
                    raise IntegrationError(f"coefficient evaluation failed: {exc}", w) from exc
                if not (_finite(big) and _finite(two)):
                    raise IntegrationError("frame became non-finite", w)
                err = max(abs(two[0] - big[0]), abs(two[1] - big[1]),
                          abs(two[2] - big[2]), abs(two[3] - big[3])) / 15.0
                # the estimate cannot resolve below roundoff in the frame
                # entries; without the floor, short remainder steps on large
                # frames would reject forever
                budget = eps_loc * h + 4e-15 * max(1.0, abs(f[0]), abs(f[1]),
                                                   abs(f[2]), abs(f[3]))
                if err <= budget:
                    break
                h *= 0.5
                if stats is not None:
                    stats.rejected += 1
            f = two
            s += h
            if stats is not None:
                stats.steps += 1
                stats.min_step = min(stats.min_step, h)
            if err <= budget / 64.0:
                h = min(2.0 * h, h_max)
        drift = abs(_det(f) - 1.0)
        if stats is not None:
            stats.max_det_drift = max(stats.max_det_drift, drift)
        if renormalize_det:
            root = cmath.sqrt(_det(f))
            f = (f[0] / root, f[1] / root, f[2] / root, f[3] / root)
    return np.array([[f[0], f[1]], [f[2], f[3]]], dtype=complex)


@dataclass(frozen=True)
class GridSpec:
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    n_u: int
    n_v: int

    def __post_init__(self):
        if self.n_u < 2 or self.n_v < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    def u_nodes(self) -> np.ndarray:
        return np.linspace(self.u_range[0], self.u_range[1], self.n_u)

    def v_nodes(self) -> np.ndarray:
        return np.linspace(self.v_range[0], self.v_range[1], self.n_v)


@dataclass
class SurfaceGrid:
    """(u, v) lattice carrying the frame, the surface, and diagnostics slots.

    Arrays are indexed [iv, iu].  Diagnostics arrays start as NaN and are
    filled by lightcone.diagnostics.grid_diagnostics.
    """

    u: np.ndarray
    v: np.ndarray
    F: np.ndarray            # (n_v, n_u, 2, 2) complex, NaN where invalid
    X: np.ndarray            # (n_v, n_u, 2, 2) complex Hermitian
    valid: np.ndarray        # (n_v, n_u) bool
    det_drift: np.ndarray    # |det F - 1|
    wd: WeierstrassData | None = None
    boundary_curve_residual: np.ndarray | None = None    # ||X(u,0) - gamma(u)||
    boundary_tangent_residual: np.ndarray | None = None  # ||X_v(u,0) - L(u)||
    phi2: np.ndarray = None
    H: np.ndarray = None
    K: np.ndarray = None
    conformality_defect: np.ndarray = None
    gauss_residual: np.ndarray = None
    lightlike_residual: np.ndarray = None
    second_form_imag: np.ndarray = None

    def __post_init__(self):
        shape = self.valid.shape
        for name in ("phi2", "H", "K", "conformality_defect",
                     "gauss_residual", "lightlike_residual", "second_form_imag"):
            if getattr(self, name) is None:
                setattr(self, name, np.full(shape, np.nan))

    @property
    def n_u(self) -> int:
        return len(self.u)

    @property
    def n_v(self) -> int:
        return len(self.v)


def solve_bjorling(data: BjorlingData, grid: GridSpec,
                   wd: WeierstrassData | None = None,
                   initial_twist: np.ndarray | None = None,
                   eps_loc: float = EPS_LOC, h_max: float = H_MAX,
                   renormalize_det: bool = False) -> SurfaceGrid:
    """Solve the boundary problem X(u,0) = gamma(u), X_v(u,0) = L(u) on a grid.

    The initial frame F(u0) comes from the rank-one factorization of
    gamma(u0) at the middle u-node; initial_twist right-multiplies it (the
    surface is invariant whenever the twist fixes f3, which is the gauge
    test).  Integration failures mark nodes invalid instead of aborting.
    """
    if wd is None:
        wd = weierstrass_from_bjorling(data)
    u_nodes = grid.u_nodes()
    v_nodes = grid.v_nodes()
    n_u, n_v = grid.n_u, grid.n_v
    f_grid = np.full((n_v, n_u, 2, 2), np.nan, dtype=complex)
    x_grid = np.full((n_v, n_u, 2, 2), np.nan, dtype=complex)
    valid = np.zeros((n_v, n_u), dtype=bool)
    drift = np.full((n_v, n_u), np.nan)

    gamma = data.gamma.eval(u_nodes)
    i0 = n_u // 2
    if not np.isfinite(gamma[i0]).all():
        raise IntegrationError("gamma is not finite at the middle u-node", u_nodes[i0])
    f_mid = frame_from_point(hermitize(gamma[i0]))
    if initial_twist is not None:
        f_mid = f_mid @ initial_twist

    # sweep along the real axis, outwards from the middle node
    f_axis = np.full((n_u, 2, 2), np.nan, dtype=complex)
    f_axis[i0] = f_mid
    for step in (1, -1):
        f_cur = f_mid
        i = i0
        while 0 <= i + step < n_u:
            try:
                f_cur = integrate_frame(wd, f_cur, [u_nodes[i], u_nodes[i + step]],
                                        eps_loc=eps_loc, h_max=h_max,
                                        renormalize_det=renormalize_det)
            except IntegrationError:
                break
            i += step
            f_axis[i] = f_cur
    axis_ok = np.isfinite(f_axis).all(axis=(-2, -1))

    # boundary residuals along the seam: NaN where the axis frame, the data
    # or M is not finite there
    g, om = wd.jet_fn(u_nodes)[:2]
    with np.errstate(all="ignore"):
        x_axis = hermitize(f_axis @ F3 @ adjoint(f_axis))
        curve_res = np.max(np.abs(x_axis - hermitize(gamma)), axis=(-2, -1))
        m11 = g * om
        mx = np.stack([m11, -(g * m11), om, -m11], axis=-1).reshape(n_u, 2, 2) @ x_axis
        x_v = 1j * (mx - adjoint(mx))
        tangent_res = np.max(np.abs(x_v - hermitize(data.tangent.eval(u_nodes))),
                             axis=(-2, -1))

    # vertical columns, each from its axis node, up and down from the seam
    order = _column_order(v_nodes)
    for iu in range(n_u):
        if not axis_ok[iu]:
            continue
        u_i = float(u_nodes[iu])
        for sweep in order:
            f_cur = f_axis[iu]
            v_prev = 0.0
            for iv in sweep:
                try:
                    f_cur = integrate_frame(
                        wd, f_cur, [complex(u_i, v_prev), complex(u_i, v_nodes[iv])],
                        eps_loc=eps_loc, h_max=h_max,
                        renormalize_det=renormalize_det)
                except IntegrationError:
                    break
                v_prev = float(v_nodes[iv])
                f_grid[iv, iu] = f_cur
                x_grid[iv, iu] = hermitize(f_cur @ F3 @ f_cur.conj().T)
                drift[iv, iu] = abs(f_cur[0, 0] * f_cur[1, 1]
                                    - f_cur[0, 1] * f_cur[1, 0] - 1.0)
                valid[iv, iu] = True

    return SurfaceGrid(u=u_nodes, v=v_nodes, F=f_grid, X=x_grid, valid=valid,
                       det_drift=drift, wd=wd,
                       boundary_curve_residual=curve_res,
                       boundary_tangent_residual=tangent_res)


def _column_order(v_nodes: np.ndarray):
    """Split node indices into the two sweeps away from v = 0, in order."""
    up = [iv for iv in range(len(v_nodes)) if v_nodes[iv] >= 0]
    down = [iv for iv in range(len(v_nodes)) if v_nodes[iv] < 0]
    up.sort(key=lambda iv: v_nodes[iv])
    down.sort(key=lambda iv: -v_nodes[iv])
    return (up, down)
