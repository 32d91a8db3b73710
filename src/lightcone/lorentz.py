"""Hermitian-matrix model of Lorentz 4-space and the positive light cone.

A point (t, x, y, z) with signature (-,+,+,+) is identified with the
Hermitian matrix [[t+z, x+iy], [x-iy, t-z]]; under this identification the
quadratic form is -det, and the light cone Q3+ is {X : det X = 0, tr X > 0}.
Matrices are plain 2x2 complex numpy arrays throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, DomainError, ValidationError

__all__ = [
    "Vec4", "F0", "F1", "F2", "F3", "E3",
    "mat2", "herm", "vec_to_herm", "herm_to_vec", "hermitize", "require_hermitian",
    "det2", "adjoint", "minkowski_inner", "norm_sq",
    "is_lightcone_point", "frame_from_point", "stereographic_project",
    "signed_area_sq", "signed_area_sign",
]

HERM_TOL = 1e-12          # relative symmetrization tolerance for Herm2
LIGHTCONE_TOL = 1e-8      # default |det X| tolerance for membership in Q3+


class Vec4(NamedTuple):
    t: float
    x: float
    y: float
    z: float


def mat2(m11, m12, m21, m22) -> np.ndarray:
    return np.array([[m11, m12], [m21, m22]], dtype=complex)


def herm(m11: float, m12: complex, m22: float) -> np.ndarray:
    """Hermitian matrix from its independent entries (m21 = conj(m12))."""
    return np.array([[m11, m12], [np.conj(m12), m22]], dtype=complex)


# basis of L4 in the Hermitian model
F0 = mat2(0, 0, 0, -2)     # (-1, 0, 0, 1)
F1 = mat2(0, 1, 1, 0)      # (0, 1, 0, 0)
F2 = mat2(0, 1j, -1j, 0)   # (0, 0, 1, 0)
F3 = mat2(1, 0, 0, 0)      # (1/2, 0, 0, 1/2)
E3 = mat2(1, 0, 0, -1)     # (0, 0, 0, 1), the z-direction unit vector


def _first(bad: np.ndarray):
    """Index of the first True node of a mask, or None; () for one point."""
    if not np.any(bad):
        return None
    return np.unravel_index(np.argmax(bad), bad.shape)


def _at(idx: tuple) -> str:
    return f" at node {tuple(int(i) for i in idx)}" if idx else ""


def require_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> None:
    """Raise ValidationError naming the violating entry if m is not Hermitian.

    A (..., 2, 2) stack is checked node by node; the error names the first
    node that fails (in C order) and its first violating entry.
    """
    bound = tol * (1.0 + np.max(np.abs(m), axis=(-2, -1)))
    m11_bad = np.abs(m[..., 0, 0].imag) > bound
    m22_bad = np.abs(m[..., 1, 1].imag) > bound
    m21_bad = np.abs(m[..., 1, 0] - np.conj(m[..., 0, 1])) > bound
    idx = _first(m11_bad | m22_bad | m21_bad)
    if idx is None:
        return
    node, where = m[idx], _at(idx)
    if m11_bad[idx]:
        raise ValidationError(f"entry m11 = {node[0, 0]} is not real{where}")
    if m22_bad[idx]:
        raise ValidationError(f"entry m22 = {node[1, 1]} is not real{where}")
    raise ValidationError(f"entry m21 = {node[1, 0]} is not the conjugate of "
                          f"m12 = {node[0, 1]}{where}")


def hermitize(m: np.ndarray) -> np.ndarray:
    """Project onto Hermitian form: real diagonal, m21 = conj(m12); a
    (..., 2, 2) stack node by node.

    Used after arithmetic on values that are Hermitian by construction, to
    keep roundoff drift out of downstream invariant checks.
    """
    out = np.array(m, dtype=complex)
    out[..., 1, 0] = np.conj(m[..., 0, 1])
    out.imag[..., 0, 0] = out.imag[..., 1, 1] = 0.0
    return out


def vec_to_herm(v: Vec4) -> np.ndarray:
    t, x, y, z = v
    return np.array([[t + z, x + 1j * y], [x - 1j * y, t - z]], dtype=complex)


def herm_to_vec(m: np.ndarray, tol: float = HERM_TOL) -> Vec4:
    """(t, x, y, z) of a Hermitian matrix; for a (..., 2, 2) stack, a Vec4
    of arrays with the same bits node by node."""
    require_hermitian(m, tol)
    # [()] turns the 0-d entries of one point into numpy scalars
    m11, m22, m12 = m[..., 0, 0][()], m[..., 1, 1][()], m[..., 0, 1][()]
    t = 0.5 * (m11.real + m22.real)
    z = 0.5 * (m11.real - m22.real)
    return Vec4(t, m12.real, m12.imag, z)


def det2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def minkowski_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Symmetric bilinear form with <V,V> = -det V; defined on all of M(2,C).

    Polarization of the determinant:
        <V,W> = -(1/2) (det(V+W) - det V - det W)
              = -(1/2) (v11 w22 + v22 w11 - v12 w21 - v21 w12).
    Real (up to roundoff) on Hermitian pairs, where it equals the Minkowski
    product of the corresponding vectors.  Stacked (..., 2, 2) inputs give
    the form node by node.
    """
    return -0.5 * (a[..., 0, 0] * b[..., 1, 1] + a[..., 1, 1] * b[..., 0, 0]
                   - a[..., 0, 1] * b[..., 1, 0] - a[..., 1, 0] * b[..., 0, 1])


def norm_sq(a: np.ndarray) -> complex:
    return -det2(a)


def is_lightcone_point(x: np.ndarray, tol: float = LIGHTCONE_TOL):
    """Membership test for Q3+. Returns (ok, residual) with residual = |det X|."""
    require_hermitian(x)
    residual = abs(det2(x))
    norm2 = float(np.sum(np.abs(x) ** 2))
    ok = residual <= tol * (1.0 + norm2) and (x[0, 0].real + x[1, 1].real) > 0.0
    return ok, residual


def frame_from_point(x: np.ndarray, tol: float = LIGHTCONE_TOL) -> np.ndarray:
    """Some F in SL(2,C) with F f3 F* = x, for x in Q3+.

    x is rank-one positive semidefinite, so x = xi xi*; xi is read off the
    column with the larger norm (better conditioned near the axis points),
    scaled so its pivot entry is the positive square root of the diagonal.
    The second column is the cheapest eta with det[xi, eta] = 1.
    """
    ok, residual = is_lightcone_point(x, tol)
    if not ok:
        raise DomainError(f"point is not on the positive light cone (|det| = {residual:.3e}, "
                          f"tr = {(x[0, 0] + x[1, 1]).real:.3e})")
    col0 = math.hypot(abs(x[0, 0]), abs(x[1, 0]))
    col1 = math.hypot(abs(x[0, 1]), abs(x[1, 1]))
    if col0 >= col1:
        pivot = math.sqrt(max(x[0, 0].real, 0.0))
        xi = np.array([pivot, x[1, 0] / pivot], dtype=complex)
    else:
        pivot = math.sqrt(max(x[1, 1].real, 0.0))
        xi = np.array([x[0, 1] / pivot, pivot], dtype=complex)
    if abs(xi[0]) >= abs(xi[1]):
        eta = np.array([0.0, 1.0 / xi[0]], dtype=complex)
    else:
        eta = np.array([-1.0 / xi[1], 0.0], dtype=complex)
    return np.column_stack([xi, eta])


def stereographic_project(x: np.ndarray) -> tuple[float, float, float]:
    """(x/(1+t), y/(1+t), z/(1+t)); maps Q3+ into the punctured open unit ball.

    A (..., 2, 2) stack gives three arrays with the bits of per-node calls;
    the error names the first node with t <= -1.
    """
    v = herm_to_vec(x)
    idx = _first(v.t <= -1.0)
    if idx is not None:
        raise DomainError(f"stereographic projection undefined at t = {v.t[idx]}{_at(idx)}")
    s = 1.0 / (1.0 + v.t)
    return (v.x * s, v.y * s, v.z * s)


def signed_area_sq(u: np.ndarray, v: np.ndarray) -> float:
    """<U,U><V,V> - <U,V>^2, the squared signed area of a spacelike pair."""
    uu = minkowski_inner(u, u).real
    vv = minkowski_inner(v, v).real
    uv = minkowski_inner(u, v).real
    return uu * vv - uv * uv


def signed_area_sign(base: np.ndarray, u: np.ndarray, v: np.ndarray) -> int:
    """Sign of the oriented area of tangent vectors u, v at a point of Q3+.

    The raw entry combination gamma11*Lambda21 - gamma21*Lambda11 is gauge
    dependent, so the sign is computed in an explicit normalized gauge: move
    base to 2 f3 by an SL(2,C) isometry plus a positive homothety, expand the
    gauged u, v as ell*(2 f3) + b f1 + c f2, and orient by the f1 ^ f2
    component.
    """
    trace = (base[0, 0] + base[1, 1]).real
    if trace <= 0:
        raise DomainError("base point must have positive trace")
    f = frame_from_point(base * (2.0 / trace))
    finv = np.array([[f[1, 1], -f[0, 1]], [-f[1, 0], f[0, 0]]], dtype=complex)
    scale = 4.0 / trace
    gauge = lambda m: scale * (finv @ m @ finv.conj().T)
    gu, gv = gauge(u), gauge(v)
    norm = max(float(np.max(np.abs(gu))), float(np.max(np.abs(gv))), 1.0)
    for name, gm in (("U", gu), ("V", gv)):
        if abs(gm[1, 1]) > 1e-8 * norm:
            raise DegenerateInputError(
                f"{name} is not tangent to the light cone at the base point "
                f"(gauged m22 = {gm[1, 1]:.3e})")
    b, c = gu[0, 1].real, gu[0, 1].imag
    e, fcomp = gv[0, 1].real, gv[0, 1].imag
    area = b * fcomp - c * e
    if abs(area) <= 1e-12 * norm * norm:
        raise DegenerateInputError("tangent vectors have vanishing signed area")
    return 1 if area > 0 else -1
