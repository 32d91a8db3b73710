"""Rotational surfaces of the light cone and their closed forms.

Each family is the orbit of the point [[1,1],[1,1]] under a one-parameter
rotation group (elliptic / hyperbolic / parabolic, by the induced metric on
the fixed plane), completed to boundary data by the unique rotation-invariant
tangent field that passes the orientability check:

    elliptic    L = a gamma - 2 e3          on [0, 2pi]
    hyperbolic  L = b gamma + 2 f2          on [-1, 1]
    parabolic   L = c gamma + f2            on [1/2, 2]

The flipped signs give the inadmissible branch (extraction denominator
vanishes identically).  For the hyperbolic and elliptic families the field
needs the coefficient 2 in front of f2 / e3 so that |L| = |gamma'| = 2.

Closed-form parametrizations are implemented directly from their displayed
matrices; the two reference frames (power type and polynomial type) are kept
as independent ODE oracles rather than being used to build the surfaces.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from . import expr as ex
from .bjorling import BjorlingData, MatrixExpr, WeierstrassData
from .errors import BranchCutWarning, DomainError, ValidationError
from .lorentz import herm, mat2

__all__ = [
    "FAMILIES", "CatenoidSpec", "DEFAULT_PARAMS", "DEFAULT_INTERVALS",
    "rotation", "circle", "catenoid_bjorling_data", "catenoid_entries",
    "catenoid_closed_form", "classification_weierstrass", "power_type_frame",
    "polynomial_type_frame", "nonrotational_entries", "nonrotational_closed_form",
    "nonrotational_extension", "nonrotational_bjorling_data",
    "nonrotational_weierstrass_wchart", "lightlike_circle",
]

FAMILIES = ("elliptic", "hyperbolic", "parabolic")

DEFAULT_PARAMS = {"elliptic": 1.5, "hyperbolic": 1.5, "parabolic": 0.5}
DEFAULT_INTERVALS = {"elliptic": (0.0, 2.0 * math.pi),
                     "hyperbolic": (-1.0, 1.0),
                     "parabolic": (0.5, 2.0)}


class CatenoidSpec:
    """Family plus its real parameter (a, b or c)."""

    __slots__ = ("family", "param")

    def __init__(self, family: str, param: float):
        if family not in FAMILIES:
            raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")
        param = float(param)
        if family == "elliptic" and param == -2.0:
            raise ValidationError("elliptic parameter a = -2 is excluded (G, omega degenerate)")
        if family == "parabolic" and param == 0.0:
            raise ValidationError("parabolic parameter c must be nonzero")
        self.family = family
        self.param = param

    def __repr__(self):
        return f"CatenoidSpec({self.family!r}, {self.param})"


def rotation(family: str, u: float) -> np.ndarray:
    """The one-parameter rotation group element at parameter u."""
    if family == "elliptic":
        return mat2(cmath.exp(1j * u), 0, 0, cmath.exp(-1j * u))
    if family == "hyperbolic":
        return mat2(math.exp(u), 0, 0, math.exp(-u))
    if family == "parabolic":
        return mat2(1, u - 1, 0, 1)
    raise ValidationError(f"unknown family {family!r}")


def circle(family: str, u: float) -> np.ndarray:
    """Orbit of [[1,1],[1,1]]: elliptic/hyperbolic/parabolic circle in Q3+."""
    if family == "elliptic":
        return herm(1.0, cmath.exp(2j * u), 1.0)
    if family == "hyperbolic":
        return herm(math.exp(2 * u), 1.0, math.exp(-2 * u))
    if family == "parabolic":
        return herm(u * u, u, 1.0)
    raise ValidationError(f"unknown family {family!r}")


def _exp_cu(scale: complex) -> ex.ExprAST:
    return ex.call("exp", ex.mul(ex.const(scale), ex.var()))


def catenoid_bjorling_data(spec: CatenoidSpec, flip_tangent_sign: bool = False,
                           samples: int = 33) -> BjorlingData:
    """Expression-level boundary data over one period / reference interval.

    flip_tangent_sign selects the opposite sign of the non-gamma term of the
    tangent field, i.e. the branch that fails the orientability check.
    """
    p = spec.param
    sign = -1.0 if flip_tangent_sign else 1.0
    if spec.family == "elliptic":
        # gamma = [[1, e^{2iu}], [e^{-2iu}, 1]],  L = a gamma -+ 2 e3
        gamma = MatrixExpr(ex.const(1), _exp_cu(2j), _exp_cu(-2j), ex.const(1))
        s = -2.0 * sign
        tangent = MatrixExpr(ex.const(p + s), ex.mul(ex.const(p), _exp_cu(2j)),
                             ex.mul(ex.const(p), _exp_cu(-2j)), ex.const(p - s))
    elif spec.family == "hyperbolic":
        # gamma = [[e^{2u}, 1], [1, e^{-2u}]],  L = b gamma +- 2 f2
        gamma = MatrixExpr(_exp_cu(2), ex.const(1), ex.const(1), _exp_cu(-2))
        tangent = MatrixExpr(ex.mul(ex.const(p), _exp_cu(2)), ex.const(p + 2j * sign),
                             ex.const(p - 2j * sign), ex.mul(ex.const(p), _exp_cu(-2)))
    elif spec.family == "parabolic":
        # gamma = [[u^2, u], [u, 1]],  L = c gamma +- f2
        u = ex.var()
        gamma = MatrixExpr(ex.pow_(u, ex.const(2)), u, u, ex.const(1))
        tangent = MatrixExpr(ex.mul(ex.const(p), ex.pow_(u, ex.const(2))),
                             ex.add(ex.mul(ex.const(p), u), ex.const(1j * sign)),
                             ex.sub(ex.mul(ex.const(p), u), ex.const(1j * sign)),
                             ex.const(p))
    else:
        raise ValidationError(f"unknown family {spec.family!r}")
    return BjorlingData(gamma, tangent, DEFAULT_INTERVALS[spec.family], samples)


def _exp(z):
    """e^z of a complex number (cmath) or of a complex array (numpy's complex
    exp, which gives cmath's bits node by node)."""
    return cmath.exp(z) if isinstance(z, complex) else np.exp(z)


def _real_exp(x):
    """e^x of a float (math.exp) or of a float array, with math.exp's bits
    node by node: numpy's complex exp of x + 0i evaluates the C library's
    exp, while its real exp is a vectorized kernel that can differ from it
    in the last bit."""
    return math.exp(x) if isinstance(x, float) else np.exp(x + 0j).real


def catenoid_entries(spec: CatenoidSpec, u, v) -> tuple:
    """(m11, m12, m22) of the catenoid's closed form at (u, v); u and v are
    floats or broadcastable arrays, with the same bits node by node."""
    p = spec.param
    if spec.family == "elliptic":
        return _real_exp((p - 2) * v), _exp(2j * u + p * v), _real_exp((p + 2) * v)
    if spec.family == "hyperbolic":
        return _real_exp(2 * u + p * v), _exp((p + 2j) * v), _real_exp(-2 * u + p * v)
    if spec.family == "parabolic":
        s = _real_exp(p * v)
        return s * (u * u + v * v), s * (u + 1j * v), s
    raise ValidationError(f"unknown family {spec.family!r}")


def catenoid_closed_form(spec: CatenoidSpec, u: float, v: float) -> np.ndarray:
    """The closed-form parametrization of the catenoid at (u, v)."""
    return herm(*catenoid_entries(spec, u, v))


def classification_weierstrass(spec: CatenoidSpec) -> WeierstrassData:
    """The (G, omega) pair of the family, as expressions in the chart variable."""
    p = spec.param
    if spec.family == "elliptic":
        g = ex.mul(ex.const((p - 2) / (p + 2)), _exp_cu(2j))
        om = ex.mul(ex.const(-1j * (p + 2) ** 2 / 8), _exp_cu(-2j))
    elif spec.family == "hyperbolic":
        g = ex.mul(ex.const((p + 2j) / (p - 2j)), _exp_cu(2))
        om = ex.mul(ex.const((p - 2j) ** 2 / 8), _exp_cu(-2))
    elif spec.family == "parabolic":
        g = ex.add(ex.var(), ex.const(2j / p))
        om = ex.const(p * p / 4)
    else:
        raise ValidationError(f"unknown family {spec.family!r}")
    return WeierstrassData(g, om)


def _principal_power(z: complex, c: complex) -> complex:
    if z == 0:
        raise DomainError("power of zero in closed-form frame")
    return cmath.exp(c * cmath.log(z))


def _warn_branch_cut(z: complex):
    if z != 0 and math.pi - abs(cmath.phase(z)) < 1e-6:
        warnings.warn("evaluation point is within 1e-6 of the branch cut along "
                      "the negative real axis", BranchCutWarning, stacklevel=3)


def power_type_frame(nu: complex, z: complex) -> np.ndarray:
    """Power-type frame: solves the flow for G = z, omega = (1-nu^2)/4 dz/z^2."""
    if nu == 0:
        raise DomainError("nu must be nonzero")
    _warn_branch_cut(z)
    s = cmath.sqrt(nu)
    zr = _principal_power(z, 0.5)
    zn = _principal_power(z, -nu / 2.0)
    mix = mat2(s + 1 / s, s - 1 / s, s - 1 / s, s + 1 / s)
    return 0.5 * (mat2(zr, 0, 0, 1 / zr) @ mix @ mat2(zn, 0, 0, 1 / zn))


def polynomial_type_frame(beta: complex, z: complex) -> np.ndarray:
    """Polynomial-type frame: solves the flow for G = z, omega = beta^2 dz."""
    if beta == 0:
        raise DomainError("beta must be nonzero")
    br = cmath.sqrt(beta)
    c, s = cmath.cos(beta * z), cmath.sin(beta * z)
    return (mat2(1, z, 0, 1) @ mat2(1 / br, 0, 0, br)
            @ mat2(c, -s, s, c) @ mat2(br, 0, 0, 1 / br))


# ---------------------------------------------------------------------------
# the non-rotational example and its extension across a lightlike circle

def nonrotational_entries(c: float, u, v) -> tuple:
    """(m11, m12, m22) of nonrotational_closed_form(c, u, v); u and v are
    floats or broadcastable arrays, with the same bits node by node."""
    if c == 0:
        raise ValidationError("parameter c must be nonzero")
    s = _real_exp(c * v)
    return s * _real_exp(2 * u), s * _exp(u + 1j * v), s


def nonrotational_closed_form(c: float, u: float, v: float) -> np.ndarray:
    """X(u, v) = e^{cv} [[e^{2u}, e^{u+iv}], [e^{u-iv}, 1]], c != 0."""
    return herm(*nonrotational_entries(c, u, v))


def nonrotational_extension(c: float, ut: float, v: float) -> np.ndarray:
    """Extension chart: X~(ut, v) = e^{cv} [[ut^2, e^{iv} ut], [e^{-iv} ut, 1]].

    For ut = e^u this equals the base chart; the formula continues real-
    analytically through ut <= 0, and ut = 0 is the lightlike circle.
    """
    if c == 0:
        raise ValidationError("parameter c must be nonzero")
    s = math.exp(c * v)
    return herm(s * ut * ut, s * cmath.exp(1j * v) * ut, s)


def lightlike_circle(c: float, v: float) -> np.ndarray:
    """L(v) = X~(0, v) = diag(0, e^{cv})."""
    return herm(0.0, 0.0, math.exp(c * v))


def nonrotational_bjorling_data(c: float, samples: int = 33) -> BjorlingData:
    """Parabolic circle with the non-rotation-invariant field (c/u) gamma + f2.

    The field has a pole at u = 0, so the data lives on [1/2, 2] (any interval
    inside u > 0 works; this one brackets the base point u = 1).
    """
    if c == 0:
        raise ValidationError("parameter c must be nonzero")
    u = ex.var()
    gamma = MatrixExpr(ex.pow_(u, ex.const(2)), u, u, ex.const(1))
    tangent = MatrixExpr(ex.mul(ex.const(c), u), ex.const(c + 1j),
                         ex.const(c - 1j), ex.div(ex.const(c), u))
    return BjorlingData(gamma, tangent, (0.5, 2.0), samples)


def nonrotational_weierstrass_wchart(c: float) -> WeierstrassData:
    """(G, omega) of the non-rotational surface in its exponential chart,
    where the surface is X(u, v): G = ((c+2i)/c) e^w, omega = (c^2/4) e^{-w}."""
    if c == 0:
        raise ValidationError("parameter c must be nonzero")
    g = ex.mul(ex.const((c + 2j) / c), _exp_cu(1))
    om = ex.mul(ex.const(c * c / 4.0), _exp_cu(-1))
    return WeierstrassData(g, om)
