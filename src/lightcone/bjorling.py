"""Bjorling-type data on the light cone: validation and Weierstrass data.

The data is a spacelike analytic curve gamma in Q3+ together with a spacelike
analytic field L along it, both given entrywise as expressions of u.  The
admissibility conditions are

  conformality:   <gamma', gamma'> = <L, L>,  <gamma', L> = 0,  <gamma, L> = 0
  orientability:  D1 := gamma11 Lambda21 - gamma21 Lambda11 != 0
                  (equivalently, the signed area of (gamma', L) is negative)

with Lambda = (gamma' - i L)/2.  When both hold, the surface data

  G = Lambda11 / Lambda21,   omega = Lambda21^2 / D1

is well defined; the (12)/(22)-entry variant gives the same functions and is
preferred per sample when it is better conditioned.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as ex
from .errors import DataInconsistencyError, EvalError, ValidationError
from .lorentz import minkowski_inner, signed_area_sign

__all__ = [
    "MatrixExpr", "BjorlingData", "WeierstrassData",
    "ConformalityReport", "OrientabilityReport",
    "chebyshev_nodes", "lambda_expr",
    "check_conformality", "check_orientability", "weierstrass_from_bjorling",
    "CONFORMALITY_TOL", "ORIENTABILITY_FLOOR",
]

CONFORMALITY_TOL = 1e-9     # scaled by (1 + |gamma'|^2) per sample
ORIENTABILITY_FLOOR = 1e-7  # |D1| must exceed floor * (1 + |gamma'|)


@dataclass(frozen=True)
class MatrixExpr:
    """2x2 matrix of expressions; evaluation gives a complex numpy matrix.
    The entries are compiled, and the derivative is built, once per instance."""

    m11: ex.ExprAST
    m12: ex.ExprAST
    m21: ex.ExprAST
    m22: ex.ExprAST

    @classmethod
    def from_strings(cls, m11: str, m12: str, m21: str, m22: str) -> "MatrixExpr":
        return cls(ex.parse(m11), ex.parse(m12), ex.parse(m21), ex.parse(m22))

    @cached_property
    def _entries_fn(self):
        return ex.compile_checked(self.entries())

    @cached_property
    def _derivative(self) -> "MatrixExpr":
        return MatrixExpr(*(ex.diff(e) for e in self.entries()))

    def eval(self, w: complex) -> np.ndarray:
        """The matrix at w; a pole raises EvalError."""
        return np.array(self._entries_fn(w), dtype=complex).reshape(2, 2)

    def diff(self) -> "MatrixExpr":
        return self._derivative

    def entries(self):
        return (self.m11, self.m12, self.m21, self.m22)


@dataclass(frozen=True)
class BjorlingData:
    """Curve and tangent field as matrix expressions over an interval.

    On the real axis both matrices must be Hermitian-valued; m21 is stored as
    its own expression (not derived from m12) because off the axis the
    analytic extensions of m12 and conj(m21) are independent.
    """

    gamma: MatrixExpr
    tangent: MatrixExpr
    interval: tuple[float, float]
    samples: int = 33

    def __post_init__(self):
        lo, hi = self.interval
        if not (hi > lo):
            raise ValidationError(f"degenerate interval [{lo}, {hi}]")
        if self.samples < 9:
            raise ValidationError(f"need at least 9 validation samples, got {self.samples}")

    def nodes(self) -> np.ndarray:
        return chebyshev_nodes(self.interval[0], self.interval[1], self.samples)


def chebyshev_nodes(a: float, b: float, n: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [a, b] (endpoints included), ascending."""
    k = np.arange(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * (n - 1 - k) / (n - 1))


def lambda_expr(data: BjorlingData) -> MatrixExpr:
    """Lambda = (gamma' - i L)/2, built symbolically entry by entry."""
    half = ex.Const(0.5 + 0j)
    i_const = ex.Const(1j)
    out = []
    for dg, l in zip(data.gamma.diff().entries(), data.tangent.entries()):
        out.append(ex.mul(half, ex.sub(dg, ex.mul(i_const, l))))
    return MatrixExpr(*out)


@dataclass
class ConformalityReport:
    passed: bool
    nodes: np.ndarray
    speed_mismatch: np.ndarray      # <gamma',gamma'> - <L,L>
    tangent_orth: np.ndarray        # <gamma',L>
    position_orth: np.ndarray       # <gamma,L>
    lightcone_residual: np.ndarray  # <gamma,gamma>
    speed_sq: np.ndarray            # <gamma',gamma'>
    failures: list[str] = field(default_factory=list)

    def worst_residual(self) -> float:
        return float(max(np.max(np.abs(self.speed_mismatch)),
                         np.max(np.abs(self.tangent_orth)),
                         np.max(np.abs(self.position_orth)),
                         np.max(np.abs(self.lightcone_residual))))


def check_conformality(data: BjorlingData, tol: float = CONFORMALITY_TOL) -> ConformalityReport:
    nodes = data.nodes()
    dgamma = data.gamma.diff()
    n = len(nodes)
    speed_mismatch = np.empty(n)
    tangent_orth = np.empty(n)
    position_orth = np.empty(n)
    lightcone_res = np.empty(n)
    speed_sq = np.empty(n)
    failures: list[str] = []
    for k, u in enumerate(nodes):
        g = data.gamma.eval(u)
        dg = dgamma.eval(u)
        l = data.tangent.eval(u)
        for name, m in (("gamma", g), ("tangent field", l)):
            herm_res = max(abs(m[0, 0].imag), abs(m[1, 1].imag),
                           abs(m[1, 0] - np.conj(m[0, 1])))
            if herm_res > 1e-10 * (1.0 + float(np.max(np.abs(m)))):
                failures.append(f"{name} not Hermitian at u = {u:.6g} (residual {herm_res:.3e})")
        sp = minkowski_inner(dg, dg).real
        speed_sq[k] = sp
        speed_mismatch[k] = (minkowski_inner(dg, dg) - minkowski_inner(l, l)).real
        tangent_orth[k] = minkowski_inner(dg, l).real
        position_orth[k] = minkowski_inner(g, l).real
        lightcone_res[k] = minkowski_inner(g, g).real
        scale = tol * (1.0 + sp)
        if abs(speed_mismatch[k]) > scale:
            failures.append(f"|gamma'|^2 != |L|^2 at u = {u:.6g} "
                            f"(residual {speed_mismatch[k]:.3e})")
        if abs(tangent_orth[k]) > scale:
            failures.append(f"<gamma',L> != 0 at u = {u:.6g} (residual {tangent_orth[k]:.3e})")
        if abs(position_orth[k]) > scale:
            failures.append(f"<gamma,L> != 0 at u = {u:.6g} (residual {position_orth[k]:.3e})")
        gscale = tol * (1.0 + float(np.max(np.abs(g))) ** 2)
        if abs(lightcone_res[k]) > gscale:
            failures.append(f"gamma leaves the light cone at u = {u:.6g} "
                            f"(<gamma,gamma> = {lightcone_res[k]:.3e})")
        if (g[0, 0] + g[1, 1]).real <= 0:
            failures.append(f"gamma has non-positive trace at u = {u:.6g}")
        if sp <= scale:
            failures.append(f"gamma' not spacelike at u = {u:.6g} (|gamma'|^2 = {sp:.3e})")
    return ConformalityReport(not failures, nodes, speed_mismatch, tangent_orth,
                              position_orth, lightcone_res, speed_sq, failures)


@dataclass
class OrientabilityReport:
    passed: bool
    nodes: np.ndarray
    d1: np.ndarray           # gamma11 Lambda21 - gamma21 Lambda11, complex
    floor: np.ndarray        # per-sample threshold
    area_signs: np.ndarray   # signed_area_sign(gamma, gamma', L) per sample
    failures: list[str] = field(default_factory=list)

    def min_margin(self) -> float:
        return float(np.min(np.abs(self.d1) - self.floor))


def check_orientability(data: BjorlingData, tol: float = ORIENTABILITY_FLOOR) -> OrientabilityReport:
    nodes = data.nodes()
    dgamma = data.gamma.diff()
    n = len(nodes)
    d1 = np.empty(n, dtype=complex)
    floor = np.empty(n)
    signs = np.zeros(n, dtype=int)
    failures: list[str] = []
    for k, u in enumerate(nodes):
        g, dg, l = data.gamma.eval(u), dgamma.eval(u), data.tangent.eval(u)
        lam = 0.5 * (dg - 1j * l)
        d1[k] = g[0, 0] * lam[1, 0] - g[1, 0] * lam[0, 0]
        speed = cmath.sqrt(minkowski_inner(dg, dg)).real
        floor[k] = tol * (1.0 + speed)
        if abs(d1[k]) <= floor[k]:
            failures.append(f"extraction denominator vanishes at u = {u:.6g} "
                            f"(|D1| = {abs(d1[k]):.3e})")
            signs[k] = 0
            continue
        signs[k] = signed_area_sign(g, dg, l)
        if signs[k] != -1:
            failures.append(f"signed area of (gamma', L) is positive at u = {u:.6g}")
    return OrientabilityReport(not failures, nodes, d1, floor, signs, failures)


@dataclass(eq=False)
class WeierstrassData:
    """Surface data G, omega as expressions; the 1-form is omega(w) dw."""

    G: ex.ExprAST
    omega: ex.ExprAST
    chart: str = "u"

    @cached_property
    def G_fn(self):
        """w -> G(w).  Kept under this name: perfbench's tracer patches it."""
        return ex.compile_ast(self.G)

    @cached_property
    def coef_fn(self):
        """w -> (m11, m12, m21, m22) of M = omega (G, 1)^T (1, -G), with
        m11 = G omega, m12 = -(G m11), m21 = omega and m22 = -m11.

        Built from the raw node classes, not the folding constructors, so
        every entry comes from exactly these operations."""
        m11 = ex.Mul(self.G, self.omega)
        return ex.compile_ast((m11, ex.Neg(ex.Mul(self.G, m11)), self.omega, ex.Neg(m11)))

    @cached_property
    def jet_fn(self):
        """Array w -> (G, omega, dG/dw, domega/dw), four arrays of w's shape,
        in one numpy call; NaN at every node where an intermediate value is
        not finite (the compiler's array binding)."""
        return ex.compile_ast((self.G, self.omega, ex.diff(self.G), ex.diff(self.omega)),
                              array=True)

    @classmethod
    def from_strings(cls, g: str, omega: str, chart: str = "u") -> "WeierstrassData":
        return cls(ex.parse(g), ex.parse(omega), chart)


def _relative_gap(a: complex, b: complex) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def weierstrass_from_bjorling(data: BjorlingData) -> WeierstrassData:
    """Extract (G, omega) from validated data, with internal cross-checks.

    The (11)/(21)-entry and (12)/(22)-entry formulas agree identically for
    admissible data but differ in roundoff near zeros of Lambda21; the
    symbolic output uses whichever is better conditioned at the interval
    midpoint, and the numeric self-check compares both per sample along with
    the trace identity

        Lambda11 gamma22 - Lambda12 gamma21 - Lambda21 gamma12 + Lambda22 gamma11 = 0.
    """
    lam = lambda_expr(data)
    g = data.gamma
    g1 = ex.div(lam.m11, lam.m21)
    om1 = ex.div(ex.mul(lam.m21, lam.m21),
                 ex.sub(ex.mul(lam.m21, g.m11), ex.mul(lam.m11, g.m21)))
    g2 = ex.div(lam.m12, lam.m22)
    om2 = ex.div(ex.mul(lam.m22, lam.m22),
                 ex.sub(ex.mul(lam.m22, g.m12), ex.mul(lam.m12, g.m22)))

    route1 = ex.compile_checked((g1, om1))
    route2 = ex.compile_checked((g2, om2))

    nodes = data.nodes()
    worst = {"route agreement": (nodes[0], 0.0), "structural identity": (nodes[0], 0.0)}
    for u in nodes:
        lam_v = lam.eval(u)
        g_v = g.eval(u)
        lam_scale = float(np.max(np.abs(lam_v)))
        # det Lambda = 0 and the trace identity both follow from admissibility
        det_lam = abs(lam_v[0, 0] * lam_v[1, 1] - lam_v[0, 1] * lam_v[1, 0])
        trace_id = abs(lam_v[0, 0] * g_v[1, 1] - lam_v[0, 1] * g_v[1, 0]
                       - lam_v[1, 0] * g_v[0, 1] + lam_v[1, 1] * g_v[0, 0])
        structural = max(det_lam / (1.0 + lam_scale ** 2),
                         trace_id / ((1.0 + lam_scale) * (1.0 + float(np.max(np.abs(g_v))))))
        if structural > worst["structural identity"][1]:
            worst["structural identity"] = (u, structural)
        if abs(lam_v[1, 0]) > 1e-12 * (1.0 + lam_scale) and \
           abs(lam_v[1, 1]) > 1e-12 * (1.0 + lam_scale):
            (g1_v, om1_v), (g2_v, om2_v) = route1(u), route2(u)
            routes = max(_relative_gap(g1_v, g2_v), _relative_gap(om1_v, om2_v))
            if routes > worst["route agreement"][1]:
                worst["route agreement"] = (u, routes)
    for label, tol in (("structural identity", 1e-10), ("route agreement", 1e-9)):
        u, res = worst[label]
        if res > tol:
            raise DataInconsistencyError(
                f"{label} violated; data is not admissible", float(u), res)

    mid = 0.5 * (data.interval[0] + data.interval[1])
    lam_mid = lam.eval(mid)
    if abs(lam_mid[1, 1]) > abs(lam_mid[1, 0]):
        wd, extracted = WeierstrassData(g2, om2, chart="u"), route2
    else:
        wd, extracted = WeierstrassData(g1, om1, chart="u"), route1
    for u in nodes:  # the returned expressions must be finite on the seam
        try:
            g_val, om_val = extracted(u)
        except EvalError as exc:
            raise DataInconsistencyError(f"extracted data has a pole ({exc})",
                                         float(u), math.inf) from exc
        if not (cmath.isfinite(g_val) and cmath.isfinite(om_val)):
            raise DataInconsistencyError("extracted data is not finite",
                                         float(u), math.inf)
    return wd
