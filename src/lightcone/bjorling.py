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
    """2x2 matrix of expressions.  The entries are compiled, to the array
    binding, and the derivative is built, once per instance."""

    m11: ex.ExprAST
    m12: ex.ExprAST
    m21: ex.ExprAST
    m22: ex.ExprAST

    @classmethod
    def from_strings(cls, m11: str, m12: str, m21: str, m22: str) -> "MatrixExpr":
        return cls(ex.parse(m11), ex.parse(m12), ex.parse(m21), ex.parse(m22))

    @cached_property
    def _compiled(self):
        return ex.compile_ast(self.entries(), array=True)

    @cached_property
    def _derivative(self) -> "MatrixExpr":
        return MatrixExpr(*(ex.diff(e) for e in self.entries()))

    def eval(self, w) -> np.ndarray:
        """The matrix at w: (2, 2) for a number, shape(w) + (2, 2) for an
        array, from one numpy call; NaN wherever an entry is not finite (the
        compiler's array binding), which raises nothing."""
        return np.stack(self._compiled(w), axis=-1).reshape(np.shape(w) + (2, 2))

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


def _samples(nodes: np.ndarray, *named) -> list[np.ndarray]:
    """Each (name, MatrixExpr) pair on the nodes, as an (n, 2, 2) stack from
    one call.  A non-finite sample raises EvalError naming the first node
    where one is not finite and the first matrix not finite there."""
    names = [name for name, _ in named]
    stacks = [m.eval(nodes) for _, m in named]
    bad = np.array([~np.isfinite(s).all(axis=(-2, -1)) for s in stacks])
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        raise EvalError(f"{names[int(np.argmax(bad[:, k]))]} is not finite", float(nodes[k]))
    return stacks


def _data_samples(data: BjorlingData) -> list[np.ndarray]:
    """gamma, gamma' and L on the validation nodes."""
    return _samples(data.nodes(), ("gamma", data.gamma), ("gamma'", data.gamma.diff()),
                    ("L", data.tangent))


def _exceeds(residual: np.ndarray, bound) -> np.ndarray:
    """|residual| > bound, true where the residual is NaN too."""
    return ~(np.abs(residual) <= bound)


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


def _hermitian_residual(m: np.ndarray) -> np.ndarray:
    return np.maximum.reduce([np.abs(m[..., 0, 0].imag), np.abs(m[..., 1, 1].imag),
                              np.abs(m[..., 1, 0] - np.conj(m[..., 0, 1]))])


def check_conformality(data: BjorlingData, tol: float = CONFORMALITY_TOL) -> ConformalityReport:
    nodes = data.nodes()
    g, dg, l = _data_samples(data)
    sp = minkowski_inner(dg, dg).real
    speed_mismatch = (minkowski_inner(dg, dg) - minkowski_inner(l, l)).real
    tangent_orth = minkowski_inner(dg, l).real
    position_orth = minkowski_inner(g, l).real
    lightcone_res = minkowski_inner(g, g).real
    scale = tol * (1.0 + sp)
    g_max = np.max(np.abs(g), axis=(-2, -1))
    herm_g, herm_l = _hermitian_residual(g), _hermitian_residual(l)
    # (mask, text, values): the texts, with {u} the node and {r} its value,
    # listed node by node and in this order at each node
    tests = (
        (_exceeds(herm_g, 1e-10 * (1.0 + g_max)),
         "gamma not Hermitian at u = {u:.6g} (residual {r:.3e})", herm_g),
        (_exceeds(herm_l, 1e-10 * (1.0 + np.max(np.abs(l), axis=(-2, -1)))),
         "tangent field not Hermitian at u = {u:.6g} (residual {r:.3e})", herm_l),
        (_exceeds(speed_mismatch, scale),
         "|gamma'|^2 != |L|^2 at u = {u:.6g} (residual {r:.3e})", speed_mismatch),
        (_exceeds(tangent_orth, scale),
         "<gamma',L> != 0 at u = {u:.6g} (residual {r:.3e})", tangent_orth),
        (_exceeds(position_orth, scale),
         "<gamma,L> != 0 at u = {u:.6g} (residual {r:.3e})", position_orth),
        (_exceeds(lightcone_res, tol * (1.0 + g_max ** 2)),
         "gamma leaves the light cone at u = {u:.6g} (<gamma,gamma> = {r:.3e})", lightcone_res),
        (~((g[..., 0, 0] + g[..., 1, 1]).real > 0),
         "gamma has non-positive trace at u = {u:.6g}", sp),
        (~(sp > scale), "gamma' not spacelike at u = {u:.6g} (|gamma'|^2 = {r:.3e})", sp),
    )
    failures = [text.format(u=u, r=values[k]) for k, u in enumerate(nodes)
                for bad, text, values in tests if bad[k]]
    return ConformalityReport(not failures, nodes, speed_mismatch, tangent_orth,
                              position_orth, lightcone_res, sp, failures)


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
    g, dg, l = _data_samples(data)
    lam = 0.5 * (dg - 1j * l)
    d1 = g[:, 0, 0] * lam[:, 1, 0] - g[:, 1, 0] * lam[:, 0, 0]
    floor = tol * (1.0 + np.sqrt(minkowski_inner(dg, dg)).real)
    signs = np.zeros(len(nodes), dtype=int)
    failures: list[str] = []
    for k, u in enumerate(nodes):  # the sign normalizes a gauge per node
        if not abs(d1[k]) > floor[k]:
            failures.append(f"extraction denominator vanishes at u = {u:.6g} "
                            f"(|D1| = {abs(d1[k]):.3e})")
            continue
        signs[k] = signed_area_sign(g[k], dg[k], l[k])
        if signs[k] != -1:
            failures.append(f"signed area of (gamma', L) is positive at u = {u:.6g}")
    return OrientabilityReport(not failures, nodes, d1, floor, signs, failures)


@dataclass(eq=False)
class WeierstrassData:
    """Surface data G, omega as expressions; the 1-form is omega(w) dw."""

    G: ex.ExprAST
    omega: ex.ExprAST

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
    def from_strings(cls, g: str, omega: str) -> "WeierstrassData":
        return cls(ex.parse(g), ex.parse(omega))


def _relative_gap(a, b):
    return np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))


def weierstrass_from_bjorling(data: BjorlingData) -> WeierstrassData:
    """Extract (G, omega) from validated data, with internal cross-checks.

    The (11)/(21)-entry and (12)/(22)-entry formulas agree identically for
    admissible data but differ in roundoff near zeros of Lambda21; the
    symbolic output uses whichever is better conditioned at the interval
    midpoint, and the numeric self-check compares both on the nodes along
    with det Lambda = 0 and the trace identity

        Lambda11 gamma22 - Lambda12 gamma21 - Lambda21 gamma12 + Lambda22 gamma11 = 0.

    Each quantity is one array call on the nodes; a NaN residual counts as
    a violation.
    """
    lam = lambda_expr(data)
    g = data.gamma
    g1 = ex.div(lam.m11, lam.m21)
    om1 = ex.div(ex.mul(lam.m21, lam.m21),
                 ex.sub(ex.mul(lam.m21, g.m11), ex.mul(lam.m11, g.m21)))
    g2 = ex.div(lam.m12, lam.m22)
    om2 = ex.div(ex.mul(lam.m22, lam.m22),
                 ex.sub(ex.mul(lam.m22, g.m12), ex.mul(lam.m12, g.m22)))

    nodes = data.nodes()
    lam_v, g_v = _samples(nodes, ("Lambda", lam), ("gamma", g))
    # each route compiled apart, so that a pole of one leaves the other finite
    (g1_v, om1_v), (g2_v, om2_v) = (ex.compile_ast(route, array=True)(nodes)
                                    for route in ((g1, om1), (g2, om2)))
    (l11, l12), (l21, l22) = (lam_v[:, 0, 0], lam_v[:, 0, 1]), (lam_v[:, 1, 0], lam_v[:, 1, 1])
    lam_scale = np.max(np.abs(lam_v), axis=(-2, -1))
    det_lam = np.abs(l11 * l22 - l12 * l21)
    trace_id = np.abs(l11 * g_v[:, 1, 1] - l12 * g_v[:, 1, 0]
                      - l21 * g_v[:, 0, 1] + l22 * g_v[:, 0, 0])
    structural = np.maximum(det_lam / (1.0 + lam_scale ** 2),
                            trace_id / ((1.0 + lam_scale)
                                        * (1.0 + np.max(np.abs(g_v), axis=(-2, -1)))))
    guard = (np.abs(l21) > 1e-12 * (1.0 + lam_scale)) & (np.abs(l22) > 1e-12 * (1.0 + lam_scale))
    routes = np.where(guard, np.maximum(_relative_gap(g1_v, g2_v),
                                        _relative_gap(om1_v, om2_v)), 0.0)
    for label, res, tol in (("structural identity", structural, 1e-10),
                            ("route agreement", routes, 1e-9)):
        res = np.where(np.isnan(res), math.inf, res)
        k = int(np.argmax(res))
        if res[k] > tol:
            raise DataInconsistencyError(
                f"{label} violated; data is not admissible", float(nodes[k]), float(res[k]))

    mid = 0.5 * (data.interval[0] + data.interval[1])
    lam_mid = lam.eval(mid)
    if abs(lam_mid[1, 1]) > abs(lam_mid[1, 0]):
        wd, g_route = WeierstrassData(g2, om2), g2_v
    else:
        wd, g_route = WeierstrassData(g1, om1), g1_v
    # the returned expressions must be finite on the seam; a route's G and
    # omega are NaN together wherever either is not finite
    pole = np.isnan(g_route)
    if pole.any():
        raise DataInconsistencyError("extracted data has a pole",
                                     float(nodes[np.argmax(pole)]), math.inf)
    return wd
