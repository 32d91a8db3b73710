"""Numerical verification of surface-theoretic quantities.

On a conformal chart the surface X = F f3 F* satisfies X_z = M X with the
coefficient matrix M = omega (G, 1)^T (1, -G) that drives the frame.  M is
nilpotent (M^2 = 0), so X_zz = M' X and X_zzbar = M X M* are exact too, with
M' from the symbolic derivatives of G and omega.  Xu, Xv, Xuu, Xuv and Xvv
come from the stored X by 2x2 products written out entry by entry, and a
whole grid is diagnosed in one array pass: one numpy call evaluates the
(G, omega) jet of every node, and nothing is re-integrated or differenced.

The lightlike normal comes from G in closed form.  With v = (G, 1)^T and
X = psi psi*, X_z = omega (psi1 - G psi2) v psi*, so n = v v* / <v v*, X>
is lightlike, orthogonal to Xu and Xv, and has <n, X> = 1; since
<v v*, X> = -|psi1 - G psi2|^2 / 2, it is defined wherever X_z != 0, that
is wherever phi^2 > 0.  A node is NaN where the jet is not finite, where
phi^2 <= PHI2_FLOOR or where n is not finite.  gauss_residual is therefore
a round-off readout of these identities, not evidence.

The derivatives are Hermitian, so the second fundamental form is real by
construction (second_form_imag is 0 on every diagnosed node).  H =
2 <M X M*, n> / phi^2 vanishes algebraically for any light-cone point X,
given M, so this H cannot show that an integrated grid has zero mean
curvature.  That evidence is the chart-free finite-difference oracle
(mean_curvature_fd): it takes a plain (u, v) -> Herm2 callable in any,
possibly non-conformal, parametrization (local_surface_sampler makes one
from a grid node by short frame integrations), and finds its Gauss map from
the differenced tangent plane alone (gauss_map, a stacked SVD).  It is also
the only route for the extension chart of the non-rotational example, whose
parameter lines are not conformal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bjorling import WeierstrassData
from .errors import DegenerateInputError, DegenerateMetricError, DomainError, IntegrationError
from .frame import SurfaceGrid, integrate_frame
from .lorentz import F3, hermitize, minkowski_inner

__all__ = [
    "PointDiagnostics", "surface_derivatives", "lightlike_normal", "gauss_map",
    "gauss_residuals", "second_fundamental", "curvatures", "point_diagnostics",
    "local_surface_sampler", "grid_diagnostics", "chartfree_grid_diagnostics",
    "mean_curvature_fd",
]

PHI2_FLOOR = 1e-12
_RANK_RCOND = 4 * np.finfo(float).eps     # lstsq's default for a 3x4 system
_LOWER = np.array([-1.0, 1.0, 1.0, 1.0])  # (t, x, y, z) <-> (-t, x, y, z)
# (Re, Im) of the entries m11, m12, m21, m22 of a Hermitian matrix -> (-t, x, y, z)
_ENTRIES_TO_LOWERED = np.array([[-0.5, 0, 0, 0.5], [0] * 4, [0, 1, 0, 0], [0, 0, 1, 0],
                                [0] * 4, [0] * 4, [-0.5, 0, 0, -0.5], [0] * 4])
# (t, x, y, z) -> the entries [[t+z, x+iy], [x-iy, t-z]]
_VEC_TO_ENTRIES = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


def surface_derivatives(wd: WeierstrassData, x: np.ndarray, w):
    """Exact (Xu, Xv, Xuu, Xuv, Xvv) from X_z = M X, X_zz = M' X, X_zzbar = M X M*.

    x is (..., 2, 2) and w has shape (...); one jet call serves the stack,
    and every output is Hermitian by construction.  At one point (x of
    shape (2, 2)) M or M' failing to evaluate to finite values raises
    IntegrationError; stacked inputs return the mask of nodes where they did
    as a sixth output, NaN elsewhere.
    """
    derivs, ok = _derivatives(wd.jet_fn(w), x)
    if np.ndim(x) == 2:
        if not ok:
            raise IntegrationError("coefficient matrix or its derivative is not finite", w)
        return derivs
    return derivs + (ok,)


def _derivatives(jet, x):
    """(Xu, Xv, Xuu, Xuv, Xvv) and the finite-M-and-M' mask from the jet arrays.

    The 2x2 products X_z = M X, X_zz = M' X and X_zzbar = X_z M* are written
    out entry by entry (numpy's stacked matmul costs several times more on
    2x2 blocks); each output P + P* or i (P - P*) is assembled from the
    upper triangle of P and P*, as it is Hermitian.
    """
    g, om, dg, dom = jet
    m11, d11 = g * om, dg * om + g * dom   # M as the frame builds it, and M'
    m = (m11, -(g * m11), om, -m11)
    dm = (d11, -(dg * m11 + g * d11), dom, -d11)
    ok = np.logical_and.reduce([np.isfinite(e) for e in m[:3] + dm[:3]])  # m22 = -m11
    x11, x12, x21, x22 = x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]

    def times_x(p11, p12, p21, p22):
        return (p11 * x11 + p12 * x21, p11 * x12 + p12 * x22,
                p21 * x11 + p22 * x21, p21 * x12 + p22 * x22)

    a11, a12, a21, a22 = times_x(*m)
    b = times_x(*dm)
    n11, n12, n21, n22 = (np.conj(e) for e in m)
    c = (a11 * n11 + a12 * n12, a11 * n21 + a12 * n22,
         a21 * n11 + a22 * n12, a21 * n21 + a22 * n22)

    def plus_adjoint(p11, p12, p21, p22):    # upper triangle of P + P*
        return 2.0 * p11.real, p12 + np.conj(p21), 2.0 * p22.real

    def minus_adjoint(p11, p12, p21, p22):   # upper triangle of i (P - P*)
        return -2.0 * p11.imag, 1j * (p12 - np.conj(p21)), -2.0 * p22.imag

    b_sum, c_sum = plus_adjoint(*b), plus_adjoint(*c)
    out = np.empty((5,) + np.shape(g) + (2, 2), dtype=complex)
    for k, (e11, e12, e22) in enumerate((
            plus_adjoint(a11, a12, a21, a22), minus_adjoint(a11, a12, a21, a22),
            [p + q for p, q in zip(c_sum, b_sum)], minus_adjoint(*b),
            [p - q for p, q in zip(c_sum, b_sum)])):
        out[k, ..., 0, 0], out[k, ..., 0, 1], out[k, ..., 1, 1] = e11, e12, e22
        out[k, ..., 1, 0] = np.conj(e12)
    return tuple(out), ok


def lightlike_normal(g, x):
    """n = v v* / <v v*, X> with v = (G, 1)^T, for G of shape (...) and X of
    shape (..., 2, 2): the Gauss map of the surface of (G, omega) at X, for
    any omega.  Hermitian by construction; not finite where <v v*, X> = 0,
    that is where X_z = 0."""
    p = np.empty(np.shape(g) + (2, 2), dtype=complex)
    p[..., 0, 0] = g.real * g.real + g.imag * g.imag
    p[..., 0, 1] = g
    p[..., 1, 0] = np.conj(g)
    p[..., 1, 1] = 1.0
    return p / minkowski_inner(p, x).real[..., None, None]


def gauss_map(x: np.ndarray, xu: np.ndarray, xv: np.ndarray):
    """The unique lightlike n with <n,Xu> = <n,Xv> = <n,n> = 0, <n,X> = 1,
    from the tangent plane alone; the chart-free oracle's Gauss map.

    One point ((2, 2) inputs) or stacks ((..., 2, 2) inputs).  One stacked
    SVD gives the minimum-norm solution Y of the three linear conditions; the
    solution set is Y + span{X}, since X is orthogonal to everything involved,
    and n = Y - (<Y,Y>/2) X does not depend on the choice of Y.  A system of
    rank < 3 under lstsq's default threshold is a degenerate tangent plane:
    at one point that raises DegenerateInputError; stacks return (n, mask),
    with NaN where the mask is False.
    """
    mats = np.stack([xu, xv, x], axis=-3).astype(complex, copy=False)
    system = mats.view(float).reshape(mats.shape[:-2] + (8,)) @ _ENTRIES_TO_LOWERED
    finite = np.isfinite(system).all(axis=(-2, -1))
    u_mat, s, vh = np.linalg.svd(np.where(finite[..., None, None], system, 0.0),
                                 full_matrices=False)
    ok = finite & (s[..., 2] > _RANK_RCOND * s[..., 0])
    y = (u_mat[..., 2:, :] / np.where(ok[..., None, None], s[..., None, :], 1.0)) @ vh
    n_vec = y - (0.5 * ((y * y) @ _LOWER)[..., None]) * (system[..., 2:, :] * _LOWER)
    n = (n_vec @ _VEC_TO_ENTRIES).reshape(n_vec.shape[:-2] + (2, 2))
    n = np.where(ok[..., None, None], n, np.nan)
    if np.ndim(x) == 2:
        if not ok:
            raise DegenerateInputError("tangent plane is degenerate; Gauss map undefined")
        return n
    return n, ok


def gauss_residuals(x, xu, xv, n) -> np.ndarray:
    """[|<n,n>|, |<n,Xu>|, |<n,Xv>|, |<n,X> - 1|] along the last axis."""
    return np.abs(np.stack([minkowski_inner(n, n), minkowski_inner(n, xu),
                            minkowski_inner(n, xv), minkowski_inner(n, x) - 1.0], axis=-1))


def second_fundamental(xuu, xuv, xvv, n):
    """(Lff, Mff, Nff) = <(Xuu, Xuv, Xvv), n>, which equal -<Xu, n_u>,
    -<Xu, n_v>, -<Xv, n_v> because <Xu, n> = <Xv, n> = 0 identically."""
    return tuple(minkowski_inner(d, n).real for d in (xuu, xuv, xvv))


def curvatures(phi2, lff, mff, nff, tol: float = PHI2_FLOOR):
    """H = (L+N)/(2 phi^2), K = (LN - M^2)/phi^4 in a conformal chart, for
    scalars or arrays; raises DegenerateMetricError if any phi^2 <= tol."""
    if not np.all(phi2 > tol):
        raise DegenerateMetricError(f"conformal factor too small: phi^2 = {np.min(phi2):.3e}")
    return (lff + nff) / (2.0 * phi2), (lff * nff - mff * mff) / (phi2 * phi2)


def _first_fundamental(xu, xv):
    """(phi^2, conformality defect) from <Xu,Xu>, <Xv,Xv>, <Xu,Xv>."""
    e_uu = minkowski_inner(xu, xu).real
    e_vv = minkowski_inner(xv, xv).real
    e_uv = minkowski_inner(xu, xv).real
    return 0.5 * (e_uu + e_vv), np.maximum(np.abs(e_uu - e_vv), 2.0 * np.abs(e_uv))


@dataclass
class PointDiagnostics:
    phi2: float
    conformality_defect: float
    gauss: np.ndarray            # the lightlike Gauss map, Herm2
    lff: float
    mff: float
    nff: float
    H: float
    K: float
    residuals: dict[str, float] = field(default_factory=dict)


def _diagnose(wd: WeierstrassData, x: np.ndarray, w: np.ndarray) -> dict:
    """Every diagnostics quantity of the stacked points x = X(w), by name,
    with the normal n ("gauss"), the form (lff, mff, nff), the mask of
    finite jets ("jet_ok") and the mask of diagnosed nodes ("ok")."""
    with np.errstate(all="ignore"):  # every non-finite value is masked
        jet = wd.jet_fn(w)
        (xu, xv, xuu, xuv, xvv), jet_ok = _derivatives(jet, x)
        phi2, defect = _first_fundamental(xu, xv)
        n = lightlike_normal(jet[0], x)
        ok = jet_ok & (phi2 > PHI2_FLOOR) & np.isfinite(n).all(axis=(-2, -1))
        lff, mff, nff = second_fundamental(xuu, xuv, xvv, n)
        h_mean, k_gauss = curvatures(np.where(ok, phi2, 1.0), lff, mff, nff)
        return {"phi2": phi2, "H": h_mean, "K": k_gauss, "conformality_defect": defect,
                "gauss_residual": np.max(gauss_residuals(x, xu, xv, n), axis=-1),
                "lightlike_residual": np.abs(minkowski_inner(x, x)),
                "second_form_imag": np.zeros(ok.shape),
                "gauss": n, "lff": lff, "mff": mff, "nff": nff, "jet_ok": jet_ok, "ok": ok}


def point_diagnostics(wd: WeierstrassData, x: np.ndarray, w: complex) -> PointDiagnostics:
    """Diagnostics at the surface point x = X(w), by the grid route on a
    one-node stack, with the same bits; raises IntegrationError where the
    jet is not finite and DegenerateMetricError where phi^2 <= PHI2_FLOOR
    or n is not finite, exactly where grid_diagnostics leaves a node NaN."""
    q = {name: values[0] for name, values in
         _diagnose(wd, np.asarray(x)[None], np.array([w], dtype=complex)).items()}
    if not q["jet_ok"]:
        raise IntegrationError("coefficient matrix or its derivative is not finite", w)
    if not q["ok"]:
        raise DegenerateMetricError(f"conformal factor too small or normal not finite: "
                                    f"phi^2 = {q['phi2']:.3e}")
    return PointDiagnostics(float(q["phi2"]), float(q["conformality_defect"]), q["gauss"],
                            float(q["lff"]), float(q["mff"]), float(q["nff"]),
                            float(q["H"]), float(q["K"]),
                            {"gauss": float(q["gauss_residual"]),
                             "lightlike": float(q["lightlike_residual"])})


def local_surface_sampler(wd: WeierstrassData, f0: np.ndarray, w0: complex,
                          eps_loc: float = 1e-10, h_max: float = 1.0 / 64):
    """w -> X(w) in a neighborhood of w0, by short frame integrations from f0."""
    def x_at(w: complex) -> np.ndarray:
        f = integrate_frame(wd, f0, [w0, w], eps_loc=eps_loc, h_max=h_max)
        return hermitize(f @ F3 @ f.conj().T)
    return x_at


def grid_diagnostics(grid: SurfaceGrid, wd: WeierstrassData | None = None) -> SurfaceGrid:
    """Fill the per-node diagnostics slots of a grid, in place, in one array pass.

    Needs only the stored X and the Weierstrass data (grid.wd by default).  A
    valid node where the (G, omega) jet is not finite, phi^2 <= PHI2_FLOOR or
    the normal from G is not finite stays valid with every diagnostics slot NaN.
    """
    if wd is None:
        wd = grid.wd
    if wd is None:
        raise ValueError("grid carries no Weierstrass data; pass wd explicitly")
    sel = grid.valid
    q = _diagnose(wd, grid.X[sel], (grid.u[None, :] + 1j * grid.v[:, None])[sel])
    for name in ("phi2", "H", "K", "conformality_defect", "gauss_residual",
                 "lightlike_residual", "second_form_imag"):
        getattr(grid, name)[sel] = np.where(q["ok"], q[name], np.nan)
    return grid


# ---------------------------------------------------------------------------
# chart-free finite-difference oracle

def _fd_gauss(surface, u, v, h):
    x = surface(u, v)
    xu = (surface(u + h, v) - surface(u - h, v)) / (2 * h)
    xv = (surface(u, v + h) - surface(u, v - h)) / (2 * h)
    return x, xu, xv, gauss_map(x, xu, xv)


def mean_curvature_fd(surface, u: float, v: float, h: float = 1e-3):
    """(H, K) of an arbitrarily parametrized surface patch in Q3+.

    surface: (u, v) -> Herm2.  Everything is central finite differences with
    one Richardson level; the shape operator is I^{-1} II, which needs no
    conformality of the parameter lines.
    """
    def once(step):
        x, xu, xv, _ = _fd_gauss(surface, u, v, step)
        n_pu = _fd_gauss(surface, u + step, v, step)[3]
        n_mu = _fd_gauss(surface, u - step, v, step)[3]
        n_pv = _fd_gauss(surface, u, v + step, step)[3]
        n_mv = _fd_gauss(surface, u, v - step, step)[3]
        nu = (n_pu - n_mu) / (2 * step)
        nv = (n_pv - n_mv) / (2 * step)
        e = minkowski_inner(xu, xu).real
        f = minkowski_inner(xu, xv).real
        g = minkowski_inner(xv, xv).real
        det_i = e * g - f * f
        if not abs(det_i) > PHI2_FLOOR:
            raise DegenerateMetricError(f"first fundamental form singular: det = {det_i:.3e}")
        lff = -minkowski_inner(xu, nu).real
        mff = -0.5 * (minkowski_inner(xu, nv) + minkowski_inner(xv, nu)).real
        nff = -minkowski_inner(xv, nv).real
        h_mean = (e * nff - 2.0 * f * mff + g * lff) / (2.0 * det_i)
        k_gauss = (lff * nff - mff * mff) / det_i
        return h_mean, k_gauss

    h1, k1 = once(h)
    h2, k2 = once(0.5 * h)
    return (4.0 * h2 - h1) / 3.0, (4.0 * k2 - k1) / 3.0


def chartfree_grid_diagnostics(surface, u_nodes, v_nodes, h: float = 1e-3) -> SurfaceGrid:
    """Evaluate a closed-form surface on a lattice with FD-oracle curvatures.

    Returns a SurfaceGrid with empty frame slots; phi2 holds <Xu,Xu> and the
    conformality defect is reported relative to the actual parametrization
    (it need not vanish).  Degenerate-metric nodes keep NaN curvatures, and
    a slot whose arithmetic overflows is NaN, without a warning.  A node
    where the surface is not finite, or overflows, raises DomainError,
    naming the first.
    """
    u_nodes = np.asarray(u_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    n_u, n_v = len(u_nodes), len(v_nodes)
    x_grid = np.full((n_v, n_u, 2, 2), np.nan, dtype=complex)
    grid = SurfaceGrid(u=u_nodes, v=v_nodes,
                       F=np.full((n_v, n_u, 2, 2), np.nan, dtype=complex),
                       X=x_grid, valid=np.ones((n_v, n_u), dtype=bool),
                       det_drift=np.full((n_v, n_u), np.nan), wd=None)
    with np.errstate(all="ignore"):
        for iv, vv in enumerate(v_nodes):
            for iu, uu in enumerate(u_nodes):
                uu, vv = float(uu), float(vv)
                try:
                    x = surface(uu, vv)
                except OverflowError:  # math.exp past the float range
                    x = None
                if x is None or not np.isfinite(x).all():
                    raise DomainError(f"surface is not finite at node ({iv}, {iu}), "
                                      f"(u, v) = ({uu:.6g}, {vv:.6g})")
                x_grid[iv, iu] = x
                grid.lightlike_residual[iv, iu] = float(abs(minkowski_inner(x, x)))
                try:
                    xu = (surface(uu + h, vv) - surface(uu - h, vv)) / (2 * h)
                    xv = (surface(uu, vv + h) - surface(uu, vv - h)) / (2 * h)
                    grid.phi2[iv, iu] = minkowski_inner(xu, xu).real
                    grid.conformality_defect[iv, iu] = max(
                        abs((minkowski_inner(xu, xu) - minkowski_inner(xv, xv)).real),
                        2.0 * abs(minkowski_inner(xu, xv).real))
                    n = gauss_map(x, xu, xv)
                    grid.gauss_residual[iv, iu] = float(np.max(gauss_residuals(x, xu, xv, n)))
                    h_mean, k_gauss = mean_curvature_fd(surface, uu, vv, h)
                except (DegenerateInputError, DegenerateMetricError, OverflowError):
                    continue
                grid.H[iv, iu] = h_mean
                grid.K[iv, iu] = k_gauss
    for name in ("phi2", "conformality_defect", "lightlike_residual", "gauss_residual", "H", "K"):
        slot = getattr(grid, name)
        slot[~np.isfinite(slot)] = np.nan
    return grid
