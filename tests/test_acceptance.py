"""Acceptance gate: every criterion at its stated tolerance, end to end.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The whole module is sized for a laptop (< 60 s).
"""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from lightcone import bjorling as bj
from lightcone import catenoids as ct
from lightcone import diagnostics as dg
from lightcone import expr as ex
from lightcone import frame as fr
from lightcone import lorentz as lz

FAMILY_CASES = (("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5))


def _report(num, desc, passed, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def _printed_weierstrass(family, p):
    if family == "elliptic":
        return (lambda u: (p - 2) / (p + 2) * cmath.exp(2j * u),
                lambda u: -1j * (p + 2) ** 2 / 8 * cmath.exp(-2j * u))
    if family == "hyperbolic":
        return (lambda u: (p + 2j) / (p - 2j) * cmath.exp(2 * u),
                lambda u: (p - 2j) ** 2 / 8 * cmath.exp(-2 * u))
    return (lambda u: u + 2j / p, lambda u: p * p / 4)


@pytest.fixture(scope="module")
def pipeline():
    """Solve all reference data sets once; diagnostics filled in place."""
    solved = {}
    for family, p in FAMILY_CASES:
        spec = ct.CatenoidSpec(family, p)
        data = ct.catenoid_bjorling_data(spec)
        grid = fr.GridSpec(ct.DEFAULT_INTERVALS[family], (-1.0, 1.0), 41, 21)
        sg = fr.solve_bjorling(data, grid)
        dg.grid_diagnostics(sg)
        solved[family] = (spec, data, sg)
    nr_data = ct.nonrotational_bjorling_data(0.5)
    nr_grid = fr.solve_bjorling(nr_data, fr.GridSpec((0.5, 2.0), (-0.5, 0.5), 21, 11))
    dg.grid_diagnostics(nr_grid)
    return solved, (nr_data, nr_grid)


def test_criterion_1_weierstrass_extraction_exactness():
    cases = [("elliptic", 1.5), ("elliptic", 4.0), ("hyperbolic", 1.5),
             ("parabolic", 0.5)]
    worst = 0.0
    for family, p in cases:
        data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p))
        wd = bj.weierstrass_from_bjorling(data)
        g_ref, om_ref = _printed_weierstrass(family, p)
        us = np.linspace(*data.interval, 33)
        for u, g, om in zip(us, *wd.jet_fn(us)[:2]):
            worst = max(worst,
                        abs(g - g_ref(u)) / (1.0 + abs(g_ref(u))),
                        abs(om - om_ref(u)) / (1.0 + abs(om_ref(u))))
    _report(1, "Weierstrass extraction matches the printed data (rel <= 1e-10)",
            worst <= 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_2_end_to_end_pipeline(pipeline):
    solved, _ = pipeline
    worst = 0.0
    for family, (spec, _, sg) in solved.items():
        assert np.all(sg.valid)
        for iv, v in enumerate(sg.v):
            for iu, u in enumerate(sg.u):
                ref = ct.catenoid_closed_form(spec, float(u), float(v))
                worst = max(worst, float(np.max(np.abs(sg.X[iv, iu] - ref))))
    _report(2, "integrated surfaces match the closed forms on 41x21 (<= 1e-6)",
            worst <= 1e-6, f"worst entry err {worst:.2e}")


def test_criterion_3_zero_mean_curvature(pipeline):
    # Grid H is zero algebraically for any light-cone X once M is given, so it
    # cannot show that the integrated grids have zero mean curvature; that
    # evidence comes from the chart-free oracle on surfaces sampled by short
    # frame integrations from the stored frames.
    solved, (_, nr_grid) = pipeline
    worst = 0.0
    # integrated surfaces (every 4th interior node)
    for sg in [sg for _, _, sg in solved.values()] + [nr_grid]:
        for iv in range(1, sg.n_v - 1, 4):
            for iu in range(1, sg.n_u - 1, 4):
                w = complex(sg.u[iu], sg.v[iv])
                x_at = dg.local_surface_sampler(sg.wd, sg.F[iv, iu], w)
                h_mean, _ = dg.mean_curvature_fd(lambda u, v: x_at(complex(u, v)),
                                                 w.real, w.imag, h=1e-3)
                worst = max(worst, abs(h_mean))
    # closed-form catenoids
    for family, p in (("elliptic", 1.5), ("elliptic", 4.0),
                      ("hyperbolic", 1.5), ("parabolic", 0.5)):
        spec = ct.CatenoidSpec(family, p)
        surface = lambda u, v: ct.catenoid_closed_form(spec, u, v)
        (u0, u1) = ct.DEFAULT_INTERVALS[family]
        for u in np.linspace(u0, u1, 13)[1:-1]:
            for v in np.linspace(-1.0, 1.0, 9)[1:-1]:
                h_mean, _ = dg.mean_curvature_fd(surface, float(u), float(v), h=1e-3)
                worst = max(worst, abs(h_mean))
    # the non-rotational closed form in its own chart
    surface = lambda u, v: ct.nonrotational_closed_form(0.5, u, v)
    for u in np.linspace(-1.2, 1.2, 9):
        for v in np.linspace(-1.0, 1.0, 7):
            h_mean, _ = dg.mean_curvature_fd(surface, float(u), float(v), h=1e-3)
            worst = max(worst, abs(h_mean))
    # its extension, away from the degenerate circle, both signs of ut
    ext = lambda ut, v: ct.nonrotational_extension(0.5, ut, v)
    for ut in np.concatenate([np.linspace(-1.5, -0.25, 6), np.linspace(0.25, 1.5, 6)]):
        for v in np.linspace(-1.0, 1.0, 5):
            h_mean, _ = dg.mean_curvature_fd(ext, float(ut), float(v), h=1e-3)
            worst = max(worst, abs(h_mean))
    zmc_ok = worst <= 1e-5

    # negative control: non-holomorphic omega must produce visible curvature
    _, data, _ = solved["elliptic"]
    wd0 = bj.weierstrass_from_bjorling(data)
    f0 = lz.frame_from_point(lz.hermitize(data.gamma.eval(np.pi)))
    g_om = ex.compile_ast((wd0.G, wd0.omega))  # scalar, once per RK stage

    def perturbed_coef(w):
        g, om = g_om(w)
        om = om * (1 + 0.1 * w.real)
        m11 = g * om
        return (m11, -(g * m11), om, -m11)

    perturbed = SimpleNamespace(coef_fn=perturbed_coef)

    def x_perturbed(u, v):
        f = fr.integrate_frame(perturbed, f0, [np.pi, u, complex(u, v)])
        return lz.hermitize(f @ lz.F3 @ f.conj().T)

    control = max(abs(dg.mean_curvature_fd(x_perturbed, float(u), -1.0, h=1e-3)[0])
                  for u in (np.pi - 1.0, np.pi + 1.0))
    _report(3, "all surfaces have |H| <= 1e-5; perturbed control >= 1e-3",
            zmc_ok and control >= 1e-3,
            f"max |H| {worst:.2e}, control {control:.2e}")


def test_criterion_4_boundary_contract(pipeline):
    solved, (_, nr_grid) = pipeline
    worst_curve = worst_tangent = 0.0
    grids = [sg for _, _, sg in solved.values()] + [nr_grid]
    for sg in grids:
        worst_curve = max(worst_curve, float(np.nanmax(sg.boundary_curve_residual)))
        worst_tangent = max(worst_tangent, float(np.nanmax(sg.boundary_tangent_residual)))
    _report(4, "X(u,0) = gamma (<= 1e-8) and X_v(u,0) = L (<= 1e-6)",
            worst_curve <= 1e-8 and worst_tangent <= 1e-6,
            f"curve {worst_curve:.2e}, tangent {worst_tangent:.2e}")


def test_criterion_5_structural_invariants(pipeline):
    solved, (nr_data, nr_grid) = pipeline
    drift = lightlike = gauss = 0.0
    trace_ok = True
    for sg in [sg for _, _, sg in solved.values()] + [nr_grid]:
        drift = max(drift, float(np.nanmax(sg.det_drift)))
        gauss = max(gauss, float(np.nanmax(sg.gauss_residual)))
        for iv in range(sg.n_v):
            for iu in range(sg.n_u):
                if not sg.valid[iv, iu]:
                    continue
                x = sg.X[iv, iu]
                lightlike = max(lightlike, abs(lz.det2(x))
                                / (1.0 + float(np.max(np.abs(x))) ** 2))
                trace_ok = trace_ok and (x[0, 0] + x[1, 1]).real > 0

    # path independence on the elliptic chart
    _, data, _ = solved["elliptic"]
    wd = bj.weierstrass_from_bjorling(data)
    f0 = lz.frame_from_point(lz.hermitize(data.gamma.eval(np.pi)))
    path_gap = 0.0
    for target in (np.pi + 1.5 + 1.0j, np.pi - 2.0 - 0.8j, np.pi + 2.5 + 0.4j):
        fa = fr.integrate_frame(wd, f0, [np.pi, target.real, target])
        fb = fr.integrate_frame(wd, f0, [np.pi, complex(np.pi, target.imag), target])
        path_gap = max(path_gap, float(np.max(np.abs(fa - fb))))

    # gauge independence
    grid = fr.GridSpec((0.0, 2 * np.pi), (-1.0, 1.0), 13, 7)
    twist = lz.mat2(np.exp(0.7j), 0.3, 0.0, np.exp(-0.7j))
    plain = fr.solve_bjorling(data, grid, wd=wd)
    twisted = fr.solve_bjorling(data, grid, wd=wd, initial_twist=twist)
    gauge_gap = float(np.max(np.abs(plain.X - twisted.X)))

    ok = (drift <= 1e-8 and lightlike <= 1e-8 and trace_ok and gauss <= 1e-10
          and path_gap <= 1e-7 and gauge_gap <= 1e-9)
    _report(5, "det drift/lightcone/Gauss residuals/path/gauge within bounds", ok,
            f"drift {drift:.2e}, <X,X> {lightlike:.2e}, gauss {gauss:.2e}, "
            f"path {path_gap:.2e}, gauge {gauge_gap:.2e}")


def test_criterion_6_orientability_dichotomy():
    ok = True
    detail = []
    for family, p in FAMILY_CASES:
        spec = ct.CatenoidSpec(family, p)
        rejected = ct.catenoid_bjorling_data(spec, flip_tangent_sign=True)
        rep_bad = bj.check_orientability(rejected)
        accepted = ct.catenoid_bjorling_data(spec)
        rep_good = bj.check_orientability(accepted)
        ok = ok and (not rep_bad.passed) and float(np.max(np.abs(rep_bad.d1))) <= 1e-10
        ok = ok and rep_good.passed and np.all(rep_good.area_signs == -1)
        detail.append(f"{family}: |D1|_rej {np.max(np.abs(rep_bad.d1)):.1e}")
    _report(6, "rejected tangent branches fail (D1 = 0), accepted pass with area sign -1",
            ok, "; ".join(detail))


def test_criterion_7_closed_form_frame_oracles():
    nu, beta = 0.5, 1.0
    lam = (1 - nu * nu) / 4
    wd_pow = bj.WeierstrassData.from_strings("u", f"{lam!r}/u^2")
    wd_poly = bj.WeierstrassData.from_strings("u", "1")
    rng = np.random.default_rng(23)
    h = 1e-6
    residual = 0.0
    for _ in range(20):
        z = complex(rng.uniform(0.3, 1.8), rng.uniform(-1.0, 1.0))
        for wd, frame_fn in ((wd_pow, lambda zz: ct.power_type_frame(nu, zz)),
                             (wd_poly, lambda zz: ct.polynomial_type_frame(beta, zz))):
            fd = (frame_fn(z + h) - frame_fn(z - h)) / (2 * h)
            residual = max(residual, float(np.max(np.abs(
                fd - np.reshape(wd.coef_fn(z), (2, 2)) @ frame_fn(z)))))
    reproduce = 0.0
    for z in (0.8 + 0.6j, 1.0 - 1.0j, 0.3 + 1.0j):
        f = fr.integrate_frame(wd_poly, np.eye(2, dtype=complex), [0.0, z])
        reproduce = max(reproduce, float(np.max(np.abs(f - ct.polynomial_type_frame(beta, z)))))
    f = fr.integrate_frame(wd_pow, ct.power_type_frame(nu, 1.0), [1.0, 2.0])
    reproduce = max(reproduce, float(np.max(np.abs(f - ct.power_type_frame(nu, 2.0)))))
    _report(7, "reference frames satisfy the flow (<= 1e-8) and are reproduced (<= 1e-8)",
            residual <= 1e-8 and reproduce <= 1e-8,
            f"ODE residual {residual:.2e}, reproduction {reproduce:.2e}")


def test_criterion_8_analytic_extension():
    c = 0.5
    exact = all(
        np.array_equal(ct.nonrotational_extension(c, 0.0, float(v)),
                       lz.mat2(0, 0, 0, math.exp(c * v)))
        for v in np.linspace(-2.0, 2.0, 17))
    h = 1e-6
    worst = 0.0
    for ut in np.linspace(-1.5, 1.5, 13):
        for v in np.linspace(-1.0, 1.0, 9):
            xv = (ct.nonrotational_extension(c, float(ut), float(v + h))
                  - ct.nonrotational_extension(c, float(ut), float(v - h))) / (2 * h)
            got = lz.minkowski_inner(xv, xv).real
            worst = max(worst, abs(got - math.exp(2 * c * v) * ut * ut))
    _report(8, "extension hits diag(0, e^{cv}) exactly; v-speed formula <= 1e-6",
            exact and worst <= 1e-6, f"speed err {worst:.2e}")
