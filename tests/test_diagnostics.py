import numpy as np
import pytest
from types import SimpleNamespace

from lightcone import bjorling as bj
from lightcone import catenoids as ct
from lightcone import cli
from lightcone import diagnostics as dg
from lightcone import frame as fr
from lightcone import lorentz as lz
from lightcone.errors import DegenerateMetricError, IntegrationError

A = 1.5
SPEC = ct.CatenoidSpec("elliptic", A)


def elliptic_surface(w):
    return ct.catenoid_closed_form(SPEC, w.real, w.imag)


@pytest.fixture(scope="module")
def elliptic_wd():
    return ct.classification_weierstrass(SPEC)


def test_tangent_vectors_match_boundary_fields(elliptic_wd):
    data = ct.catenoid_bjorling_data(SPEC)
    dgamma = data.gamma.diff()
    for u in np.linspace(0, 2 * np.pi, 9):
        x = elliptic_surface(complex(u))
        xu, xv = dg.tangent_vectors(elliptic_wd, x, complex(u))
        assert np.max(np.abs(xu - dgamma.eval(u))) <= 1e-8
        assert np.max(np.abs(xv - data.tangent.eval(u))) <= 1e-6


def test_tangent_vectors_match_finite_differences(elliptic_wd):
    h = 1e-5
    for w in (0.4 + 0.3j, 2.0 - 0.7j, 5.1 + 0.9j):
        x = elliptic_surface(w)
        xu, xv = dg.tangent_vectors(elliptic_wd, x, w)
        fd_u = (elliptic_surface(w + h) - elliptic_surface(w - h)) / (2 * h)
        fd_v = (elliptic_surface(w + 1j * h) - elliptic_surface(w - 1j * h)) / (2 * h)
        assert np.max(np.abs(xu - fd_u)) <= 1e-6
        assert np.max(np.abs(xv - fd_v)) <= 1e-6


def test_immersion_is_conformal(elliptic_wd):
    for w in (0.0j, 1.1 + 0.5j, 3.0 - 0.8j):
        x = elliptic_surface(w)
        xu, xv = dg.tangent_vectors(elliptic_wd, x, w)
        scale = 1.0 + abs(lz.minkowski_inner(xu, xu))
        assert abs(lz.minkowski_inner(xu, xu) - lz.minkowski_inner(xv, xv)) <= 1e-8 * scale
        assert abs(lz.minkowski_inner(xu, xv)) <= 1e-8 * scale


def test_gauss_map_residuals_on_random_nodes(elliptic_wd):
    rng = np.random.default_rng(17)
    for _ in range(100):
        w = complex(rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1))
        x = elliptic_surface(w)
        xu, xv = dg.tangent_vectors(elliptic_wd, x, w)
        n = dg.gauss_map(x, xu, xv)
        assert float(np.max(dg.gauss_residuals(x, xu, xv, n))) <= 1e-10


def test_gauss_map_is_independent_of_the_particular_solution(elliptic_wd):
    # shifting the particular solution along X must not move n
    w = 1.2 + 0.4j
    x = elliptic_surface(w)
    xu, xv = dg.tangent_vectors(elliptic_wd, x, w)
    n = dg.gauss_map(x, xu, xv)
    xvec = np.array(lz.herm_to_vec(lz.hermitize(x)))
    rows = []
    for m in (xu, xv, x):
        t, a, b, c = lz.herm_to_vec(lz.hermitize(m))
        rows.append([-t, a, b, c])
    y0 = np.linalg.lstsq(np.array(rows), np.array([0.0, 0.0, 1.0]), rcond=None)[0]
    for shift in (1.7, -0.4, 12.0):
        y = y0 + shift * xvec
        yy = -y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 2
        n2 = lz.vec_to_herm(lz.Vec4(*(y - 0.5 * yy * xvec)))
        assert np.max(np.abs(n2 - n)) <= 1e-10


def test_gauss_map_hand_example():
    # axis point diag(s, 0) with the horizontal tangent plane span{f1, f2}
    s = 2.7
    x = lz.mat2(s, 0, 0, 0)
    n = dg.gauss_map(x, lz.F1, lz.F2)
    assert np.max(np.abs(n - lz.mat2(0, 0, 0, -2.0 / s))) <= 1e-12
    assert abs(lz.minkowski_inner(n, x) - 1.0) <= 1e-12


def test_second_fundamental_symmetry(elliptic_wd):
    # the exact mixed coefficient <Xuv, n> against both differenced ones,
    # -<Xu, n_v> and -<Xv, n_u>, with n_u, n_v from the closed form
    h = 1.5e-5

    def n_at(w):
        x = elliptic_surface(w)
        return dg.gauss_map(x, *dg.tangent_vectors(elliptic_wd, x, w))

    for w in (0.5 + 0.2j, 2.4 - 0.5j):
        x = elliptic_surface(w)
        xu, xv, xuu, xuv, xvv = dg.surface_derivatives(elliptic_wd, x, w)
        n = dg.gauss_map(x, xu, xv)
        lff, mff, nff = (lz.minkowski_inner(d, n) for d in (xuu, xuv, xvv))
        n_u = (n_at(w + h) - n_at(w - h)) / (2 * h)
        n_v = (n_at(w + 1j * h) - n_at(w - 1j * h)) / (2 * h)
        sym = max(abs(mff + lz.minkowski_inner(xu, n_v)),
                  abs(mff + lz.minkowski_inner(xv, n_u)))
        assert sym <= 1e-6
        assert max(abs(lff.imag), abs(mff.imag), abs(nff.imag)) <= 1e-8


def test_zero_mean_curvature_makes_the_form_tracefree(elliptic_wd):
    for w in (0.0j, 1.0 + 0.6j, 4.2 - 0.9j):
        x = elliptic_surface(w)
        xu, xv, xuu, xuv, xvv = dg.surface_derivatives(elliptic_wd, x, w)
        lff, _, nff = dg.second_fundamental(xuu, xuv, xvv, dg.gauss_map(x, xu, xv))
        assert abs(lff + nff) <= 1e-5


def _second_differences(surface, u, v, h):
    """(X_uu, X_uv, X_vv) by central differences with one Richardson level."""
    def once(s):
        x0 = surface(u, v)
        xuu = (surface(u + s, v) - 2 * x0 + surface(u - s, v)) / (s * s)
        xvv = (surface(u, v + s) - 2 * x0 + surface(u, v - s)) / (s * s)
        xuv = (surface(u + s, v + s) - surface(u + s, v - s)
               - surface(u - s, v + s) + surface(u - s, v - s)) / (4 * s * s)
        return np.array([xuu, xuv, xvv])
    return (4 * once(h) - once(2 * h)) / 3


@pytest.mark.parametrize("family, p", [
    ("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5), ("nonrotational", 0.5)])
def test_exact_second_derivatives_match_central_differences(family, p):
    if family == "nonrotational":
        wd = ct.nonrotational_weierstrass_wchart(p)
        surface = lambda u, v: ct.nonrotational_closed_form(p, u, v)
        u_range = (-1.0, 1.0)
    else:
        spec = ct.CatenoidSpec(family, p)
        wd = ct.classification_weierstrass(spec)
        surface = lambda u, v: ct.catenoid_closed_form(spec, u, v)
        u_range = ct.DEFAULT_INTERVALS[family]
    worst = 0.0
    for u in np.linspace(*u_range, 5):
        for v in (-0.8, 0.0, 0.8):
            x = surface(u, v)
            exact = np.array(dg.surface_derivatives(wd, x, complex(u, v))[2:])
            fd = _second_differences(surface, u, v, 1e-3)
            worst = max(worst, float(np.max(np.abs(exact - fd))))
    assert worst <= 1e-6


def test_curvature_formulas():
    h_mean, k_gauss = dg.curvatures(2.0, 1.0, 0.5, 3.0)
    assert h_mean == pytest.approx(1.0)
    assert k_gauss == pytest.approx((3.0 - 0.25) / 4.0)
    # doubling phi^2 with the form fixed halves H exactly
    h2, _ = dg.curvatures(4.0, 1.0, 0.5, 3.0)
    assert h2 == h_mean / 2
    with pytest.raises(DegenerateMetricError):
        dg.curvatures(0.0, 1.0, 0.5, 3.0)


def test_golden_gaussian_curvature_at_the_base_point(elliptic_wd):
    # frozen from two independent pipelines (exact-tangent route and the
    # chart-free finite-difference oracle), which agree to ~5e-12
    golden = -0.0478515625  # == -(4 - a^2)^2 / 64 at a = 3/2
    pd = dg.point_diagnostics(elliptic_wd, elliptic_surface(0j), 0j)
    assert pd.K == pytest.approx(golden, abs=1e-9)
    assert abs(pd.H) <= 1e-8
    h_fd, k_fd = dg.mean_curvature_fd(lambda u, v: ct.catenoid_closed_form(SPEC, u, v),
                                      0.0, 0.0, h=1e-3)
    assert k_fd == pytest.approx(golden, abs=1e-9)
    assert abs(h_fd) <= 1e-8


def test_grid_diagnostics_on_integrated_surface():
    data = ct.catenoid_bjorling_data(SPEC)
    grid = fr.GridSpec((0.0, 2 * np.pi), (-0.6, 0.6), 9, 5)
    sg = fr.solve_bjorling(data, grid)
    dg.grid_diagnostics(sg)
    assert np.nanmax(np.abs(sg.H)) <= 1e-5
    assert np.nanmax(sg.gauss_residual) <= 1e-10
    assert np.nanmax(sg.conformality_defect) <= 1e-8 * float(1 + np.nanmax(sg.phi2))
    assert np.all(np.isfinite(sg.K[sg.valid]))


def test_mean_curvature_gauge_invariance():
    data = ct.catenoid_bjorling_data(SPEC)
    grid = fr.GridSpec((0.0, 2 * np.pi), (-0.5, 0.5), 7, 3)
    twist = lz.mat2(np.exp(0.7j), 0.3, 0.0, np.exp(-0.7j))
    plain = fr.solve_bjorling(data, grid)
    twisted = fr.solve_bjorling(data, grid, initial_twist=twist)
    dg.grid_diagnostics(plain)
    dg.grid_diagnostics(twisted)
    assert np.nanmax(np.abs(plain.H - twisted.H)) <= 1e-8
    assert np.nanmax(np.abs(plain.K - twisted.K)) <= 1e-8


DIAGNOSTIC_SLOTS = ("phi2", "H", "K", "conformality_defect", "gauss_residual",
                    "lightlike_residual", "second_form_imag")


def test_grid_node_on_a_pole_of_the_data_stays_valid_with_nan_slots():
    # power-type data G = u, omega = lam/u^2 has its pole on the node w = 0;
    # the stored X there is any light-cone point, the others are the surface
    nu = 0.5
    wd = bj.WeierstrassData.from_strings("u", f"{(1 - nu * nu) / 4!r}/u^2")
    def surface(u, v):
        if u == 0.0 and v == 0.0:
            return lz.F3.copy()
        f = ct.power_type_frame(nu, complex(u, v))
        return lz.hermitize(f @ lz.F3 @ f.conj().T)

    grid = dg.grid_diagnostics(
        cli._closed_form_grid(surface, fr.GridSpec((0.0, 1.0), (-0.5, 0.5), 5, 5), wd))
    pole = (2, 0)
    assert grid.valid[pole]
    for name in DIAGNOSTIC_SLOTS:
        slot = getattr(grid, name)
        assert np.isnan(slot[pole]), name
        others = np.ones(slot.shape, dtype=bool)
        others[pole] = False
        assert np.all(np.isfinite(slot[others])), name
    assert np.nanmax(np.abs(grid.H)) <= 1e-8
    with pytest.raises(IntegrationError):
        dg.point_diagnostics(wd, grid.X[pole], 0j)


def test_degenerate_metric_node_keeps_nan_curvatures(elliptic_wd):
    # lambda X is a light-cone point with the same M; scaling one node by
    # 1e-7 takes phi^2 below the floor while the tangent plane keeps rank 3
    grid = cli._closed_form_grid(lambda u, v: ct.catenoid_closed_form(SPEC, u, v),
                                 fr.GridSpec((0.0, 2 * np.pi), (-0.5, 0.5), 7, 3), elliptic_wd)
    node = (1, 3)
    grid.X[node] *= 1e-7
    x, w = grid.X[node], complex(grid.u[3], grid.v[1])
    xu, xv = dg.tangent_vectors(elliptic_wd, x, w)
    dg.gauss_map(x, xu, xv)  # the plane is not degenerate
    with pytest.raises(DegenerateMetricError):
        dg.point_diagnostics(elliptic_wd, x, w)
    dg.grid_diagnostics(grid)
    assert grid.valid[node]
    for name in DIAGNOSTIC_SLOTS:
        slot = getattr(grid, name)
        assert np.isnan(slot[node]), name
        assert np.sum(np.isnan(slot)) == 1, name


def test_perturbed_flow_is_a_negative_control():
    # a non-holomorphic coefficient breaks the construction; curvature shows it
    data = ct.catenoid_bjorling_data(SPEC)
    wd = bj.weierstrass_from_bjorling(data)
    f0 = lz.frame_from_point(lz.hermitize(data.gamma.eval(np.pi)))
    perturbed = SimpleNamespace(G_fn=wd.G_fn,
                                omega_fn=lambda w: wd.omega_fn(w) * (1 + 0.1 * w.real))

    def x_perturbed(u, v):
        f = fr.integrate_frame(perturbed, f0, [np.pi, u, complex(u, v)])
        return lz.hermitize(f @ lz.F3 @ f.conj().T)

    worst = 0.0
    for u, v in ((np.pi - 1.0, -1.0), (np.pi + 1.0, -1.0)):
        h_mean, _ = dg.mean_curvature_fd(x_perturbed, float(u), float(v), h=1e-3)
        worst = max(worst, abs(h_mean))
    assert worst >= 1e-3


def test_chartfree_grid_flags_the_degenerate_circle():
    c = 0.5
    grid = dg.chartfree_grid_diagnostics(
        lambda ut, v: ct.nonrotational_extension(c, ut, v),
        np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 1.0, 5))
    iu0 = 4  # the ut = 0 column
    assert np.all(np.isnan(grid.H[:, iu0]))
    away = np.abs(grid.u) > 0.2
    assert np.nanmax(np.abs(grid.H[:, away])) <= 1e-5
    # the metric really is degenerate there: v-speed e^{2cv} ut^2 -> 0
    assert np.allclose(grid.lightlike_residual, 0.0, atol=1e-12)
