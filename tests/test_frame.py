from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from lightcone import bjorling as bj
from lightcone import catenoids as ct
from lightcone import frame as fr
from lightcone import lorentz as lz
from lightcone.errors import IntegrationError


def test_ode_rhs_polynomial_data_at_origin():
    # the right-hand side M F of the frame equation, at F = I
    wd = bj.WeierstrassData.from_strings("u", "1")  # G = z, omega = beta^2 with beta = 1
    rhs = np.reshape(wd.coef_fn(0j), (2, 2)) @ np.eye(2, dtype=complex)
    assert np.array_equal(rhs, lz.mat2(0, 0, 1, 0))


def test_ode_rhs_linear_in_frame():
    # M F vanishes at F = 0, so the zero frame does not move
    wd = ct.classification_weierstrass(ct.CatenoidSpec("elliptic", 1.5))
    assert np.array_equal(fr.integrate_frame(wd, np.zeros((2, 2)), [0.3, 0.5]),
                          np.zeros((2, 2)))


def test_ode_rhs_elliptic_at_origin_matches_direct_evaluation():
    a = 1.5
    wd = ct.classification_weierstrass(ct.CatenoidSpec("elliptic", a))
    g0 = (a - 2) / (a + 2)
    om0 = -1j * (a + 2) ** 2 / 8
    m = om0 * np.array([[g0, -g0 * g0], [1.0, -g0]])
    f = lz.mat2(1, 0, 1, 1)
    assert np.max(np.abs(np.reshape(wd.coef_fn(0j), (2, 2)) @ f - m @ f)) <= 1e-14


def test_coefficient_matrix_is_tracefree_and_singular():
    wd = ct.classification_weierstrass(ct.CatenoidSpec("hyperbolic", 1.5))
    for w in (0.0, 0.6 - 0.2j, -1.0 + 0.9j):
        m = np.reshape(wd.coef_fn(w), (2, 2))
        assert m[0, 0] + m[1, 1] == 0  # trace vanishes exactly
        assert abs(lz.det2(m)) <= 1e-14 * (1.0 + float(np.max(np.abs(m))) ** 2)


def test_integrate_constant_when_omega_vanishes():
    wd = bj.WeierstrassData.from_strings("u", "0")
    f0 = lz.mat2(1, 2j, 0, 1)
    f = fr.integrate_frame(wd, f0, [0.0, 3.0 + 2.0j])
    assert np.array_equal(f, f0)


def test_integrate_matches_polynomial_frame():
    # closed form with beta = 1 over the unit square
    wd = bj.WeierstrassData.from_strings("u", "1")
    worst = 0.0
    for zr in (0.3, 1.0):
        for zi in (-1.0, 0.4, 1.0):
            z = complex(zr, zi)
            f = fr.integrate_frame(wd, np.eye(2, dtype=complex), [0.0, z])
            worst = max(worst, float(np.max(np.abs(f - ct.polynomial_type_frame(1.0, z)))))
    assert worst <= 1e-8


def test_integrate_matches_power_frame_along_reals():
    nu = 0.5
    lam = (1 - nu * nu) / 4
    wd = bj.WeierstrassData.from_strings("u", f"{lam!r}/u^2")
    f0 = ct.power_type_frame(nu, 1.0)
    f = fr.integrate_frame(wd, f0, [1.0, 2.0])
    assert np.max(np.abs(f - ct.power_type_frame(nu, 2.0))) <= 1e-8
    # and from a generic SL(2,C) start: F(2) = F0(2) F0(1)^{-1} F_start
    start = lz.mat2(1.2, 0.3 - 0.1j, 0.2j, 0)
    start[1, 1] = (1 + start[0, 1] * start[1, 0]) / start[0, 0]
    f = fr.integrate_frame(wd, start, [1.0, 2.0])
    f0inv = np.linalg.inv(ct.power_type_frame(nu, 1.0))
    target = ct.power_type_frame(nu, 2.0) @ f0inv @ start
    assert np.max(np.abs(f - target)) <= 1e-8


def test_integrator_reports_pole():
    wd = bj.WeierstrassData.from_strings("u", "1/u")
    with pytest.raises(IntegrationError):
        fr.integrate_frame(wd, np.eye(2, dtype=complex), [-1.0, 1.0])


def test_det_drift_is_monitored_and_renormalization_optional():
    wd = ct.classification_weierstrass(ct.CatenoidSpec("elliptic", 1.5))
    stats = fr.IntegrationStats()
    f = fr.integrate_frame(wd, lz.mat2(1, 0, 1, 1), [0.0, 2.0, 2.0 + 1.0j], stats=stats)
    assert stats.steps > 0
    assert stats.max_det_drift <= 1e-8
    f_renorm = fr.integrate_frame(wd, lz.mat2(1, 0, 1, 1), [0.0, 2.0, 2.0 + 1.0j],
                                  renormalize_det=True)
    assert abs(lz.det2(f_renorm) - 1.0) <= 1e-13
    assert np.max(np.abs(f - f_renorm)) <= 1e-9


@pytest.fixture(scope="module")
def elliptic_solution():
    spec = ct.CatenoidSpec("elliptic", 1.5)
    data = ct.catenoid_bjorling_data(spec)
    grid = fr.GridSpec((0.0, 2 * np.pi), (-1.0, 1.0), 13, 7)
    return spec, data, fr.solve_bjorling(data, grid)


def test_solve_reproduces_closed_form(elliptic_solution):
    spec, _, sg = elliptic_solution
    assert np.all(sg.valid)
    worst = 0.0
    for iv, v in enumerate(sg.v):
        for iu, u in enumerate(sg.u):
            ref = ct.catenoid_closed_form(spec, float(u), float(v))
            worst = max(worst, float(np.max(np.abs(sg.X[iv, iu] - ref))))
    assert worst <= 1e-6


def test_solve_boundary_recovery(elliptic_solution):
    _, _, sg = elliptic_solution
    assert np.nanmax(sg.boundary_curve_residual) <= 1e-8
    assert np.nanmax(sg.boundary_tangent_residual) <= 1e-6


def test_solution_stays_on_the_light_cone(elliptic_solution):
    _, _, sg = elliptic_solution
    assert np.nanmax(sg.det_drift) <= 1e-8
    for iv in range(sg.n_v):
        for iu in range(sg.n_u):
            x = sg.X[iv, iu]
            scale = 1.0 + float(np.max(np.abs(x))) ** 2
            assert abs(lz.det2(x)) <= 1e-8 * scale
            assert (x[0, 0] + x[1, 1]).real > 0
            lz.require_hermitian(x)


def test_gauge_independence(elliptic_solution):
    _, data, sg = elliptic_solution
    twist = lz.mat2(np.exp(0.7j), 0.3, 0.0, np.exp(-0.7j))
    # the twist fixes f3, so the surface cannot move
    assert np.max(np.abs(twist @ lz.F3 @ twist.conj().T - lz.F3)) <= 1e-15
    grid = fr.GridSpec((0.0, 2 * np.pi), (-1.0, 1.0), 13, 7)
    twisted = fr.solve_bjorling(data, grid, initial_twist=twist)
    assert np.max(np.abs(sg.X - twisted.X)) <= 1e-9


def test_path_independence(elliptic_solution):
    _, data, _ = elliptic_solution
    wd = bj.weierstrass_from_bjorling(data)
    f0 = lz.frame_from_point(lz.hermitize(data.gamma.eval(np.pi)))
    for target in (np.pi + 1.3 + 0.8j, np.pi - 0.9 - 0.6j):
        fa = fr.integrate_frame(wd, f0, [np.pi, target.real, target])
        fb = fr.integrate_frame(wd, f0, [np.pi, complex(np.pi, target.imag), target])
        assert np.max(np.abs(fa - fb)) <= 1e-7


def test_solve_marks_unreachable_nodes_invalid():
    # field with a pole at u = 0: nodes at and beyond the pole stay invalid
    data = ct.nonrotational_bjorling_data(0.5)
    grid = fr.GridSpec((-0.25, 2.0), (-0.25, 0.25), 10, 3)
    sg = fr.solve_bjorling(data, grid)
    assert not np.all(sg.valid)
    assert np.any(sg.valid)
    for iu, u in enumerate(sg.u):
        if u <= 0:
            assert not sg.valid[:, iu].any()


def test_column_order_walks_away_from_the_seam():
    up, down = fr._column_order(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    assert up == [2, 3, 4]
    assert down == [1, 0]


def test_elliptic_coefficients_agree_with_the_power_frame_route():
    # the elliptic data is the pullback of G = z, omega = lam dz/z^2 under
    # z = ((a-2)/(a+2)) e^{2iw}; the coefficient matrix must match the
    # finite difference of w -> F0(z(w)) along that substitution
    a = 1.5
    nu_lam = (4 - a * a) / 16
    nu = np.sqrt(1 - 4 * nu_lam)  # lam = (1 - nu^2)/4
    wd = ct.classification_weierstrass(ct.CatenoidSpec("elliptic", a))

    def frame_via_substitution(w):
        z = (a - 2) / (a + 2) * np.exp(2j * w)
        return ct.power_type_frame(nu, z)

    # z(u) is negative real at u = 0 mod pi, i.e. on the principal cut of
    # z^{1/2}; probe away from it, where F0(z(w)) is analytic
    h = 1e-6
    for w in (0.4, 0.8 + 0.3j, 2.0 - 0.5j):
        f = frame_via_substitution(w)
        fd = (frame_via_substitution(w + h) - frame_via_substitution(w - h)) / (2 * h)
        residual = np.max(np.abs(fd - np.reshape(wd.coef_fn(w), (2, 2)) @ f))
        assert residual <= 1e-7 * (1 + np.max(np.abs(fd)))


def test_repeated_solves_are_byte_identical():
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec("hyperbolic", 1.5))
    grid = fr.GridSpec((-1.0, 1.0), (-0.5, 0.5), 9, 5)
    first, second = (fr.solve_bjorling(data, grid) for _ in range(2))
    assert first.valid.all()
    assert first.F.tobytes() == second.F.tobytes()
    assert first.X.tobytes() == second.X.tobytes()


def test_thread_count_does_not_change_the_solution():
    # the solver keeps no shared mutable state: four solves running in
    # concurrent Python threads give the serial solve's bytes
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec("hyperbolic", 1.5))
    grid = fr.GridSpec((-1.0, 1.0), (-0.5, 0.5), 9, 5)
    serial = fr.solve_bjorling(data, grid)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda _: fr.solve_bjorling(data, grid), range(4)))
    for sol in threaded:
        assert np.array_equal(serial.valid, sol.valid)
        assert sol.F.tobytes() == serial.F.tobytes()
        assert sol.X.tobytes() == serial.X.tobytes()


def test_threads_env_var_resolution(monkeypatch):
    # LIGHTCONE_THREADS is no longer read and threads= no longer exists:
    # any setting of the variable leaves the solve byte-identical
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec("elliptic", 1.0))
    grid = fr.GridSpec((-1.0, 1.0), (-0.5, 0.5), 9, 5)
    monkeypatch.delenv("LIGHTCONE_THREADS", raising=False)
    unset = fr.solve_bjorling(data, grid)
    for value in ("3", "bogus", "0"):
        monkeypatch.setenv("LIGHTCONE_THREADS", value)
        sol = fr.solve_bjorling(data, grid)
        assert sol.X.tobytes() == unset.X.tobytes()
    assert not hasattr(fr, "_resolve_threads")
    with pytest.raises(TypeError):
        fr.solve_bjorling(data, grid, threads=2)


def test_integrate_irregular_segment_lengths():
    # segments that are not multiples of h_max must terminate cleanly
    wd = bj.WeierstrassData.from_strings("u", "1")
    for end in (1 / 3, 0.1 + 0.2j, 0.015625, 1e-9):
        f = fr.integrate_frame(wd, np.eye(2, dtype=complex), [0.0, end])
        assert np.max(np.abs(f - ct.polynomial_type_frame(1.0, end))) <= 1e-8


def test_coefficient_calls_per_step_and_retry():
    # six bit-distinct points per step-doubled attempt; a retry keeps M(w)
    wd = ct.classification_weierstrass(ct.CatenoidSpec("hyperbolic", 1.5))
    calls = [0]

    def counted(w):
        calls[0] += 1
        return wd.coef_fn(w)

    stats = fr.IntegrationStats()
    fr.integrate_frame(SimpleNamespace(coef_fn=counted), np.eye(2, dtype=complex),
                       [0.0, 0.7j], eps_loc=1e-14, stats=stats)
    assert stats.rejected > 0
    assert calls[0] == 6 * stats.steps + 5 * stats.rejected


@pytest.mark.parametrize("family, counts", [("elliptic", (901, 6180, 0)),
                                            ("hyperbolic", (901, 10742, 831))])
def test_integrator_counts_at_41x21(monkeypatch, family, counts):
    # segments, accepted steps and rejected steps over one 41x21 solve; any
    # change in step control shows here
    totals = [0, 0, 0]
    integrate = fr.integrate_frame

    def counting(wd, f0, path, **kwargs):
        stats = fr.IntegrationStats()
        f = integrate(wd, f0, path, stats=stats, **kwargs)
        totals[0] += len(path) - 1
        totals[1] += stats.steps
        totals[2] += stats.rejected
        return f

    monkeypatch.setattr(fr, "integrate_frame", counting)
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, 1.5))
    grid = fr.GridSpec(ct.DEFAULT_INTERVALS[family], (-1.0, 1.0), 41, 21)
    fr.solve_bjorling(data, grid)
    assert tuple(totals) == counts
