import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcone import bjorling as bj
from lightcone import catenoids as ct
from lightcone import cli
from lightcone import frame as fr
from lightcone import lorentz as lz
from lightcone.errors import BranchCutWarning, DomainError, ValidationError

PARAMS = {"elliptic": (1.5, 4.0, -0.5), "hyperbolic": (1.5, 0.5, 3.0),
          "parabolic": (0.5, 1.0, -0.75)}


def test_spec_validation():
    with pytest.raises(ValidationError):
        ct.CatenoidSpec("elliptic", -2.0)
    with pytest.raises(ValidationError):
        ct.CatenoidSpec("parabolic", 0.0)
    with pytest.raises(ValidationError):
        ct.CatenoidSpec("round", 1.0)


def test_rotation_examples():
    assert np.array_equal(ct.rotation("elliptic", 0.0), np.eye(2))
    assert np.allclose(ct.rotation("hyperbolic", 1.0),
                       np.diag([math.e, 1 / math.e]), atol=1e-15)
    assert np.array_equal(ct.rotation("parabolic", 1.0), np.eye(2))


@pytest.mark.parametrize("family", ["elliptic", "hyperbolic"])
def test_rotation_group_property(family):
    for u1, u2 in ((0.3, 1.1), (-0.7, 0.4)):
        lhs = ct.rotation(family, u1) @ ct.rotation(family, u2)
        rhs = ct.rotation(family, u1 + u2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_parabolic_rotation_composes_as_translation():
    # the stored form has R(u1) R(u2) = R(u1 + u2 - 1): off-diagonals add
    for u1, u2 in ((0.3, 1.1), (-0.7, 0.4)):
        lhs = ct.rotation("parabolic", u1) @ ct.rotation("parabolic", u2)
        assert np.max(np.abs(lhs - ct.rotation("parabolic", u1 + u2 - 1.0))) <= 1e-15


def test_circle_examples():
    assert np.array_equal(ct.circle("elliptic", 0.0), lz.mat2(1, 1, 1, 1))
    assert np.array_equal(ct.circle("parabolic", 1.0), lz.mat2(1, 1, 1, 1))


def test_circle_is_the_rotation_orbit():
    base = lz.mat2(1, 1, 1, 1)
    for family in ct.FAMILIES:
        for u in (0.0, 0.8, -1.3):
            r = ct.rotation(family, u)
            orbit = r @ base @ r.conj().T
            assert np.max(np.abs(orbit - ct.circle(family, u))) <= 1e-12


def test_hyperbolic_circle_speed():
    # |gamma'|^2 = 4 for the hyperbolic circle, at every u
    h = 1e-6
    for u in (-0.8, 0.0, 0.9):
        dg = (ct.circle("hyperbolic", u + h) - ct.circle("hyperbolic", u - h)) / (2 * h)
        assert lz.minkowski_inner(dg, dg).real == pytest.approx(4.0, abs=1e-8)


def test_closed_form_seam_values():
    assert np.array_equal(ct.catenoid_closed_form(ct.CatenoidSpec("elliptic", 1.5), 0.0, 0.0),
                          lz.mat2(1, 1, 1, 1))
    for u in (0.0, 0.5, -1.2):
        got = ct.catenoid_closed_form(ct.CatenoidSpec("hyperbolic", 1.5), u, 0.0)
        assert np.max(np.abs(got - ct.circle("hyperbolic", u))) <= 1e-15


def test_parabolic_closed_form_factorization():
    c = 0.5
    spec = ct.CatenoidSpec("parabolic", c)
    for u, v in ((0.7, 0.3), (1.5, -0.6)):
        r = ct.rotation("parabolic", u + 1.0)
        core = math.exp(c * v) * lz.mat2(v * v, 1j * v, -1j * v, 1.0)
        assert np.max(np.abs(r @ core @ r.conj().T
                             - ct.catenoid_closed_form(spec, u, v))) <= 1e-13


@pytest.mark.parametrize("family", ct.FAMILIES)
def test_closed_forms_live_on_the_light_cone(family):
    (u0, u1) = ct.DEFAULT_INTERVALS[family]
    for p in PARAMS[family]:
        spec = ct.CatenoidSpec(family, p)
        for u in np.linspace(u0, u1, 41):
            for v in np.linspace(-1.0, 1.0, 41):
                x = ct.catenoid_closed_form(spec, float(u), float(v))
                scale = max(abs(x[0, 0] * x[1, 1]), abs(x[0, 1] * x[1, 0]))
                assert abs(lz.det2(x)) <= 1e-12 * (1.0 + scale)
                assert (x[0, 0] + x[1, 1]).real > 0


@pytest.mark.parametrize("family", ["elliptic", "hyperbolic"])
def test_rotational_invariance(family):
    spec = ct.CatenoidSpec(family, 1.5)
    for s in (0.4, -0.9, 2.2):
        r = ct.rotation(family, s)
        for u, v in ((0.0, 0.5), (0.7, -0.8)):
            lhs = ct.catenoid_closed_form(spec, u + s, v)
            rhs = r @ ct.catenoid_closed_form(spec, u, v) @ r.conj().T
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(lhs)))


def test_classification_weierstrass_printed_pairs():
    a, b, c = 1.5, 1.5, 0.5
    wd = ct.classification_weierstrass(ct.CatenoidSpec("elliptic", a))
    us = np.linspace(0, 2 * np.pi, 9)
    for u, g, om in zip(us.tolist(), *wd.jet_fn(us)[:2]):
        assert g == pytest.approx((a - 2) / (a + 2) * cmath.exp(2j * u))
        assert om == pytest.approx(-1j * (a + 2) ** 2 / 8 * cmath.exp(-2j * u))
    wd = ct.classification_weierstrass(ct.CatenoidSpec("hyperbolic", b))
    us = np.linspace(-1, 1, 9)
    for u, g, om in zip(us.tolist(), *wd.jet_fn(us)[:2]):
        assert g == pytest.approx((b + 2j) / (b - 2j) * cmath.exp(2 * u))
        assert om == pytest.approx((b - 2j) ** 2 / 8 * cmath.exp(-2 * u))
    wd = ct.classification_weierstrass(ct.CatenoidSpec("parabolic", c))
    us = np.linspace(0.5, 2, 9)
    for u, g, om in zip(us.tolist(), *wd.jet_fn(us)[:2]):
        assert g == pytest.approx(u + 2j / c)
        assert om == pytest.approx(c * c / 4)


def test_catenoid_data_reproduces_classification_data():
    # the boundary-data route and the classification table give the same (G, omega)
    for family, p in (("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5)):
        data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p))
        wd = bj.weierstrass_from_bjorling(data)
        table = ct.classification_weierstrass(ct.CatenoidSpec(family, p))
        us = data.nodes()
        for g, om, g_ref, om_ref in zip(*wd.jet_fn(us)[:2], *table.jet_fn(us)[:2]):
            assert abs(g - g_ref) <= 1e-10 * (1 + abs(g_ref))
            assert abs(om - om_ref) <= 1e-10 * (1 + abs(om_ref))


# ---------------------------------------------------------------------------
# reference frames

def test_polynomial_frame_at_zero_is_identity():
    for beta in (1.0, 0.5 + 0.2j, 3.0):
        assert np.max(np.abs(ct.polynomial_type_frame(beta, 0.0) - np.eye(2))) <= 1e-14


def test_power_frame_determinant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5))
        f = ct.power_type_frame(0.5, z)
        assert abs(lz.det2(f) - 1.0) <= 1e-12


@pytest.mark.parametrize("nu_or_beta, omega_expr, frame_fn", [
    (0.5, f"{(1 - 0.25) / 4!r}/u^2", lambda z: ct.power_type_frame(0.5, z)),
    (1.0, "1", lambda z: ct.polynomial_type_frame(1.0, z)),
])
def test_frames_satisfy_the_flow(nu_or_beta, omega_expr, frame_fn):
    wd = bj.WeierstrassData.from_strings("u", omega_expr)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(20):
        z = complex(rng.uniform(0.3, 1.8), rng.uniform(-1.0, 1.0))
        fd = (frame_fn(z + h) - frame_fn(z - h)) / (2 * h)
        residual = np.max(np.abs(fd - np.reshape(wd.coef_fn(z), (2, 2)) @ frame_fn(z)))
        assert residual <= 1e-8


def test_power_frame_branch_cut_warning():
    with pytest.warns(BranchCutWarning):
        ct.power_type_frame(0.5, complex(-1.0, 1e-9))
    with pytest.raises(DomainError):
        ct.power_type_frame(0.0, 1.0)


# ---------------------------------------------------------------------------
# the non-rotational example

def test_extension_hits_the_lightlike_circle_exactly():
    c = 0.5
    for v in (-1.0, 0.0, 0.8, 2.5):
        got = ct.nonrotational_extension(c, 0.0, v)
        assert np.array_equal(got, lz.mat2(0, 0, 0, math.exp(c * v)))
        circle = ct.lightlike_circle(c, v)
        assert np.array_equal(got, circle)
        # lightlike: zero self-product, but nonzero trace
        assert lz.minkowski_inner(circle, circle) == 0
        assert (circle[0, 0] + circle[1, 1]).real > 0


def test_extension_v_speed_formula():
    # <X~_v, X~_v> = e^{2cv} ut^2 (finite-difference oracle)
    c, h = 0.5, 1e-6
    for ut in np.linspace(-1.5, 1.5, 9):
        for v in np.linspace(-1.0, 1.0, 7):
            xv = (ct.nonrotational_extension(c, float(ut), float(v + h))
                  - ct.nonrotational_extension(c, float(ut), float(v - h))) / (2 * h)
            got = lz.minkowski_inner(xv, xv).real
            assert got == pytest.approx(math.exp(2 * c * v) * ut * ut, abs=1e-6)


def test_base_and_extension_charts_agree_for_positive_ut():
    c = 0.5
    for u in (-0.6, 0.0, 0.7):
        for v in (-0.5, 0.3):
            lhs = ct.nonrotational_closed_form(c, u, v)
            rhs = ct.nonrotational_extension(c, math.exp(u), v)
            assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_nonrotational_shares_the_parabolic_initial_curve():
    # X(u, 0) equals the parabolic circle after the chart map u -> e^u
    c = 0.5
    for u in np.linspace(math.log(0.5), math.log(2.0), 17):
        lhs = ct.nonrotational_closed_form(c, float(u), 0.0)
        rhs = ct.circle("parabolic", math.exp(u))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_nonrotational_data_gives_printed_weierstrass():
    c = 0.5
    wd = bj.weierstrass_from_bjorling(ct.nonrotational_bjorling_data(c))
    us = np.linspace(0.5, 2.0, 33)
    for u, g, om in zip(us.tolist(), *wd.jet_fn(us)[:2]):
        assert abs(g - (c + 2j) / c * u) <= 1e-10 * (1 + abs(u))
        assert abs(om - c * c / (4 * u * u)) <= 1e-10


def test_nonrotational_solve_recovers_the_curve():
    data = ct.nonrotational_bjorling_data(0.5)
    grid = fr.GridSpec((0.5, 2.0), (-0.4, 0.4), 11, 5)
    sg = fr.solve_bjorling(data, grid)
    assert np.all(sg.valid)
    assert np.nanmax(sg.boundary_curve_residual) <= 1e-8
    assert np.nanmax(sg.boundary_tangent_residual) <= 1e-6


@pytest.mark.parametrize("family, p", [
    ("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5)])
def test_closed_forms_have_zero_mean_curvature(family, p):
    from lightcone import diagnostics as dgn
    spec = ct.CatenoidSpec(family, p)
    wd = ct.classification_weierstrass(spec)
    (u0, u1) = ct.DEFAULT_INTERVALS[family]
    for u in np.linspace(u0, u1, 7):
        for v in (-0.8, 0.0, 0.8):
            x = ct.catenoid_closed_form(spec, u, v)
            pd = dgn.point_diagnostics(wd, x, complex(u, v))
            assert abs(pd.H) <= 1e-6


# ---------------------------------------------------------------------------
# closed-form grids: one array call with the bits of per-node math/cmath

def _reference_entries(family, p, u, v):
    """The scalar entries the closed forms were first written with, in
    math/cmath, node by node; family "nonrotational" is the base chart."""
    if family == "elliptic":
        return math.exp((p - 2) * v), cmath.exp(2j * u + p * v), math.exp((p + 2) * v)
    if family == "hyperbolic":
        return math.exp(2 * u + p * v), cmath.exp((p + 2j) * v), math.exp(-2 * u + p * v)
    s = math.exp(p * v)
    if family == "parabolic":
        return s * (u * u + v * v), s * (u + 1j * v), s
    return s * math.exp(2 * u), s * cmath.exp(u + 1j * v), s


_ranges = st.tuples(st.floats(-6.0, 6.0), st.floats(0.01, 8.0)).map(lambda t: (t[0], t[0] + t[1]))


@given(family=st.sampled_from(ct.FAMILIES + ("nonrotational",)),
       param=st.floats(-5.0, 5.0).filter(lambda p: p not in (0.0, -2.0)),
       u_range=_ranges, v_range=_ranges.map(lambda r: (r[0] / 3, r[1] / 3)),
       n_u=st.integers(2, 9), n_v=st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_closed_form_grid_has_the_bits_of_the_per_node_formulas(family, param, u_range,
                                                               v_range, n_u, n_v):
    if family == "nonrotational":
        entries = functools.partial(ct.nonrotational_entries, param)
    else:
        entries = functools.partial(ct.catenoid_entries, ct.CatenoidSpec(family, param))
    grid = cli._closed_form_grid(entries, fr.GridSpec(u_range, v_range, n_u, n_v), None)
    want = np.array([[lz.herm(*_reference_entries(family, param, u, v))
                      for u in grid.u.tolist()] for v in grid.v.tolist()])
    assert grid.X.tobytes() == want.tobytes()
    if family != "nonrotational":  # the public closed form, one node at a time
        spec = ct.CatenoidSpec(family, param)
        got = np.array([[ct.catenoid_closed_form(spec, u, v) for u in grid.u.tolist()]
                        for v in grid.v.tolist()])
    else:
        got = np.array([[ct.nonrotational_closed_form(param, u, v) for u in grid.u.tolist()]
                        for v in grid.v.tolist()])
    assert got.tobytes() == want.tobytes()
