import cmath

import numpy as np
import pytest

from lightcone import bjorling as bj
from lightcone import catenoids as ct
from lightcone import expr as ex
from lightcone import lorentz as lz
from lightcone.errors import DataInconsistencyError, EvalError, ValidationError


def elliptic_data(a=1.5, **kw):
    return ct.catenoid_bjorling_data(ct.CatenoidSpec("elliptic", a), **kw)


def test_data_validation():
    with pytest.raises(ValidationError):
        bj.BjorlingData(elliptic_data().gamma, elliptic_data().tangent, (1.0, 1.0))
    with pytest.raises(ValidationError):
        bj.BjorlingData(elliptic_data().gamma, elliptic_data().tangent, (0.0, 1.0), samples=5)


def test_chebyshev_nodes_cover_endpoints():
    nodes = bj.chebyshev_nodes(-1.0, 3.0, 9)
    assert nodes[0] == pytest.approx(-1.0)
    assert nodes[-1] == pytest.approx(3.0)
    assert np.all(np.diff(nodes) > 0)


def test_lambda_matches_hand_formula():
    a = 1.5
    lam_fn = bj.lambda_expr(elliptic_data(a)).eval
    for u in (0.0, 0.7, 2.9):
        lam = lam_fn(u)
        hand = 0.5 * np.array([
            [-1j * (a - 2), 1j * (2 - a) * cmath.exp(2j * u)],
            [-1j * (2 + a) * cmath.exp(-2j * u), -1j * (a + 2)]])
        assert np.max(np.abs(lam - hand)) <= 1e-14


def test_lambda_with_zero_tangent_field_is_half_velocity():
    data = elliptic_data()
    zero = ex.Const(0j)
    forced = bj.BjorlingData(data.gamma, bj.MatrixExpr(zero, zero, zero, zero),
                             data.interval)
    lam = bj.lambda_expr(forced).eval(1.1)
    assert np.max(np.abs(lam - 0.5 * data.gamma.diff().eval(1.1))) <= 1e-15


def test_lambda_is_singular_on_admissible_data():
    for family, p in (("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5)):
        data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p))
        lam_fn = bj.lambda_expr(data).eval
        for u in data.nodes():
            assert abs(lz.det2(lam_fn(u))) <= 1e-10


def test_conformality_passes_on_catenoid_data():
    for family, p in (("elliptic", 1.5), ("elliptic", 4.0),
                      ("hyperbolic", 1.5), ("parabolic", 0.5)):
        rep = bj.check_conformality(ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p)))
        assert rep.passed
        assert rep.worst_residual() <= 1e-12


def test_conformality_rejects_f1_field():
    # <gamma(0), f1> = 1, so the constant field f1 violates <gamma, L> = 0
    data = elliptic_data()
    f1 = bj.MatrixExpr(ex.Const(0j), ex.Const(1 + 0j), ex.Const(1 + 0j), ex.Const(0j))
    rep = bj.check_conformality(bj.BjorlingData(data.gamma, f1, data.interval))
    assert not rep.passed
    assert any("<gamma,L>" in msg for msg in rep.failures)


def test_conformality_residual_of_doubled_field():
    # |2L|^2 - |gamma'|^2 = 3 |gamma'|^2 = 12 on the elliptic circle
    data = elliptic_data()
    doubled = bj.MatrixExpr(*(ex.mul(ex.Const(2 + 0j), e)
                              for e in data.tangent.entries()))
    rep = bj.check_conformality(bj.BjorlingData(data.gamma, doubled, data.interval))
    assert not rep.passed
    assert np.max(np.abs(rep.speed_mismatch)) == pytest.approx(12.0, abs=1e-9)


def test_orientability_accepted_branch():
    rep = bj.check_orientability(elliptic_data())
    assert rep.passed
    assert np.min(np.abs(rep.d1)) == pytest.approx(2.0, abs=1e-12)
    assert np.all(rep.area_signs == -1)


@pytest.mark.parametrize("family, p", [
    ("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5)])
def test_orientability_rejected_branch(family, p):
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p), flip_tangent_sign=True)
    assert bj.check_conformality(data).passed  # conformality alone cannot tell
    rep = bj.check_orientability(data)
    assert not rep.passed
    assert np.max(np.abs(rep.d1)) <= 1e-10


@pytest.mark.parametrize("family, p, printed_g, printed_om", [
    ("elliptic", 1.5,
     lambda u: (1.5 - 2) / (1.5 + 2) * cmath.exp(2j * u),
     lambda u: -1j * (1.5 + 2) ** 2 / 8 * cmath.exp(-2j * u)),
    ("hyperbolic", 1.5,
     lambda u: (1.5 + 2j) / (1.5 - 2j) * cmath.exp(2 * u),
     lambda u: (1.5 - 2j) ** 2 / 8 * cmath.exp(-2 * u)),
    ("parabolic", 0.5,
     lambda u: u + 2j / 0.5,
     lambda u: 0.5 ** 2 / 4),
])
def test_weierstrass_matches_printed_forms(family, p, printed_g, printed_om):
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p))
    wd = bj.weierstrass_from_bjorling(data)
    us = np.linspace(*data.interval, 33)
    for u, g, om in zip(us, *wd.jet_fn(us)[:2]):
        assert abs(g - printed_g(u)) <= 1e-10 * (1 + abs(g))
        assert abs(om - printed_om(u)) <= 1e-10 * (1 + abs(om))


def test_weierstrass_two_routes_agree():
    data = elliptic_data()
    lam = bj.lambda_expr(data)
    for u in data.nodes():
        lv = lam.eval(u)
        g1 = lv[0, 0] / lv[1, 0]
        g2 = lv[0, 1] / lv[1, 1]
        assert abs(g1 - g2) <= 1e-9 * (1 + abs(g1))
        gv = data.gamma.eval(u)
        om1 = lv[1, 0] ** 2 / (lv[1, 0] * gv[0, 0] - lv[0, 0] * gv[1, 0])
        om2 = lv[1, 1] ** 2 / (lv[1, 1] * gv[0, 1] - lv[0, 1] * gv[1, 1])
        assert abs(om1 - om2) <= 1e-9 * (1 + abs(om1))


def test_trace_identity_on_admissible_data():
    for family, p in (("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5)):
        data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p))
        lam = bj.lambda_expr(data)
        for u in data.nodes():
            lv, gv = lam.eval(u), data.gamma.eval(u)
            ident = (lv[0, 0] * gv[1, 1] - lv[0, 1] * gv[1, 0]
                     - lv[1, 0] * gv[0, 1] + lv[1, 1] * gv[0, 0])
            assert abs(ident) <= 1e-10


def test_reconstruction_omega_gamma_equals_lambda():
    # [[G, -G^2], [1, -G]] omega gamma = Lambda, entrywise
    for family, p in (("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5)):
        data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p))
        wd = bj.weierstrass_from_bjorling(data)
        lam_fn = bj.lambda_expr(data).eval
        for u, g, om in zip(data.nodes(), *wd.jet_fn(data.nodes())[:2]):
            coef = om * np.array([[g, -g * g], [1.0, -g]])
            lhs = coef @ data.gamma.eval(u)
            lam = lam_fn(u)
            scale = 1.0 + float(np.max(np.abs(lam)))
            assert np.max(np.abs(lhs - lam)) <= 1e-9 * scale


def test_inadmissible_data_raises_inconsistency():
    # break the conformality by scaling the field; extraction must refuse
    data = elliptic_data()
    scaled = bj.MatrixExpr(*(ex.mul(ex.Const(1.1 + 0j), e)
                             for e in data.tangent.entries()))
    with pytest.raises(DataInconsistencyError):
        bj.weierstrass_from_bjorling(bj.BjorlingData(data.gamma, scaled, data.interval))


def test_extracted_pole_on_the_seam_is_an_inconsistency():
    # on [0, 3] the parabolic data has Lambda21 = 0 exactly at the node u = 0,
    # and the midpoint picks the (11)/(21) route, so G has a pole on the seam
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec("parabolic", 0.5))
    data = bj.BjorlingData(data.gamma, data.tangent, (0.0, 3.0))
    assert bj.lambda_expr(data).eval(0.0)[1, 0] == 0
    with pytest.raises(DataInconsistencyError, match="extracted data has a pole") as err:
        bj.weierstrass_from_bjorling(data)
    assert err.value.u == 0.0


def test_matrix_eval_takes_a_number_or_an_array():
    m = bj.MatrixExpr.from_strings("u", "1/u", "2", "exp(i*u)")
    assert m.eval(0.5).shape == (2, 2)
    stack = m.eval(np.array([[0.5, 0.0], [1.0, 2.0]]))
    assert stack.shape == (2, 2, 2, 2)
    assert np.isnan(stack[0, 1]).all()  # the pole of m12 at u = 0 takes the whole matrix
    assert np.all(stack[1, :, 1, 0] == 2) and stack[0, 0, 1, 0] == 2  # a constant broadcasts
    assert stack[1, 1].tobytes() == m.eval(2.0).tobytes()
    scalar = ex.compile_ast(m.entries())(2 + 0j)
    assert m.eval(2.0).tobytes() == np.array(scalar).reshape(2, 2).tobytes()


@pytest.mark.parametrize("step", [bj.check_conformality, bj.check_orientability,
                                  bj.weierstrass_from_bjorling])
def test_a_sample_where_the_data_is_nan_raises_eval_error(step):
    # inf - inf: NaN for u != 0 without a raise, which no residual comparison would catch
    data = elliptic_data()
    nan = ex.parse("u*1e300*1e300 - u*1e300*1e300")
    tangent = bj.MatrixExpr(ex.add(data.tangent.m11, nan), *data.tangent.entries()[1:])
    with pytest.raises(EvalError) as err:
        step(bj.BjorlingData(data.gamma, tangent, data.interval))
    assert err.value.w == data.nodes()[1]  # u = 0 is the first node, where the term is 0
    name = "Lambda" if step is bj.weierstrass_from_bjorling else "L"
    assert str(err.value).startswith(f"{name} is not finite at w = ")


@pytest.mark.parametrize("family, p", [("elliptic", 1.5), ("hyperbolic", 1.5)])
def test_the_midpoint_route_choice_is_a_tie_that_route_1_wins(family, p):
    # |Lambda22| = |Lambda21| at the midpoint, in floating point too; a bit
    # moved there would flip the route and change every solved surface
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec(family, p))
    lam = bj.lambda_expr(data)
    mid = 0.5 * (data.interval[0] + data.interval[1])
    lam_mid = lam.eval(mid)
    scalar = ex.compile_ast(lam.entries())(complex(mid))
    assert lam_mid.tobytes() == np.array(scalar).reshape(2, 2).tobytes()
    assert abs(lam_mid[1, 1]) == abs(lam_mid[1, 0])
    assert bj.weierstrass_from_bjorling(data).G == ex.div(lam.m11, lam.m21)
