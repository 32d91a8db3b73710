import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lightcone import lorentz as lz
from lightcone.errors import DegenerateInputError, DomainError, ValidationError

_coords = st.floats(-1e6, 1e6, allow_nan=False)


def test_basis_vectors():
    assert lz.herm_to_vec(lz.F0) == lz.Vec4(-1, 0, 0, 1)
    assert lz.herm_to_vec(lz.F1) == lz.Vec4(0, 1, 0, 0)
    assert lz.herm_to_vec(lz.F2) == lz.Vec4(0, 0, 1, 0)
    assert lz.herm_to_vec(lz.F3) == lz.Vec4(0.5, 0, 0, 0.5)
    assert lz.herm_to_vec(lz.E3) == lz.Vec4(0, 0, 0, 1)


def test_vec_to_herm_examples():
    assert np.array_equal(lz.vec_to_herm(lz.Vec4(1, 0, 0, 0)), np.eye(2))
    assert lz.herm_to_vec(lz.mat2(1, 0, 0, 0)) == lz.Vec4(0.5, 0, 0, 0.5)
    assert np.array_equal(lz.vec_to_herm(lz.Vec4(0, 1, 0, 0)), lz.F1)


def test_non_hermitian_input_names_the_entry():
    with pytest.raises(ValidationError, match="m21"):
        lz.herm_to_vec(lz.mat2(1, 1j, 1j, 1))
    with pytest.raises(ValidationError, match="m11"):
        lz.herm_to_vec(lz.mat2(1 + 1j, 0, 0, 1))


@given(t=_coords, x=_coords, y=_coords, z=_coords)
def test_vec_herm_roundtrip(t, x, y, z):
    v = lz.Vec4(t, x, y, z)
    back = lz.herm_to_vec(lz.vec_to_herm(v))
    scale = 1.0 + abs(t) + abs(x) + abs(y) + abs(z)
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(v, back))


def test_inner_product_examples():
    assert lz.minkowski_inner(lz.F1, lz.F1) == pytest.approx(1.0)
    assert lz.minkowski_inner(lz.F3, lz.F3) == pytest.approx(0.0)
    assert lz.minkowski_inner(lz.F0, lz.F3) == pytest.approx(1.0)


def test_inner_product_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        a = lz.herm(rng.normal(), complex(rng.normal(), rng.normal()), rng.normal())
        scale = 1.0 + float(np.max(np.abs(a))) ** 2
        assert abs(lz.minkowski_inner(a, a) + lz.det2(a)) <= 1e-12 * scale


def test_inner_product_matches_component_formula():
    rng = np.random.default_rng(7)
    for _ in range(2_000):
        va = lz.Vec4(*rng.normal(size=4))
        vb = lz.Vec4(*rng.normal(size=4))
        component = -va.t * vb.t + va.x * vb.x + va.y * vb.y + va.z * vb.z
        matrix = lz.minkowski_inner(lz.vec_to_herm(va), lz.vec_to_herm(vb))
        assert abs(matrix.imag) <= 1e-12
        assert matrix.real == pytest.approx(component, abs=1e-12, rel=1e-12)


def test_bilinear_and_symmetric():
    rng = np.random.default_rng(3)
    def rand_mat():
        return lz.mat2(*(complex(a, b) for a, b in rng.normal(size=(4, 2))))
    for _ in range(200):
        a, b, c = rand_mat(), rand_mat(), rand_mat()
        s = complex(rng.normal(), rng.normal())
        assert lz.minkowski_inner(a, b) == pytest.approx(lz.minkowski_inner(b, a))
        lhs = lz.minkowski_inner(a, s * b + c)
        rhs = s * lz.minkowski_inner(a, b) + lz.minkowski_inner(a, c)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_lightcone_membership():
    ok, _ = lz.is_lightcone_point(lz.mat2(1, 1, 1, 1))
    assert ok
    ok, res = lz.is_lightcone_point(np.eye(2, dtype=complex))
    assert not ok and res == pytest.approx(1.0)
    ok, _ = lz.is_lightcone_point(lz.mat2(0, 0, 0, 0))
    assert not ok  # trace condition


def test_frame_from_point_examples():
    assert np.allclose(lz.frame_from_point(lz.F3), np.eye(2), atol=1e-15)
    assert np.allclose(lz.frame_from_point(lz.mat2(1, 1, 1, 1)),
                       lz.mat2(1, 0, 1, 1), atol=1e-15)
    r = math.sqrt(2)
    assert np.allclose(lz.frame_from_point(lz.mat2(2, 0, 0, 0)),
                       lz.mat2(r, 0, 0, 1 / r), atol=1e-15)


def test_frame_from_point_rejects_non_lightcone():
    with pytest.raises(DomainError):
        lz.frame_from_point(np.eye(2, dtype=complex))


@given(xr=st.floats(-10, 10), xi=st.floats(-10, 10),
       yr=st.floats(-10, 10), yi=st.floats(-10, 10))
def test_frame_from_point_reconstructs(xr, xi, yr, yi):
    xi_vec = np.array([complex(xr, xi), complex(yr, yi)])
    norm2 = float(np.sum(np.abs(xi_vec) ** 2))
    assume(norm2 > 1e-4)
    x = np.outer(xi_vec, xi_vec.conj())
    f = lz.frame_from_point(x)
    assert abs(lz.det2(f) - 1.0) <= 1e-12
    assert np.max(np.abs(f @ lz.F3 @ f.conj().T - x)) <= 1e-12 * (1.0 + norm2)


def test_stereographic_projection():
    assert lz.stereographic_project(lz.vec_to_herm(lz.Vec4(1, 1, 0, 0))) == \
        pytest.approx((0.5, 0.0, 0.0))
    assert lz.stereographic_project(lz.F3) == pytest.approx((0.0, 0.0, 1 / 3))
    for t in (0.5, 1.0, 7.3):  # the time axis maps to the origin
        assert lz.stereographic_project(lz.vec_to_herm(lz.Vec4(t, 0, 0, 0))) == \
            pytest.approx((0.0, 0.0, 0.0))


_entries = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _hermitian_stacks(draw):
    """(n_v, n_u, 2, 2) Hermitian stacks with t > -1 at every node; entries
    span the whole finite range, signed zeros and subnormals included."""
    n_v, n_u = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stack = np.empty((n_v, n_u, 2, 2), dtype=complex)
    for iv in range(n_v):
        for iu in range(n_u):
            m11, m22, re, im = (draw(_entries) for _ in range(4))
            assume(0.5 * (m11 + m22) > -1.0)
            stack[iv, iu] = lz.herm(m11, complex(re, im), m22)
    return stack


@given(_hermitian_stacks())
def test_stacked_projection_matches_per_point_calls_bitwise(stack):
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float limit
        _check_stack_against_points(stack)


def _check_stack_against_points(stack):
    got = lz.stereographic_project(stack)
    n_v, n_u = stack.shape[:2]
    want = [[lz.stereographic_project(stack[iv, iu]) for iu in range(n_u)]
            for iv in range(n_v)]
    for k in range(3):
        assert got[k].shape == (n_v, n_u)
        per_point = np.array([[p[k] for p in row] for row in want])
        assert got[k].tobytes() == per_point.tobytes()
    # and the operations are the documented ones, in Python floats
    for iv in range(n_v):
        for iu in range(n_u):
            m = stack[iv, iu]
            s = 1.0 / (1.0 + 0.5 * (float(m[0, 0].real) + float(m[1, 1].real)))
            z = 0.5 * (float(m[0, 0].real) - float(m[1, 1].real))
            want_xyz = (float(m[0, 1].real) * s, float(m[0, 1].imag) * s, z * s)
            assert np.array(want[iv][iu]).tobytes() == np.array(want_xyz).tobytes()
    vec = lz.herm_to_vec(stack)
    for k in range(4):
        per_point = np.array([[lz.herm_to_vec(stack[iv, iu])[k] for iu in range(n_u)]
                              for iv in range(n_v)])
        assert vec[k].tobytes() == per_point.tobytes()


def test_one_point_keeps_its_scalar_results_and_messages():
    a, b, c = lz.stereographic_project(lz.F3)
    assert all(type(x) is np.float64 for x in (a, b, c))
    assert all(type(x) is np.float64 for x in lz.herm_to_vec(lz.F1))
    with pytest.raises(ValidationError) as exc:
        lz.require_hermitian(lz.mat2(1 + 1j, 0, 0, 1))
    assert str(exc.value) == "entry m11 = (1+1j) is not real"
    with pytest.raises(ValidationError) as exc:
        lz.require_hermitian(lz.mat2(1, 1j, 1j, 1))
    assert str(exc.value) == "entry m21 = 1j is not the conjugate of m12 = 1j"
    with pytest.raises(DomainError) as exc:
        lz.stereographic_project(lz.vec_to_herm(lz.Vec4(-2.0, 0, 0, 0)))
    assert str(exc.value) == "stereographic projection undefined at t = -2.0"


def test_stack_errors_name_the_first_failing_node():
    stack = np.broadcast_to(lz.F3, (3, 4, 2, 2)).copy()
    stack[2, 0] = lz.mat2(1, 0, 0, 1 + 2j)
    stack[1, 3] = lz.mat2(1, 1j, 1j, 1)
    with pytest.raises(ValidationError) as exc:
        lz.require_hermitian(stack)
    assert str(exc.value) == "entry m21 = 1j is not the conjugate of m12 = 1j at node (1, 3)"
    stack[1, 3] = lz.F3
    with pytest.raises(ValidationError, match=r"entry m22 = \(1\+2j\) is not real at node \(2, 0\)"):
        lz.stereographic_project(stack)
    stack[2, 0] = lz.F3
    stack[0, 2] = lz.vec_to_herm(lz.Vec4(-1.0, 0, 0, 0))
    with pytest.raises(DomainError,
                       match=r"undefined at t = -1.0 at node \(0, 2\)"):
        lz.stereographic_project(stack)
    lz.require_hermitian(stack[None])  # a t <= -1 point is still Hermitian


def test_stereographic_image_in_unit_ball():
    rng = np.random.default_rng(11)
    for _ in range(100):
        xi_vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = np.outer(xi_vec, xi_vec.conj())
        if (x[0, 0] + x[1, 1]).real < 1e-6:
            continue
        a, b, c = lz.stereographic_project(x)
        assert 0.0 < a * a + b * b + c * c < 1.0


def test_signed_area_sq_examples():
    assert lz.signed_area_sq(lz.F1, lz.F2) == pytest.approx(1.0)
    assert lz.signed_area_sq(lz.F1, 2 * lz.F1 + lz.F2) == pytest.approx(1.0)


def test_signed_area_sign_examples():
    base = 2 * lz.F3
    assert lz.signed_area_sign(base, lz.F1, lz.F2) == 1
    assert lz.signed_area_sign(base, lz.F1, -lz.F2) == -1


def test_signed_area_sign_rejects_dependent_pair():
    with pytest.raises(DegenerateInputError):
        lz.signed_area_sign(2 * lz.F3, lz.F1, 3 * lz.F1)


_tangent_coeff = st.floats(-5, 5, allow_nan=False)


@given(l1=_tangent_coeff, b=_tangent_coeff, c=_tangent_coeff,
       l2=_tangent_coeff, e=_tangent_coeff, f=_tangent_coeff)
def test_signed_area_sign_antisymmetric(l1, b, c, l2, e, f):
    assume(abs(b * f - c * e) > 1e-6)
    base = 2 * lz.F3
    u = l1 * base + b * lz.F1 + c * lz.F2
    v = l2 * base + e * lz.F1 + f * lz.F2
    s = lz.signed_area_sign(base, u, v)
    assert s in (1, -1)
    assert lz.signed_area_sign(base, v, u) == -s
    # and the sign matches the hand decomposition
    assert s == (1 if b * f - c * e > 0 else -1)


def test_signed_area_sq_on_the_elliptic_circle_data():
    # |gamma'|^2 = |L|^2 = 4 and <gamma', L> = 0, so SA^2 = 16 at every u
    from lightcone import catenoids as ct
    data = ct.catenoid_bjorling_data(ct.CatenoidSpec("elliptic", 1.5))
    dgamma = data.gamma.diff()
    for u in (0.0, 0.9, 2.4, 5.8):
        sa_sq = lz.signed_area_sq(dgamma.eval(u), data.tangent.eval(u))
        assert sa_sq == pytest.approx(16.0, abs=1e-12)
