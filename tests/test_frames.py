import numpy as np
import pytest

from conftest import is_special_orthogonal
from gconn.actions import get_action
from gconn.frames import (DomainError, PartialMovingFrame,
                          beta_equivariance_check, cross_section, dnat_rho,
                          dnat_rho_fd, eastward_field, latitude_curve,
                          pmf_from_field, rho_us2, _sample_off_poles)
from gconn.groups import exp_so3


def test_rho_columns_and_validation():
    m = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    R = rho_us2(np.concatenate([m, u]))
    assert np.allclose(R, np.eye(3))
    with pytest.raises(DomainError):
        rho_us2(np.concatenate([m, 2 * u]))
    with pytest.raises(DomainError):
        rho_us2(np.concatenate([m, m]))
    with pytest.raises(ValueError, match="expected a 6-vector"):
        rho_us2(m)


def test_rho_equivariance():
    A = get_action("so3-on-us2")
    rng = np.random.default_rng(50)
    for _ in range(10):
        p = A.random_point(rng)
        g = A.random_group(rng)
        assert np.linalg.norm(rho_us2(A.apply(g, p))
                              - np.asarray(g) @ rho_us2(p)) < 1e-12


def test_dnat_rho_matches_fd():
    A = get_action("so3-on-us2")
    rng = np.random.default_rng(51)
    for _ in range(10):
        p = A.random_point(rng)
        v = A.random_tangent(rng, p)
        assert np.linalg.norm(dnat_rho(p, v) - dnat_rho_fd(p, v)) < 1e-6


def test_eastward_field_unit_tangent_and_poles():
    m = np.array([0.6, 0.0, 0.8])
    y = eastward_field(m)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12
    assert abs(y @ m) < 1e-12
    with pytest.raises(DomainError):
        eastward_field(np.array([0.0, 0.0, 1.0]))


def test_phi_is_rotation_carrying_m_to_e1():
    pmf = pmf_from_field(eastward_field)
    rng = np.random.default_rng(52)
    for _ in range(5):
        m = rng.standard_normal(3)
        m /= np.linalg.norm(m)
        if abs(m[2]) > 0.9:
            continue
        g = pmf.phi(m)
        assert is_special_orthogonal(g)
        assert np.allclose(g[:, 0], m)
        assert np.allclose(cross_section(pmf, m), [1.0, 0.0, 0.0])


def test_slip_properties():
    pmf = pmf_from_field(eastward_field)
    rng = np.random.default_rng(53)
    for _ in range(10):
        m = rng.standard_normal(3)
        m /= np.linalg.norm(m)
        if abs(m[2]) > 0.9:
            continue
        g = exp_so3(0.8 * rng.standard_normal(3))
        gm = g @ m
        if abs(gm[2]) > 0.9:
            continue
        beta = pmf.slip(g, m)
        assert np.linalg.norm(beta @ m - gm) < 1e-12
        assert np.linalg.norm(pmf.phi(gm) - beta @ pmf.phi(m)) < 1e-10
        # slip differs from g by a rotation about m
        d = np.asarray(g).T @ beta
        assert np.linalg.norm(d @ m - m) < 1e-12


def test_slip_angle_trivial_for_vertical_rotations():
    # rotations about the z-axis preserve the eastward field, so no slip
    pmf = pmf_from_field(eastward_field)
    g = exp_so3(np.array([0.0, 0.0, 1.3]))
    m = np.array([0.6, -0.48, 0.64])
    m /= np.linalg.norm(m)
    assert abs(pmf.slip_angle(g, m)) < 1e-12
    assert np.linalg.norm(pmf.slip(g, m) - g) < 1e-12


def test_beta_equivariance_report():
    pmf = pmf_from_field(eastward_field)
    rep = beta_equivariance_check(pmf, samples=10,
                                  rng=np.random.default_rng(54))
    assert rep.all_passed, rep.to_text()


def test_frames_do_not_call_np_cross(monkeypatch):
    A = get_action("so3-on-us2")
    rng = np.random.default_rng(55)
    p = A.random_point(rng)
    v = A.random_tangent(rng, p)
    m = np.array([0.6, 0.0, 0.8])
    g = exp_so3(np.array([0.3, -0.2, 0.4]))
    pmf = pmf_from_field(eastward_field)

    def refuse(*args, **kwargs):
        raise AssertionError("np.cross called")

    monkeypatch.setattr(np, "cross", refuse)
    rho_us2(p)
    dnat_rho(p, v)
    eastward_field(m)
    pmf.dnat_phi(m, np.array([0.0, 1.0, 0.0]))
    pmf.slip_angle(g, m)
    beta_equivariance_check(pmf, samples=2, rng=np.random.default_rng(56))


def test_beta_check_differentiates_slip_once_per_sample(monkeypatch):
    calls = []
    original = PartialMovingFrame.dnat_slip

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PartialMovingFrame, "dnat_slip", counted)
    rep = beta_equivariance_check(pmf_from_field(eastward_field), samples=3,
                                  rng=np.random.default_rng(57))
    assert rep.all_passed, rep.to_text()
    assert len(calls) == 3


def test_latitude_identity():
    pmf = pmf_from_field(eastward_field)
    for theta0 in (0.7, 1.2):
        pt, vel = latitude_curve(theta0)
        for t in (0.0, 0.9):
            m, dm = pt(t), vel(t)
            assert abs(np.linalg.norm(m) - 1.0) < 1e-12
            assert abs(m @ dm) < 1e-12
            d = pmf.dnat_phi(m, dm)
            pred = np.cross(m, dm) + m / np.tan(theta0)
            assert np.linalg.norm(d - pred) < 1e-6


def test_custom_field_rejected_when_not_unit():
    pmf = PartialMovingFrame(lambda m: 2.0 * eastward_field(m))
    with pytest.raises(DomainError):
        pmf.phi(np.array([1.0, 0.0, 0.0]))


class _NoDraws:
    """A generator stand-in that fails the test if it is ever drawn from."""

    def standard_normal(self, size):
        raise AssertionError("sampler drew a point for an invalid cap")


@pytest.mark.parametrize("cap", [np.pi / 2, 2.0, -0.1, np.nan])
def test_sample_off_poles_rejects_bad_cap(cap):
    with pytest.raises(ValueError):
        _sample_off_poles(_NoDraws(), cap)


def test_sample_off_poles_gives_up_at_the_poles():
    class Pole:
        def standard_normal(self, size):
            return np.array([0.0, 0.0, 1.0])

    with pytest.raises(ValueError):
        _sample_off_poles(Pole())
