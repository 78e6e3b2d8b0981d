import numpy as np
import pytest

from conftest import is_special_orthogonal
from gconn import frames
from gconn.actions import get_action
from gconn.cli import main
from gconn.frames import (DomainError, PartialMovingFrame,
                          beta_equivariance_check, cross_section, dnat_rho,
                          dnat_rho_fd, eastward_field, latitude_curve,
                          pmf_from_field, rho_us2, sample_off_poles_pair,
                          _sample_off_poles)
from gconn.groups import exp_so3, triple
from gconn.report import VerificationReport


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


def test_beta_equivariance_records_hold_to_1e_5():
    pmf = pmf_from_field(eastward_field)
    rep = beta_equivariance_check(pmf, samples=2,
                                  rng=np.random.default_rng(54))
    tols = {(c.check_id, c.tolerance) for c in rep.checks
            if c.check_id in ("product-rule", "generator-difference")}
    assert tols == {("product-rule", 1e-5), ("generator-difference", 1e-5)}


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


def test_dnat_phi_is_the_frame_derivative_along_the_section():
    """d_phi(dm) is dnat_rho at (m, Y(m)) along (dm, dY(dm)), bit for
    bit, with dm first projected onto the tangent plane as d_phi does."""
    pmf = pmf_from_field(eastward_field)
    rng = np.random.default_rng(56)
    for _ in range(200):
        m = _sample_off_poles(rng)
        dm = rng.standard_normal(3)
        d = np.array(frames._tangent(triple(m), triple(dm)))
        p = np.concatenate([m, eastward_field(m)])
        v = np.concatenate([d, eastward_field.derivative(m, d)])
        assert np.array_equal(pmf.dnat_phi(m, dm), dnat_rho(p, v))


def test_seed_391_frame_miss_is_the_oracles(tmp_path):
    """At ``s2-pmf-beta --seed 391``, sample 12 puts g m 0.64 degrees from
    the pole, where a 2-point difference at a step of 1e-6 errs 1.036e-6
    on dnat_slip; the 4-point difference at ``FD_STEP`` errs 1.5e-9."""
    out = tmp_path / "r.json"
    assert main(["--scenario", "s2-pmf-beta", "--seed", "391",
                 "--out", str(out)]) == 0
    rep = VerificationReport.from_json(out.read_text())
    [record] = [c for c in rep.checks if c.check_id == "frame-d-exact-vs-fd"]
    assert record.residual <= 1e-8


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
    def doubled(m):
        return 2.0 * eastward_field(m)

    doubled.derivative = lambda m, w: 2.0 * eastward_field.derivative(m, w)
    pmf = PartialMovingFrame(doubled)
    with pytest.raises(DomainError):
        pmf.phi(np.array([1.0, 0.0, 0.0]))


def test_sample_off_poles_gives_up_at_the_poles():
    class Pole:
        def standard_normal(self, size):
            return np.array([0.0, 0.0, 1.0])

    with pytest.raises(ValueError):
        _sample_off_poles(Pole())


@pytest.mark.parametrize("pole", [1.0, -1.0])
def test_sample_off_poles_keeps_polar_distance_above_0_15(pole):
    # draws at polar distance 0.14 and then 0.16 from the pole: the first
    # is rejected and the second returned
    class Draws:
        points = [np.array([np.sin(a), 0.0, pole * np.cos(a)])
                  for a in (0.14, 0.16)]

        def standard_normal(self, size):
            return self.points.pop(0).copy()

    m = _sample_off_poles(Draws())
    assert m == pytest.approx([np.sin(0.16), 0.0, pole * np.cos(0.16)])


def test_sample_off_poles_pair_redraws_a_rotation_onto_a_pole():
    # the first rotation moves m = e_x onto the north pole, a quarter turn
    # about e_y; the second, the identity, keeps it where it is
    class Draws:
        draws = [np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]),
                 np.zeros(3)]
        fractions = [1.0]

        def standard_normal(self, size):
            return self.draws.pop(0).copy()

        def random(self):
            return self.fractions.pop(0)

    m, g = sample_off_poles_pair(get_action("so3-on-s2"), Draws())
    assert m == pytest.approx([1.0, 0.0, 0.0])
    assert np.array_equal(g, np.eye(3))


def test_sample_off_poles_pair_gives_up_when_every_rotation_hits_a_pole():
    class Draws:
        def __init__(self):
            self.draws = iter([np.array([1.0, 0.0, 0.0])])

        def standard_normal(self, size):
            return next(self.draws, np.array([0.0, -1.0, 0.0]))

        def random(self):
            return 1.0

    with pytest.raises(ValueError, match="no rotation keeps m off"):
        sample_off_poles_pair(get_action("so3-on-s2"), Draws())
