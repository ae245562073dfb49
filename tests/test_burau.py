"""Specialized Burau representation of B_3: faithfulness certificate."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobcert.burau import (
    ANNULUS_CONJECTURED,
    ANNULUS_PROVED,
    annulus_report,
    burau_generators,
    burau_slack_array,
    faithful_certificate,
    faithful_mask,
    is_faithful,
    mu_coordinates,
    rho_of_mu,
)
from mobcert.mobius import EPS_ALG, InvalidInputError, det2, inv2, tr2

SQRT3 = math.sqrt(3.0)
MU_SHARP = (3.0 + math.sqrt(5.0)) / 2.0

mu_values = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=30.0, allow_nan=False, allow_infinity=False
)


class TestGenerators:
    @given(mu=mu_values)
    @settings(max_examples=80, deadline=None)
    def test_braid_relation_and_det(self, mu):
        g = burau_generators(mu)
        assert abs(det2(g.A) - 1.0) < 1e-9
        assert abs(det2(g.B) - 1.0) < 1e-9
        # the defining B_3 relation ABA = BAB survives specialization
        lhs = g.A @ g.B @ g.A
        rhs = g.B @ g.A @ g.B
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(lhs).max())

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            burau_generators(0.0)


    @pytest.mark.parametrize("mu", [complex("nan"), complex("inf"), complex("nan+1j")], ids=["nan", "inf", "nan+1j"])
    def test_rejects_non_finite(self, mu):
        with pytest.raises(InvalidInputError):
            mu_coordinates(mu)
        with pytest.raises(InvalidInputError):
            faithful_certificate(mu)


class TestCoordinates:
    @given(mu=mu_values)
    @settings(max_examples=80, deadline=None)
    def test_gamma_identity(self, mu):
        # tr[A, B] - 2 = -(z^2 + 3) links the braid matrices to the
        # (3, 2) marking with rho = sqrt(3) + i z.
        g = burau_generators(mu)
        pt = mu_coordinates(mu)
        gamma = tr2(g.A @ g.B @ inv2(g.A) @ inv2(g.B)) - 2.0
        assert abs(gamma - (-(pt.z**2 + 3.0))) < 1e-8 * max(1.0, abs(gamma))

    @given(mu=mu_values)
    @settings(max_examples=80, deadline=None)
    def test_z_and_branches(self, mu):
        pt = mu_coordinates(mu)
        r = cmath.sqrt(mu)
        assert abs(pt.z - (r - 1.0 / r)) < 1e-10 * max(1.0, abs(pt.z))
        # sqrt(3) lambda = z +- sqrt(z^2 + 3), branch product -1
        for lam in (pt.lam, pt.lam_other):
            v = SQRT3 * lam
            assert abs(v * v - 2.0 * pt.z * v - 3.0) < 1e-8 * max(1.0, abs(v) ** 2)
        assert abs(pt.lam * pt.lam_other + 1.0) < 1e-9
        assert abs(pt.lam) >= abs(pt.lam_other) - 1e-12
        assert abs(pt.rho - (SQRT3 + 1j * pt.z)) < 1e-12

    def test_rho_of_mu_both_branches_sum_to_sigma(self):
        rho1, rho2 = rho_of_mu(4.0 + 1.0j, both=True)
        assert abs((rho1 + rho2) - 2.0 * SQRT3) < 1e-12


class TestFaithfulness:
    def test_sharp_modulus_point(self):
        # mu = (3 + sqrt(5))/2: z = 1 exactly, branches {3, -1}/sqrt(3),
        # slack exactly zero -- certified by the closed inequality.
        pt = mu_coordinates(MU_SHARP)
        assert abs(pt.z - 1.0) < 1e-12
        branch_vals = sorted([SQRT3 * pt.lam, SQRT3 * pt.lam_other], key=lambda v: abs(v))
        assert abs(branch_vals[1] - 3.0) < 1e-9
        assert abs(branch_vals[0] + 1.0) < 1e-9
        cert = faithful_certificate(MU_SHARP)
        assert cert.certified and cert.verdict == "Faithful"
        assert abs(cert.slack) < 1e-9

    def test_minus_one_excluded(self):
        # mu = -1: z = 2i, branches {3i, i}/sqrt(3); modulus reaches the
        # threshold but the point itself is the known unfaithful exception.
        pt = mu_coordinates(-1.0 + 0.0j)
        assert abs(pt.z - 2j) < 1e-12
        vals = sorted([SQRT3 * pt.lam, SQRT3 * pt.lam_other], key=lambda v: abs(v))
        assert abs(vals[1] - 3j) < 1e-9
        assert abs(vals[0] - 1j) < 1e-9
        cert = faithful_certificate(-1.0 + 0.0j)
        assert not cert.certified
        assert cert.detail.get("exception") == "mu = -1"
        assert not is_faithful(-1.0 + 0.0j)

    def test_reference_values(self):
        assert is_faithful(9.0 + 0.0j)
        assert is_faithful(3.0 + 0.0j)
        assert not is_faithful(1.0 + 0.0j)  # branches +-sqrt(3), modulus 3 not reached
        c9 = faithful_certificate(9.0 + 0.0j)
        assert c9.slack > 1.6

    @given(mu=mu_values)
    @settings(max_examples=60, deadline=None)
    def test_inversion_invariance(self, mu):
        # the faithful set is invariant under mu -> 1/mu (z flips sign).
        a = is_faithful(mu)
        b = is_faithful(1.0 / mu)
        assert a == b


class TestAnnuli:
    def test_constants(self):
        lo, hi = ANNULUS_PROVED
        assert abs(lo - (3.0 - 2.0 * math.sqrt(2.0))) < 1e-12
        assert abs(hi - (3.0 + 2.0 * math.sqrt(2.0))) < 1e-12
        lo_c, hi_c = ANNULUS_CONJECTURED
        assert abs(lo_c - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-12
        assert abs(hi_c - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-12
        assert lo < lo_c < hi_c < hi

    def test_report(self):
        rep = annulus_report(MU_SHARP)
        assert rep.certified_faithful
        assert rep.in_proved_annulus and rep.in_conjectured_annulus
        rep_far = annulus_report(100.0 + 0.0j)
        assert rep_far.certified_faithful
        assert not rep_far.in_proved_annulus

    def test_unfaithful_moduli_inside_conjectured_annulus(self):
        # every non-certified mu on a real/imaginary probe grid has modulus
        # within the conjectured annulus (the acceptance test scans 400^2).
        vals = np.concatenate(
            [
                np.linspace(-3.5, 3.5, 141),
                1j * np.linspace(-3.5, 3.5, 141),
                (1 + 1j) * np.linspace(-2.5, 2.5, 101),
            ]
        )
        vals = vals[np.abs(vals) > 1e-9]
        mask = faithful_mask(vals)
        lo_c, hi_c = ANNULUS_CONJECTURED
        bad = vals[~mask]
        bad = bad[np.abs(bad + 1.0) > 1e-9]  # mu = -1 is excluded by fiat
        assert (np.abs(bad) >= lo_c - 1e-9).all()
        assert (np.abs(bad) <= hi_c + 1e-9).all()

    def test_mask_matches_scalar(self):
        # faithful_mask (the burau scan mode) agrees with the scalar
        # certificate, including the excluded point mu = -1.
        rng = np.random.default_rng(4)
        mu = rng.uniform(-4.0, 4.0, 200) + 1j * rng.uniform(-4.0, 4.0, 200)
        mu = np.append(mu, [-1.0, 1.0, 3.0])
        mask = faithful_mask(mu)
        for ok, m in zip(mask, mu):
            assert bool(ok) == is_faithful(complex(m))

    def test_slack_array_matches_scalar(self):
        rng = np.random.default_rng(2)
        mu = rng.normal(0, 2, 30) + 1j * rng.normal(0, 2, 30)
        mu = mu[np.abs(mu) > 0.05]
        arr = burau_slack_array(mu)
        for v, m in zip(arr, mu):
            pt = mu_coordinates(complex(m))
            assert abs(v - (SQRT3 * abs(pt.lam) - 3.0)) < 1e-9
