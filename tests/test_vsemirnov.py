import cmath
import math

import numpy as np
import pytest

from legdet.arith import OddPrime, primes_in_range
from legdet.vsemirnov import build_uvd, decomposition_residual


def test_u_corner_is_zero():
    # At (0, 0) both symbol factors vanish, so the entry is exactly 0.
    for q in primes_in_range(3, 31):
        dec = build_uvd(q)
        assert dec.u[0, 0] == 0


def test_frozen_factors_p3():
    q = OddPrime(3)
    dec = build_uvd(q)
    z = cmath.exp(2j * math.pi / 3)
    assert abs(dec.v[0, 0] - 1) < 1e-12
    assert abs(dec.v[0, 1] - 1) < 1e-12
    assert abs(dec.v[1, 0] - 1) < 1e-12
    assert abs(dec.v[1, 1] - z ** 2) < 1e-12
    # u_01 = ((-1)/3) z^(-2) / z^(-1) = -z^(-1) = -z^2
    assert abs(dec.u[0, 1] - (-(z ** 2))) < 1e-12
    # u_10 = (1/3) z^(-2) / z^(-1) = z^2
    assert abs(dec.u[1, 0] - z ** 2) < 1e-12
    assert abs(dec.u[1, 1]) < 1e-12
    # lambda = ((-1)/3) t2 z^2 with t2 = z^2 - z, and (z^2 - z) z^2 = z - 1,
    # so lambda = -(z - 1) = 1 - z
    assert abs(dec.lam - (1 - z)) < 1e-12


def test_lambda_magnitude_is_sqrt_p():
    for q in primes_in_range(3, 61):
        dec = build_uvd(q)
        assert abs(abs(dec.lam) - math.sqrt(q.p)) < 1e-9


def test_diag_inverts_root_differences():
    for q in primes_in_range(3, 31):
        dec = build_uvd(q)
        z = [cmath.exp(2j * math.pi * k / q.p) for k in range(q.p)]
        for i in range(q.n + 1):
            prod = 1 + 0j
            for k in range(q.n + 1):
                if k != i:
                    prod *= z[(2 * i) % q.p] - z[(2 * k) % q.p]
            assert abs(dec.d[i, i] * prod - 1) < 1e-9


def test_v_det_is_vandermonde_product():
    for q in primes_in_range(3, 19):
        dec = build_uvd(q)
        z = [cmath.exp(2j * math.pi * k / q.p) for k in range(q.p)]
        nodes = [z[(2 * i) % q.p] for i in range(q.n + 1)]
        expect = 1 + 0j
        for j in range(len(nodes)):
            for i in range(j):
                expect *= nodes[j] - nodes[i]
        assert abs(complex(np.linalg.det(dec.v)) - expect) < 1e-6 * abs(expect) + 1e-9


def test_residual_small_over_range():
    for q in primes_in_range(3, 31):
        assert decomposition_residual(q) < 1e-6, q.p


def test_alt_diag_reading_changes_nothing():
    # Flipping the difference order scales D by a global sign, and D enters
    # the product twice, so the residual is identical either way.
    for q in primes_in_range(3, 23):
        a = decomposition_residual(q)
        b = decomposition_residual(q, alt_diag=True)
        assert abs(a - b) < 1e-12


def test_cap_enforced():
    with pytest.raises(ValueError):
        build_uvd(OddPrime(607))
    with pytest.raises(ValueError):
        decomposition_residual(OddPrime(607))
