"""Exact verification of Legendre-symbol matrix determinant identities."""

from .arith import OddPrime, is_prime, legendre, primes_in_range
from .cyclotomic import (
    CycElem,
    cauchy_det,
    frakp_residue,
    gauss_sum,
    gauss_sum_scaled,
    quadratic_gauss_identity,
)
from .errors import DiscrepancyError, LegdetError, PrecisionError
from .exactlinalg import (
    IntMatrix,
    IntPolynomial,
    adjugate,
    charpoly,
    det,
    rank_one_update_det,
    toeplitz_det,
)
from .matrices import build_cp, build_ep, build_mp, det_cp, det_ep, det_mp
from .quadfield import (
    ClassNumberReport,
    QuadElem,
    chapman_ap,
    class_number_imag,
    class_number_real,
    fundamental_unit,
    quad_pow,
)
from .verify import SweepReport, VerificationRecord, run_sweep
from .vsemirnov import build_uvd, decomposition_residual

__version__ = "0.1.0"

__all__ = [
    "ClassNumberReport",
    "CycElem",
    "DiscrepancyError",
    "IntMatrix",
    "IntPolynomial",
    "LegdetError",
    "OddPrime",
    "PrecisionError",
    "QuadElem",
    "SweepReport",
    "VerificationRecord",
    "adjugate",
    "build_cp",
    "build_ep",
    "build_mp",
    "build_uvd",
    "cauchy_det",
    "chapman_ap",
    "charpoly",
    "class_number_imag",
    "class_number_real",
    "decomposition_residual",
    "det",
    "det_cp",
    "det_ep",
    "det_mp",
    "frakp_residue",
    "fundamental_unit",
    "gauss_sum",
    "gauss_sum_scaled",
    "is_prime",
    "legendre",
    "primes_in_range",
    "quad_pow",
    "quadratic_gauss_identity",
    "rank_one_update_det",
    "run_sweep",
    "toeplitz_det",
]
