"""Exact verification of Legendre-symbol matrix determinant identities."""

from .arith import OddPrime, is_prime, legendre, primes_in_range
from .cyclotomic import cauchy_det, frakp_residue, gauss_sum
from .errors import DiscrepancyError, LegdetError, PrecisionError
from .exactlinalg import (
    IntMatrix,
    IntPolynomial,
    det,
    toeplitz_charpoly,
    toeplitz_det,
    toeplitz_det_mod,
)
from .matrices import build_cp, build_ep, build_mp, charpoly_cp, det_cp, det_ep, det_mp
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
    "DiscrepancyError",
    "IntMatrix",
    "IntPolynomial",
    "LegdetError",
    "OddPrime",
    "PrecisionError",
    "QuadElem",
    "SweepReport",
    "VerificationRecord",
    "build_cp",
    "build_ep",
    "build_mp",
    "build_uvd",
    "cauchy_det",
    "chapman_ap",
    "charpoly_cp",
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
    "is_prime",
    "legendre",
    "primes_in_range",
    "quad_pow",
    "run_sweep",
    "toeplitz_charpoly",
    "toeplitz_det",
    "toeplitz_det_mod",
]
