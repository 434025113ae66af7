"""Exact-rational toolkit for certifying non-distillability of secret correlations.

Everything is computed over arbitrary-precision rationals; there is no
floating point and no tolerance parameter anywhere.
"""

from .certifier import Certificate, certify, verify_certificate
from .families import MapFamily, MapPair, deterministic_family, random_filter_family
from .measures import LambdaWitness, estimate_lambda_max, secret_bit_fraction
from .probvec import Axis, JointDist, LocalMap, apply_local

__all__ = [
    "Axis",
    "Certificate",
    "JointDist",
    "LambdaWitness",
    "LocalMap",
    "MapFamily",
    "MapPair",
    "apply_local",
    "certify",
    "deterministic_family",
    "estimate_lambda_max",
    "random_filter_family",
    "secret_bit_fraction",
    "verify_certificate",
]

__version__ = "0.1.0"
