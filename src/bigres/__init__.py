"""Exact bigraded syzygy computations for three forms on P^1 x P^1."""

__version__ = "0.1.0"

from .exactcore import GF, QQ, DEFAULT_PRIME, ExactMatrix, FieldSpec
from .bipoly import BiPoly, SystemF, strand_basis, strand_dim
