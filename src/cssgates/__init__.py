"""Diagonal transversal gate groups of CSS codes.

The package computes, for a CSS code built from nested binary codes and a
phase level ell, the three nested groups of diagonal gates with 2^ell-th
root-of-unity phases: those fixing the code space, those acting as a
transversal logical gate, and those acting as the logical identity. It
also decomposes logical actions into multiply-controlled phase factors,
evaluates closed forms for monomial codes, and cross-checks everything
against brute-force oracles on small instances.
"""

from . import bincode, gates, monomial, oracle, zmod
from .bincode import *  # noqa: F401,F403
from .gates import *  # noqa: F401,F403
from .monomial import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .zmod import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *bincode.__all__, *zmod.__all__, *gates.__all__, *monomial.__all__, *oracle.__all__]
