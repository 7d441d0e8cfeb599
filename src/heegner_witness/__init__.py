"""Desk-scale witness pipeline: Heegner points, ring class towers, L-values.

The package verifies, curve by curve, every constructive ingredient needed to
grow the Mordell-Weil rank through a tower of ring class fields: the auxiliary
imaginary quadratic field, the prime q and the prime sequence {p_n}, the exact
Galois structure of the ring class steps, numeric Heegner point identities
(trace relation, Gross-Zagier correspondence), and the exact q-divisibility
bookkeeping that rules out a finitely generated limit group.
"""

__version__ = "0.1.0"

from .ec_core import CurveQ, an_series, ap, count_points, discriminant, good_reduction
from .quadforms import kronecker, reduced_forms

__all__ = [
    "CurveQ",
    "an_series",
    "ap",
    "count_points",
    "discriminant",
    "good_reduction",
    "kronecker",
    "reduced_forms",
    "__version__",
]
