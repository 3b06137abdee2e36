"""The similarity dimension of a self-similar set.

It needs only ``math``, so it lives apart from ``fractals`` and its numpy:
the ``simdim`` command loads this module alone.  ``fractals`` hands it out
as ``fractals.similarity_dimension``.
"""

from __future__ import annotations

import math

from .errors import check_count, check_real


def similarity_dimension(n_copies: int, ratio: float) -> float:
    """Dimension D with n_copies * ratio**D == 1 for a self-similar set."""
    n_copies = check_count(n_copies, "n_copies", 1)
    check_real(ratio, "ratio", "(0, 1)")
    return -math.log(n_copies) / math.log(ratio)
