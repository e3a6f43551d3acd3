"""Numeric tolerances and global budget caps, in one place.

Everything downstream reads tolerances from a single record so that a
change (or the ``CQRL_TOL`` override) propagates consistently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: hard cap on coset / grid enumerations (number of points)
ENUMERATION_CAP = 1 << 20

#: hard cap on the extended tilting-space dimension
TILT_DIM_CAP = 4096


@dataclass(frozen=True)
class Tolerances:
    """Single tolerance table.

    The 1e-9 family guards hermiticity, positivity, trace, probability
    and information-quantity checks.  ``eig_floor`` is the clamp
    threshold applied to eigenvalues before entropies: values in
    [-psd, eig_floor] are treated as exact zeros, anything more
    negative is an invalid state.  ``rate`` closes strict rate
    inequalities (a point on the boundary counts as infeasible).
    """

    herm: float = 1e-9
    psd: float = 1e-9
    trace: float = 1e-9
    prob: float = 1e-9
    info: float = 1e-9
    rate: float = 1e-9
    commute: float = 1e-9
    eig_floor: float = 1e-12
    lp_residual: float = 1e-8


DEFAULT_TOL = Tolerances()


def active_tolerances() -> Tolerances:
    """Tolerances in effect for library calls.

    The ``CQRL_TOL`` environment variable overrides the whole 1e-9
    family at once (eig_floor and the LP residual are structural and
    stay put).  Verification runs construct :data:`DEFAULT_TOL`
    directly and ignore the override.
    """
    raw = os.environ.get("CQRL_TOL")
    if raw is None:
        return DEFAULT_TOL
    v = float(raw)
    return Tolerances(herm=v, psd=v, trace=v, prob=v, info=v, rate=v,
                      commute=v)
