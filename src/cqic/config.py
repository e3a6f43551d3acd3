"""Numeric tolerances, global budget caps and the integer and seed input rules.

Everything downstream reads one tolerance record, which
:func:`tolerance_scope` sets for a block in its own context only (other
threads keep theirs).  Library callers use the scope; the CLI reads
``CQRL_TOL`` once per run; the battery always runs on the stock table.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatch, DomainError

#: hard cap on coset / grid enumerations (number of points)
ENUMERATION_CAP = 1 << 20

#: hard cap on the extended tilting-space dimension (memory grows as D**2)
TILT_DIM_CAP = 1024


def _integer(x, what, error=ConfigMismatch) -> int:
    """``x`` as an int: it must be an integer or a float of integral value."""
    if (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            or isinstance(x, (float, np.floating)) and float(x).is_integer()):
        return int(x)
    raise error(f"{what} must be an integer, got {x!r}")


def _seed(x, what="seed") -> int:
    """``x`` as a random seed: a non-negative int by the integer rule."""
    x = _integer(x, what, DomainError)
    if x < 0:
        raise DomainError(f"{what} must be non-negative, got {x}")
    return x


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

_SCOPED = contextvars.ContextVar("cqic_tolerances")  # unset outside scopes


def active_tolerances() -> Tolerances:
    """The table of this context's innermost scope, else DEFAULT_TOL."""
    return _SCOPED.get(DEFAULT_TOL)


def in_tolerance_scope() -> bool:
    """Whether a :func:`tolerance_scope` is in effect in this context."""
    return _SCOPED.get(None) is not None


@contextlib.contextmanager
def tolerance_scope(family: float | None = None):
    """Run a block on one table: ``family`` (finite, above 0) sets the 1e-9
    family, not eig_floor or lp_residual; ``None`` means DEFAULT_TOL."""
    if family is not None and not (math.isfinite(family) and family > 0.0):
        raise DomainError(f"tolerance {family} must be finite and above 0")
    token = _SCOPED.set(DEFAULT_TOL if family is None else Tolerances(
        herm=family, psd=family, trace=family, prob=family, info=family,
        rate=family, commute=family))
    try:
        yield
    finally:
        _SCOPED.reset(token)
