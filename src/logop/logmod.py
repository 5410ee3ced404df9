"""Truncated logarithmic modulus.

The modulus ell(rho) = |ln(min(rho, 0.1))|^(-1) replaces the power moduli of
classical Hölder theory everywhere in this package: the barrier fields and
kernel probes are built from powers of ell, and the exponent fits of
`regularity` run ordinary least squares in (ln ell(r), ln q) coordinates.
"""

from __future__ import annotations

import numpy as np

RHO0 = 0.1          # truncation cutoff of the modulus

__all__ = ["RHO0", "ell"]


def ell(rho, alpha=1.0):
    """Truncated logarithmic modulus |ln(min(rho, 0.1))|^(-alpha).

    Nondecreasing and concave in rho, constant equal to (ln 10)^(-alpha) on
    [0.1, oo), and tending to 0 as rho -> 0+.  alpha = 0 returns 1.
    Vectorized; raises ValueError on non-positive rho.
    """
    arr = np.asarray(rho, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("ell requires rho > 0")
    out = _ell(arr, alpha)
    if np.isscalar(rho) or arr.ndim == 0:
        return float(out)
    return out



def _ell(rho, alpha=1.0):
    """ell of a float array of positive radii, unchecked: the core of ell,
    for callers whose radii are positive by construction (the masked
    barrier profiles), which would otherwise pay ell's check on every call."""
    return np.abs(np.log(np.minimum(rho, RHO0))) ** (-alpha)
