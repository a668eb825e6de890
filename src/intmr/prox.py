"""Soft-thresholding operators used by the consensus updates.

soft_threshold and group_soft_threshold check their thresholds.  The solver
loop thresholds through the unchecked _shrink and _group_shrink instead,
since admm.run_chains checks its penalty paths once per run.  Given
buffers, both write their results into them and allocate nothing, so the
loop's thresholds write straight into its iterate.  The entrywise threshold
is a - clip(a, -b, b), by Moreau's decomposition (Parikh & Boyd, Proximal
Algorithms, 2014, sec. 2.5): the clip is the projection onto the dual-norm
ball, and _shrink can hand it to the loop as the new scaled dual.  Groups
of one entry (one dataset) are thresholded entrywise.
"""

import numpy as np

from .model import group_norms

__all__ = ["soft_threshold", "group_soft_threshold"]

_TINY = np.finfo(float).smallest_subnormal


def _check_threshold(t):
    if np.any(np.less(t, 0)):
        raise ValueError("threshold must be nonnegative")


def _shrink(a, lower, upper, out=None, clipped=None):
    """The soft threshold of a at upper = -lower >= 0, as a - clip(a, lower,
    upper), written to `out` when given.  The clip, taken as
    min(max(a, lower), upper) (two ufuncs run faster than np.clip), is
    written to `clipped` when given; `clipped` may be `out`."""
    c = np.minimum(np.maximum(a, lower, out=clipped), upper, out=clipped)
    return np.subtract(a, c, out=out)


def _group_shrink(c, d, out=None, magnitude=None, norms=None, squares=None):
    """The groupwise threshold of c and (||g|| - d)+, the norm of each of
    its groups, written to `out` and `magnitude` when given; `norms` (shaped
    like c[0]) and `squares` (like c) are workspaces.  A group axis of
    length 1 (one dataset) makes every group one entry, thresholded
    entrywise by _shrink."""
    if len(c) == 1:
        shrunk = _shrink(c[0], np.negative(d), d, None if out is None else out[0])
        return shrunk[None], np.abs(shrunk, out=magnitude)
    g = group_norms(c, norms, squares)
    # (norm - d)+ / norm rather than (1 - d / norm)+: subtracting first keeps
    # full precision when d is close to the norm.  A zero group has a zero
    # numerator too, so dividing it by the smallest subnormal instead of its
    # norm maps it to 0, and leaves every other quotient as it is
    shrunk = np.maximum(np.subtract(g, d, out=magnitude), 0.0, out=magnitude)
    scale = np.divide(shrunk, np.maximum(g, _TINY, out=norms), out=norms)
    return np.multiply(scale, c, out=out), shrunk


def soft_threshold(a, b):
    """Entrywise soft threshold sign(a) * max(|a| - b, 0), computed as
    a - clip(a, -b, b), so a zero result is +0.

    Proximal operator of b * |.|; a may be a scalar or an array, and b a
    threshold that broadcasts against it.
    """
    _check_threshold(b)
    out = _shrink(np.asarray(a, dtype=float), np.negative(b), b)
    return float(out) if out.ndim == 0 else out


def group_soft_threshold(c, d):
    """Groupwise soft threshold (1 - d / ||g||_2)+ g, with 0 mapped to 0.

    Groups run along axis 0: for c of shape (M, ...) each group is the
    length-M vector c[:, j, ...], and a 1-D vector is a single group.
    Proximal operator of d times the sum of the group norms; d may be an
    array that broadcasts against the group norms, c.shape[1:].  Groups of
    one entry, c of shape (1, ...), get the entrywise soft threshold.
    """
    _check_threshold(d)
    return _group_shrink(np.asarray(c, dtype=float), d)[0]
