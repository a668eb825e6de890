"""Soft-thresholding operators used by the consensus updates.

soft_threshold and group_soft_threshold check their thresholds.  The solver
loop thresholds through the unchecked _shrink and _group_shrink instead,
both in one _consensus_shrink call over its flat [C | B] buffer, since
admm.run_chains checks its penalty paths once per run.  Given
buffers, both write their results into them and allocate nothing, so the
loop's thresholds write straight into its iterate.  Each threshold is its
input minus its projection, by Moreau's decomposition (Parikh & Boyd,
Proximal Algorithms, 2014, secs. 2.5 and 6.5): the prox of t|.| is
a - clip(a, -t, t), and the prox of t||.||_2 is a - a min(1, t / ||a||),
the projections onto the dual-norm balls of radius t.  Both bodies can hand
the projection to the loop as the new scaled dual.  Groups of one entry
(one dataset) are thresholded entrywise, and with them _consensus_shrink
clips the loop's whole buffer at once.
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


def _group_shrink(c, lower, upper, out=None, projected=None, magnitude=None, norms=None,
                  squares=None):
    """The groupwise soft threshold of c at upper = -lower >= 0, as c minus
    its projection, and (||g|| - upper)+, the norm of each of its groups,
    written to `out` and `magnitude` when given.  The projection scales each
    group g by min(1, upper / ||g||) and is written to `projected` when
    given; `magnitude` may keep a leading axis of 1, and `norms` (shaped like
    c[0]) and `squares` (like c) are workspaces.  A group axis of length 1
    (one dataset) makes every group one entry, thresholded entrywise by
    _shrink."""
    if len(c) == 1:
        out, projected = (None if a is None else a[0] for a in (out, projected))
        shrunk = _shrink(c[0], lower, upper, out, projected)
        return shrunk[None], np.abs(shrunk, out=magnitude)
    g = group_norms(c, norms, squares)
    shrunk = np.maximum(np.subtract(g, upper, out=magnitude), 0.0, out=magnitude)
    # min(1, t / ||g||) as t / max(||g||, t); a zero group at t = 0 is
    # divided by the smallest subnormal instead, which maps it to 0.  The
    # remainder is exact to a few ulps of ||g||, not of itself
    scale = np.maximum(np.maximum(g, upper, out=norms), _TINY, out=norms)
    scale = np.divide(upper, scale, out=norms)
    return np.subtract(c, np.multiply(scale, c, out=projected), out=out), shrunk


def _consensus_shrink(whole, entries, groups, magnitudes, norms, squares):
    """The soft threshold of a flat buffer laid out [entries | groups], the
    entries thresholded by _shrink and the groups, along their leading
    axis, by _group_shrink.  whole, entries and groups are each (a, lower,
    upper, out, projected), the same buffers whole and split into the two
    blocks; lower and upper need only broadcast against their block.  |out|
    of the entries and the groups' (||g|| - upper)+ are written to the two
    `magnitudes`, shaped like the entries and like the groups' first entry
    (groups[0][:1]); `norms` and `squares` are _group_shrink's workspaces.
    A group axis of length 1 makes every group one entry; the whole buffer
    is then clipped in one pass, and only then is `whole` read."""
    if len(groups[0]) == 1:
        _shrink(*whole)
        np.abs(entries[3], out=magnitudes[0])
        np.abs(groups[3], out=magnitudes[1])
    else:
        np.abs(_shrink(*entries), out=magnitudes[0])
        _group_shrink(*groups, magnitudes[1], norms, squares)


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
    """Groupwise soft threshold (1 - d / ||g||_2)+ g, computed as g minus
    its projection g min(1, d / ||g||_2), so 0 maps to 0.

    Groups run along axis 0: for c of shape (M, ...) each group is the
    length-M vector c[:, j, ...], and a 1-D vector is a single group.
    Proximal operator of d times the sum of the group norms; d may be an
    array that broadcasts against the group norms, c.shape[1:].  Groups of
    one entry, c of shape (1, ...), get the entrywise soft threshold.
    """
    _check_threshold(d)
    return _group_shrink(np.asarray(c, dtype=float), np.negative(d), d)[0]
