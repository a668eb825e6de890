"""Soft-thresholding operators used by the consensus updates."""

import numpy as np

from .model import group_norms

__all__ = ["soft_threshold", "group_soft_threshold"]


def soft_threshold(a, b):
    """Entrywise soft threshold sign(a) * max(|a| - b, 0).

    Proximal operator of b * |.|; a may be a scalar or an array, and b a
    threshold that broadcasts against it.
    """
    if np.any(np.less(b, 0)):
        raise ValueError("threshold must be nonnegative")
    a = np.asarray(a, dtype=float)
    out = np.sign(a) * np.maximum(np.abs(a) - b, 0.0)
    return float(out) if out.ndim == 0 else out


def group_soft_threshold(c, d):
    """Groupwise soft threshold (1 - d / ||g||_2)+ g, with 0 mapped to 0.

    Groups run along axis 0: for c of shape (M, ...) each group is the
    length-M vector c[:, j, ...], and a 1-D vector is a single group.
    Proximal operator of d times the sum of the group norms; d may be an
    array that broadcasts against the group norms, c.shape[1:].
    """
    if np.any(np.less(d, 0)):
        raise ValueError("threshold must be nonnegative")
    c = np.asarray(c, dtype=float)
    norms = group_norms(c)
    # (norm - d)+ / norm rather than (1 - d / norm)+: subtracting first keeps
    # full precision when d is close to the norm; a zero group has a zero
    # numerator too, so its scale never matters
    scale = np.zeros_like(norms)
    np.divide(np.maximum(norms - d, 0.0), norms, out=scale, where=norms > 0)
    return scale * c
