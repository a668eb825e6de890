import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from intmr.prox import (
    _consensus_shrink,
    _group_shrink,
    _shrink,
    group_soft_threshold,
    soft_threshold,
)
from helpers import scalar_prox_oracle, vector_prox_oracle

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonneg = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)


def bits(a):
    """The bytes of a float or float array, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).tobytes()


class TestSoftThreshold:
    def test_shrinks_past_threshold(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_zeroes_small_values(self):
        assert soft_threshold(-0.5, 0.7) == 0.0

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(7)
        for a in rng.standard_normal(100) * 10:
            assert soft_threshold(a, 0.0) == a

    def test_arrays_entrywise(self):
        A = np.array([[3.0, -0.5], [0.0, -4.0]])
        out = soft_threshold(A, 1.0)
        assert np.array_equal(out, [[2.0, 0.0], [0.0, -3.0]])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    @given(a=finite, b=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_never_grows_magnitude_or_flips_sign(self, a, b):
        out = soft_threshold(a, b)
        assert abs(out) <= abs(a)
        assert out * a >= 0

    @given(a=finite, a2=finite, b=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_nonexpansive(self, a, a2, b):
        # |a| - b rounds to ulp(|a|), so the slack scales with the inputs
        slack = 8 * np.finfo(float).eps * max(abs(a), abs(a2), b, 1.0)
        assert abs(soft_threshold(a, b) - soft_threshold(a2, b)) <= abs(a - a2) + slack

    def test_minimizes_scalar_prox_objective(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = float(rng.standard_normal() * rng.uniform(0.1, 10))
            b = float(rng.uniform(0, 5))
            x = soft_threshold(a, b)
            val = 0.5 * (x - a) ** 2 + b * abs(x)
            assert val <= scalar_prox_oracle(a, b) + 1e-8


entries = arrays(float, array_shapes(max_dims=2, max_side=6), elements=finite)
# groups of M = 2..4 entries along axis 0, none of whose nonzero entries
# square below the smallest normal float: an underflowed square leaves the
# group norm itself inexact, whichever form then thresholds it
groups = st.integers(2, 4).flatmap(lambda M: arrays(
    float, st.tuples(st.just(M), array_shapes(min_dims=0, max_dims=2, max_side=5)).map(
        lambda s: (s[0],) + s[1]),
    elements=finite.filter(lambda v: v == 0 or abs(v) >= 1e-150)))
# thresholds whose ratio to such a group's norm stays a normal float: a
# subnormal ratio keeps too few bits to bound the projection's norm in eps
group_thresholds = nonneg.filter(lambda t: t == 0 or t >= 1e-290)


class TestMoreauForm:
    # the loop's consensus step: for the threshold input a and a threshold
    # t, _shrink writes the new scaled dual u = clip(a, -t, t) and the
    # consensus copy z = a - u, and _group_shrink, over groups along axis 0,
    # u = a min(1, t / ||a||) and z = a - u
    @staticmethod
    def step(a, t, body=_shrink):
        z, u = np.empty_like(a), np.empty_like(a)
        body(a, -t, t, z, u)
        return z, u

    @given(a=entries, t=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_consensus_copy_is_the_soft_threshold(self, a, t):
        z, _ = self.step(a, t)
        assert bits(z) == bits(soft_threshold(a, t))
        # sign(a) (|a| - t)+, up to the sign of a zero
        assert np.array_equal(z, np.sign(a) * np.maximum(np.abs(a) - t, 0.0))

    @given(a=entries, t=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_dual_is_the_clip(self, a, t):
        _, u = self.step(a, t)
        assert np.array_equal(u, np.clip(a, -t, t))

    @given(a=entries, t=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_parts_add_up_to_the_input(self, a, t):
        z, u = self.step(a, t)
        assert (np.abs((z + u) - a) <= np.spacing(np.abs(a))).all()

    @given(a=groups, t=group_thresholds)
    @settings(max_examples=200, deadline=None)
    def test_group_step(self, a, t):
        z, u = self.step(a, t, _group_shrink)
        assert bits(z) == bits(group_soft_threshold(a, t))
        # (1 - t / ||a||)+ a to a few ulps of the group's norm, whose
        # largest entry bounds its ulp from below
        norm = np.sqrt((a * a).sum(axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(norm > 0, np.maximum(1.0 - t / norm, 0.0), 0.0) * a
        assert (np.abs(z - want) <= 4 * np.spacing(np.abs(a).max(axis=0))).all()
        # the dual lies in the ball of radius t (hypot: t may be so small
        # that the squares of u underflow)
        eps = np.finfo(float).eps
        assert (np.hypot.reduce(u, axis=0) <= t * (1 + 8 * eps)).all()
        assert (np.abs((z + u) - a) <= 2 * np.spacing(np.abs(a))).all()

    @given(a=entries, t=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_one_entry_groups_step_is_the_clip(self, a, t):
        # one dataset: the group step is the entrywise one, bit for bit
        z, u = self.step(a[None], t, _group_shrink)
        assert bits((z[0], u[0])) == bits(self.step(a, t))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_flat_step_is_the_blockwise_step(self, data):
        # _consensus_shrink on a flat [C | B] buffer, with the thresholds of
        # one dataset's [C | B], is _shrink on C and _group_shrink on B bit
        # for bit, also where one dataset has it clip the whole buffer
        M, r, p, q = (data.draw(st.integers(lo, 3)) for lo in (1, 0, 0, 1))
        a = data.draw(arrays(float, M * (r + p) * q, elements=finite))
        t = data.draw(arrays(float, (r + p) * q, elements=nonneg))

        def blocks(v, c_shape, b_shape):
            return v[: r * q * c_shape[0]].reshape(c_shape), v[r * q * c_shape[0]:].reshape(b_shape)

        z, u = np.empty_like(a), np.empty_like(a)
        on_c, on_b = zip(*(blocks(v, (M, r, q), (M, p, q)) for v in (a, z, u)))
        t_c, t_b = blocks(t, (1, r, q), (p, q))
        magnitudes = np.empty((M, r, q)), np.empty((1, p, q))
        _consensus_shrink((a, -t, t, z, u), (on_c[0], -t_c, t_c) + on_c[1:],
                          (on_b[0], -t_b, t_b) + on_b[1:], magnitudes,
                          np.empty((p, q)), np.empty((M, p, q)))
        z_c, u_c = self.step(on_c[0], t_c)
        z_b, u_b = self.step(on_b[0], t_b, _group_shrink)
        norms = _group_shrink(on_b[0], -t_b, t_b)[1]
        assert bits(z) == bits(z_c) + bits(z_b) and bits(u) == bits(u_c) + bits(u_b)
        assert bits(magnitudes[0]) + bits(magnitudes[1]) == bits(np.abs(z_c)) + bits(norms)


class TestGroupSoftThreshold:
    def test_kills_group_within_threshold(self):
        out = group_soft_threshold(np.array([3.0, 4.0]), 5.0)
        assert np.array_equal(out, [0.0, 0.0])

    def test_shrinks_radially(self):
        out = group_soft_threshold(np.array([3.0, 4.0]), 2.5)
        assert np.allclose(out, [1.5, 2.0], atol=1e-15)

    def test_zero_threshold_is_identity(self):
        c = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(group_soft_threshold(c, 0.0), c)

    def test_zero_vector_maps_to_zero(self):
        assert np.array_equal(group_soft_threshold(np.zeros(3), 2.0), np.zeros(3))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            group_soft_threshold(np.ones(2), -1.0)

    @given(
        c=st.lists(finite, min_size=1, max_size=5),
        d=nonneg,
    )
    @settings(max_examples=200, deadline=None)
    def test_nonexpansive_toward_zero(self, c, d):
        c = np.asarray(c)
        out = group_soft_threshold(c, d)
        slack = 8 * np.finfo(float).eps * (np.linalg.norm(c) + 1.0)
        assert np.linalg.norm(out) <= np.linalg.norm(c) + slack

    @given(a=finite, b=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_length_one_group_matches_scalar(self, a, b):
        # a one-entry group is thresholded entrywise, so bit for bit
        out = group_soft_threshold(np.array([a]), b)
        assert bits(out[0]) == bits(soft_threshold(a, b))

    @given(
        c=array_shapes(min_dims=1, max_dims=4, max_side=4).flatmap(
            lambda shape: arrays(float, (1,) + shape, elements=finite)),
        d=nonneg,
    )
    @settings(max_examples=200, deadline=None)
    def test_one_dataset_groups_threshold_entrywise(self, c, d):
        # groups of one entry: the threshold is soft_threshold bit for bit,
        # and the magnitudes _group_shrink returns are (|c| - d)+; the
        # values are sign(c) (|c| - d)+ except for the sign of a zero
        out = group_soft_threshold(c, d)
        assert out.shape == c.shape
        assert bits(out[0]) == bits(soft_threshold(c[0], d))
        values, magnitudes = _group_shrink(c, -d, d)
        expected = np.maximum(np.abs(c[0]) - d, 0.0)
        assert bits(magnitudes) == bits(expected)
        assert np.array_equal(values[0], np.copysign(expected, c[0]))

    def test_minimizes_group_prox_objective(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            dim = int(rng.integers(1, 6))
            c = rng.standard_normal(dim) * rng.uniform(0.1, 5)
            d = float(rng.uniform(0, 4))
            x = group_soft_threshold(c, d)
            val = 0.5 * float(((x - c) ** 2).sum()) + d * float(np.linalg.norm(x))
            assert val <= vector_prox_oracle(c, d) + 1e-8
