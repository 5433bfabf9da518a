import itertools

import numpy as np
import pytest

from codemotion import (
    ActionMatrix,
    CodeDescriptor,
    DegenerateActionError,
    compute_descriptor,
    stack_descriptor,
    stacked_length,
)
from codemotion.descriptor import _correlations, _rank_mij, _unit_sum
from oracles import finite_difference_velocity, pearson, population_variance

from conftest import random_action


def action_from_columns(*columns, frame_rate=1.0):
    return ActionMatrix(np.array(columns, dtype=float).T, frame_rate=frame_rate)


class TestActionMatrix:
    def test_rejects_single_frame(self):
        with pytest.raises(ValueError, match="2 frames"):
            ActionMatrix(np.zeros((1, 3)), frame_rate=30.0)

    def test_rejects_nan(self):
        samples = np.zeros((4, 2))
        samples[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ActionMatrix(samples, frame_rate=30.0)

    def test_rejects_bad_frame_rate(self):
        with pytest.raises(ValueError, match="frame_rate"):
            ActionMatrix(np.zeros((4, 2)), frame_rate=0.0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_rejects_non_finite_frame_rate(self, rate):
        with pytest.raises(ValueError, match=f"frame_rate must be positive and finite, got {rate!r}"):
            ActionMatrix(np.zeros((4, 2)), frame_rate=rate)

    @pytest.mark.parametrize("shape, message", [
        ((4,), r"samples must be 2-D \(frames x joints\), got shape \(4,\)"),
        ((4, 0), "need at least one joint column"),
    ], ids=["1-D", "no-joints"])
    def test_rejects_bad_shape(self, shape, message):
        with pytest.raises(ValueError, match=message):
            ActionMatrix(np.zeros(shape), frame_rate=30.0)

    def test_samples_are_immutable(self):
        action = ActionMatrix(np.zeros((4, 2)), frame_rate=30.0)
        with pytest.raises(ValueError):
            action.samples[0, 0] = 1.0

    def test_samples_are_a_fortran_order_copy(self):
        source = np.arange(12.0).reshape(4, 3)
        action = ActionMatrix(source, frame_rate=30.0)
        source[0, 0] = 99.0
        assert action.samples[0, 0] == 0.0
        assert action.samples.flags.f_contiguous and not action.samples.flags.writeable


class TestVarianceShares:
    """``var_norm``: the MIJ's population variances, as shares of their sum."""

    def test_constant_trajectory_has_zero_share(self):
        d = compute_descriptor(action_from_columns([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0]), jm=2)
        np.testing.assert_array_equal(d.mij, [0, 1])
        np.testing.assert_array_equal(d.var_norm, [1.0, 0.0])

    def test_identical_columns_get_identical_shares(self, rng):
        col = rng.normal(0, 10, 20)
        d = compute_descriptor(action_from_columns(col, col), jm=2)
        assert d.var_norm[0] == d.var_norm[1] == 0.5

    def test_matches_loop_oracle(self, rng):
        action = random_action(rng, joints=5, frames=23)
        d = compute_descriptor(action, 5)
        expected = [population_variance(list(action.samples[:, j])) for j in d.mij]
        np.testing.assert_allclose(d.var_norm, np.array(expected) / sum(expected), rtol=1e-12)

    def test_flatness_is_judged_on_population_variance(self):
        # 2 frames: the second column's population variance is 9.025e-13, below
        # FLAT_VARIANCE_FLOOR, while its sample variance, 1.805e-12, is above it
        d = compute_descriptor(action_from_columns([0.0, 1.0], [0.0, 1.9e-6]), jm=2)
        np.testing.assert_array_equal(d.corr, [0.0])


class TestRankMij:
    def test_hand_example(self):
        mij, var_norm = _rank_mij(np.array([0.0, 3.0, 1.0]), jm=2)
        assert mij.tolist() == [1, 2]
        np.testing.assert_allclose(var_norm, [0.75, 0.25], atol=1e-15)

    def test_stable_tie_break_prefers_lower_index(self):
        mij, _ = _rank_mij(np.array([2.0, 2.0, 2.0]), jm=2)
        assert mij.tolist() == [0, 1]

    def test_single_joint_identity(self):
        mij, var_norm = _rank_mij(np.array([1.0]), jm=1)
        assert mij.tolist() == [0]
        np.testing.assert_array_equal(var_norm, [1.0])

    def test_all_zero_variances_is_degenerate(self):
        with pytest.raises(DegenerateActionError, match="degenerate action"):
            _rank_mij(np.array([0.0, 0.0]), jm=1)

    def test_jm_out_of_range(self):
        with pytest.raises(ValueError, match=r"^jm must be in \[1, 2\], got 3$"):
            _rank_mij(np.array([1.0, 2.0]), jm=3)
        with pytest.raises(ValueError, match=r"^jm must be in \[1, 2\], got 0$"):
            _rank_mij(np.array([1.0, 2.0]), jm=0)

    def test_var_norm_sums_to_one(self, rng):
        v = rng.uniform(0.1, 50.0, 12)
        _, var_norm = _rank_mij(v, jm=7)
        assert var_norm.sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_ranking_is_permutation_and_sorted(self, rng):
        v = np.round(rng.uniform(0.0, 10.0, 12))  # 12 values from 11 integers: ties are certain
        mij, _ = _rank_mij(v, jm=12)
        assert sorted(mij.tolist()) == list(range(12))
        assert np.all(np.diff(v[mij]) <= 0)
        for a, b in zip(mij[:-1], mij[1:]):
            if v[a] == v[b]:
                assert a < b

    def test_descriptor_ties_prefer_lower_index(self):
        # three columns of variance exactly 1, the last one of variance 4
        d = compute_descriptor(action_from_columns([0.0, 2.0, 0.0, 2.0], [2.0, 0.0, 2.0, 0.0],
                                                   [4.0, 6.0, 4.0, 6.0], [0.0, 4.0, 0.0, 4.0]), jm=3)
        np.testing.assert_array_equal(d.mij, [3, 0, 1])


def oracle_extremes(action, mij):
    """vmax_norm and vmin_norm from the loop oracle's velocities of the ``mij`` columns."""
    velocities = [finite_difference_velocity(list(action.samples[:, j]), action.frame_rate) for j in mij]
    extremes = []
    for pick in (max, min):
        values = [pick(v) for v in velocities]
        total = sum(abs(x) for x in values)
        extremes.append([x / total if total else x for x in values])
    return extremes


class TestJointVelocities:
    """The descriptor's velocities: central differences inside, one-sided at the ends, times the rate."""

    def test_linear_ramp(self):
        # velocities 1 and 2 at every frame, ends included
        d = compute_descriptor(action_from_columns([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0]), jm=2)
        np.testing.assert_array_equal(d.mij, [1, 0])
        np.testing.assert_allclose(d.vmax_norm, [2 / 3, 1 / 3], rtol=1e-15)
        np.testing.assert_allclose(d.vmin_norm, [2 / 3, 1 / 3], rtol=1e-15)

    def test_constant_column_is_zero(self):
        d = compute_descriptor(action_from_columns([0.0, 1.0, 2.0], [4.0, 4.0, 4.0]), jm=2)
        np.testing.assert_array_equal(d.vmax_norm, [1.0, 0.0])
        np.testing.assert_array_equal(d.vmin_norm, [1.0, 0.0])

    def test_stencil_by_hand(self):
        # [0, 1, 0] at 2 Hz: interior (x[t+1] - x[t-1]) / 2 * fs, ends one-sided: [2, 0, -2];
        # the ramp [0, 1, 2] moves at 2 deg/s throughout and ranks first
        d = compute_descriptor(action_from_columns([0.0, 1.0, 0.0], [0.0, 1.0, 2.0], frame_rate=2.0), jm=2)
        np.testing.assert_array_equal(d.mij, [1, 0])
        np.testing.assert_array_equal(d.vmax_norm, [0.5, 0.5])
        np.testing.assert_array_equal(d.vmin_norm, [0.5, -0.5])

    def test_matches_loop_oracle(self, rng):
        for frame_rate, frames in itertools.product([30.0, 120.0, 240.0], range(2, 41)):
            joints = int(rng.integers(1, 9))
            action = random_action(rng, joints=joints, frames=frames, frame_rate=frame_rate)
            d = compute_descriptor(action, int(rng.integers(1, joints + 1)))
            vmax, vmin = oracle_extremes(action, d.mij.tolist())
            np.testing.assert_allclose(d.vmax_norm, vmax, rtol=1e-12)
            np.testing.assert_allclose(d.vmin_norm, vmin, rtol=1e-12)


class TestUnitSum:
    """The one normalization of ``var_norm``, ``vmax_norm`` and ``vmin_norm``."""

    def test_single_value(self):
        np.testing.assert_array_equal(_unit_sum(np.array([3.0])), [1.0])

    def test_signs_preserved(self):
        # |2| + |-2| = 4, signs kept
        np.testing.assert_allclose(_unit_sum(np.array([2.0, -2.0])), [0.5, -0.5])

    def test_all_zero_stays_zero(self):
        np.testing.assert_array_equal(_unit_sum(np.zeros(3)), np.zeros(3))

    def test_magnitudes_sum_to_one(self, rng):
        assert np.abs(_unit_sum(rng.normal(0, 5, 6))).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_magnitude_extremes_stay_zero(self):
        # non-increasing columns with a flat first step: each one's fastest
        # velocity is 0, so vmax is all zeros, while vmin is not
        d = compute_descriptor(action_from_columns([3.0, 3.0, 2.0], [5.0, 5.0, 1.0]), jm=2)
        np.testing.assert_array_equal(d.vmax_norm, [0.0, 0.0])
        np.testing.assert_allclose(d.vmin_norm, [-2 / 2.5, -0.5 / 2.5], rtol=1e-15)


class TestCorrelations:
    def test_identical_columns(self, rng):
        col = rng.normal(0, 3, 25)
        assert _correlations(np.column_stack([col, col]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_with_offset(self, rng):
        col = rng.normal(0, 3, 25)
        assert _correlations(np.column_stack([col, -col + 7.0]))[0] == pytest.approx(-1.0, abs=1e-12)

    def test_flat_column_gives_zero(self):
        np.testing.assert_array_equal(_correlations(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])), [0.0])

    def test_matches_loop_oracle(self, rng):
        action = random_action(rng, joints=3, frames=10, scale=4.0)
        corr = _correlations(action.samples)
        cols = [list(action.samples[:, j]) for j in range(3)]
        expected = [pearson(cols[0], cols[1]), pearson(cols[0], cols[2]), pearson(cols[1], cols[2])]
        np.testing.assert_allclose(corr, expected, atol=1e-12)

    def test_pair_order_is_upper_triangle_over_rank_positions(self, rng):
        samples = rng.normal(0, 1, (15, 4))
        samples = (samples - samples.mean(axis=0)) / samples.std(axis=0) * [2.0, 0.5, 4.0, 1.0]
        d = compute_descriptor(ActionMatrix(samples, 30.0), jm=3)
        np.testing.assert_array_equal(d.mij, [2, 0, 3])
        # order: (2,0), (2,3), (0,3) by mij rank positions
        cols = [list(samples[:, j]) for j in range(4)]
        expected = [pearson(cols[2], cols[0]), pearson(cols[2], cols[3]), pearson(cols[0], cols[3])]
        np.testing.assert_allclose(d.corr, expected, atol=1e-12)

    def test_bounds(self, rng):
        corr = _correlations(random_action(rng, joints=6, frames=12).samples)
        assert np.all(np.abs(corr) <= 1.0)

    def test_rounding_past_one_is_clipped(self):
        # unclipped, this column's correlation with itself is 1 + 2**-52
        col = np.array([-7.3, -5.4, -3.2, 4.1, 10.4, -1.3])
        np.testing.assert_array_equal(_correlations(np.column_stack([col, col, -col])), [1.0, -1.0, -1.0])


class TestComputeDescriptor:
    def test_stacked_sizes_match_formula(self, rng):
        action = random_action(rng, joints=32, frames=40)
        for jm, expected in [(20, 270), (30, 555)]:
            d = compute_descriptor(action, jm)
            assert stack_descriptor(d).shape == (expected,)
            assert stacked_length(d.jm) == expected

    def test_single_moving_joint(self):
        samples = np.zeros((10, 3))
        samples[:, 1] = np.sin(np.linspace(0, 3, 10))
        d = compute_descriptor(ActionMatrix(samples, 30.0), jm=1)
        assert d.mij.tolist() == [1]
        np.testing.assert_array_equal(d.var_norm, [1.0])
        assert d.corr.size == 0

    def test_deterministic(self, rng):
        action = random_action(rng, joints=8, frames=30)
        d1 = compute_descriptor(action, 5)
        d2 = compute_descriptor(action, 5)
        assert d1 == d2

    def test_memory_layout_does_not_change_the_descriptor(self, rng):
        # numpy's sums over frames depend on the layout of the samples
        x = random_action(rng, joints=24, frames=300).samples
        wide = np.zeros((600, 48))
        wide[::2, ::2] = x
        layouts = [np.ascontiguousarray(x), np.asfortranarray(x), wide[::2, ::2]]
        stacked = [
            stack_descriptor(compute_descriptor(ActionMatrix(s, 30.0), 20)).tobytes()
            for s in layouts
        ]
        assert stacked[0] == stacked[1] == stacked[2]

    def test_propagates_degenerate(self):
        action = ActionMatrix(np.full((6, 4), 3.0), frame_rate=10.0, action_id="flat_07")
        with pytest.raises(DegenerateActionError, match="'flat_07': degenerate action"):
            compute_descriptor(action, 2)

    @pytest.mark.parametrize("jm", [0, 5])
    def test_jm_outside_the_joints_names_the_action(self, rng, jm):
        action = ActionMatrix(random_action(rng, joints=4, frames=10).samples, 30.0, action_id="few_03")
        with pytest.raises(ValueError, match=rf"^action 'few_03': jm must be in \[1, 4\], got {jm}$"):
            compute_descriptor(action, jm)

    def test_overflowing_variance_names_the_action(self, rng):
        samples = random_action(rng, joints=4, frames=10).samples.copy()
        samples[3, 0] = 1e200
        action = ActionMatrix(samples, 30.0, action_id="huge_01")
        # the ufunc's name differs across numpy versions
        with pytest.raises(ValueError, match="^action 'huge_01': overflow encountered in "):
            compute_descriptor(action, 2)

    def test_is_the_one_public_entry(self):
        import codemotion
        from codemotion import descriptor
        for name in ("joint_variances", "rank_mij", "extreme_velocities", "pairwise_correlation"):
            assert not hasattr(codemotion, name) and not hasattr(descriptor, name)

    def test_memory_independent_of_frames(self, rng):
        short = random_action(rng, joints=10, frames=50)
        long = random_action(rng, joints=10, frames=100)
        d_short = compute_descriptor(short, 6)
        d_long = compute_descriptor(long, 6)
        assert stack_descriptor(d_short).nbytes == stack_descriptor(d_long).nbytes


class TestStacking:
    def test_jm2_layout(self):
        d = CodeDescriptor(
            mij=[3, 1],
            var_norm=[0.8, 0.2],
            vmax_norm=[0.5, 0.5],
            vmin_norm=[-0.5, -0.5],
            corr=[0.25],
            jm=2,
        )
        flat = stack_descriptor(d)
        assert flat.shape == (9,)  # 2 var + 2 vmax + 2 vmin + 1 corr + 2 mij
        np.testing.assert_array_equal(flat, [0.8, 0.2, 0.5, 0.5, -0.5, -0.5, 0.25, 3.0, 1.0])

    def test_jm1_length(self):
        d = CodeDescriptor([0], [1.0], [1.0], [1.0], [], jm=1)
        assert stack_descriptor(d).shape == (4,)
        assert stacked_length(1) == 4


class TestDescriptorValidation:
    def test_duplicate_mij_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            CodeDescriptor([1, 1], [0.5, 0.5], [1, 0], [1, 0], [0.0], jm=2)

    def test_wrong_corr_length_rejected(self):
        with pytest.raises(ValueError, match="corr"):
            CodeDescriptor([0, 1], [0.5, 0.5], [1, 0], [1, 0], [0.0, 0.0], jm=2)

    @pytest.mark.parametrize("fields, message", [
        (([], [], [], [], [], 0), "jm must be at least 1, got 0"),
        (([0], [1.0], [np.nan], [1.0], [], 1), "vmax_norm contains NaN or infinite values"),
    ], ids=["jm-0", "nan-field"])
    def test_bad_field_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            CodeDescriptor(*fields)

    @pytest.mark.parametrize("value", [1.5, -1.0000001])
    def test_corr_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=r"corr values must lie in \[-1, 1\]"):
            CodeDescriptor([0, 1], [0.5, 0.5], [1, 0], [1, 0], [value], jm=2)
