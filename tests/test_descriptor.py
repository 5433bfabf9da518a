import itertools

import numpy as np
import pytest

from codemotion import (
    ActionMatrix,
    CodeDescriptor,
    DegenerateActionError,
    compute_descriptor,
    extreme_velocities,
    joint_variances,
    pairwise_correlation,
    rank_mij,
    stack_descriptor,
    stacked_length,
)
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


class TestJointVariances:
    def test_constant_trajectory_has_zero_variance(self):
        action = action_from_columns([5.0, 5.0, 5.0, 5.0])
        assert joint_variances(action)[0] == 0.0

    def test_alternating_column_variance_is_one(self):
        # mean 1, deviations +-1, population variance (divide by T) = 1
        action = action_from_columns([0.0, 2.0, 0.0, 2.0])
        assert joint_variances(action)[0] == pytest.approx(1.0, abs=1e-15)

    def test_identical_columns_get_identical_variances(self, rng):
        col = rng.normal(0, 10, 20)
        action = action_from_columns(col, col)
        v = joint_variances(action)
        assert v[0] == v[1]

    def test_matches_loop_oracle(self, rng):
        action = random_action(rng, joints=5, frames=23)
        v = joint_variances(action)
        for j in range(5):
            expected = population_variance(list(action.samples[:, j]))
            assert v[j] == pytest.approx(expected, rel=1e-12)


class TestRankMij:
    def test_hand_example(self):
        mij, var_norm = rank_mij([0.0, 3.0, 1.0], jm=2)
        assert mij.tolist() == [1, 2]
        np.testing.assert_allclose(var_norm, [0.75, 0.25], atol=1e-15)

    def test_stable_tie_break_prefers_lower_index(self):
        mij, _ = rank_mij([2.0, 2.0, 2.0], jm=2)
        assert mij.tolist() == [0, 1]

    def test_single_joint_identity(self):
        mij, var_norm = rank_mij([1.0], jm=1)
        assert mij.tolist() == [0]
        np.testing.assert_array_equal(var_norm, [1.0])

    def test_all_zero_variances_is_degenerate(self):
        with pytest.raises(DegenerateActionError, match="degenerate action"):
            rank_mij([0.0, 0.0], jm=1)

    def test_jm_out_of_range(self):
        with pytest.raises(ValueError):
            rank_mij([1.0, 2.0], jm=3)
        with pytest.raises(ValueError):
            rank_mij([1.0, 2.0], jm=0)

    def test_rejects_2d_variances(self):
        with pytest.raises(ValueError, match="variances must be a 1-D vector"):
            rank_mij([[1.0, 2.0]], jm=1)

    def test_var_norm_sums_to_one(self, rng):
        v = rng.uniform(0.1, 50.0, 12)
        _, var_norm = rank_mij(v, jm=7)
        assert var_norm.sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_ranking_is_permutation_and_sorted(self, rng):
        v = np.round(rng.uniform(0.0, 10.0, 12))  # 12 values from 11 integers: ties are certain
        mij, _ = rank_mij(v, jm=12)
        assert sorted(mij.tolist()) == list(range(12))
        assert np.all(np.diff(v[mij]) <= 0)
        for a, b in zip(mij[:-1], mij[1:]):
            if v[a] == v[b]:
                assert a < b


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


class TestExtremeVelocities:
    def test_single_column(self):
        vmax, vmin = extreme_velocities(np.array([[1.0], [3.0], [2.0]]))
        np.testing.assert_array_equal(vmax, [1.0])
        np.testing.assert_array_equal(vmin, [1.0])

    def test_signs_preserved(self):
        # raw per-column maxima are [2, -2]; |2| + |-2| = 4, signs kept
        velocities = np.array([[2.0, -2.0], [1.0, -3.0]])
        vmax, _ = extreme_velocities(velocities)
        np.testing.assert_allclose(vmax, [0.5, -0.5])

    def test_rejects_1d_velocities(self):
        with pytest.raises(ValueError, match=r"velocities must be 2-D \(frames x joints\), got shape \(5,\)"):
            extreme_velocities(np.zeros(5))

    def test_all_zero_stays_zero(self):
        vmax, vmin = extreme_velocities(np.zeros((5, 3)))
        np.testing.assert_array_equal(vmax, np.zeros(3))
        np.testing.assert_array_equal(vmin, np.zeros(3))

    def test_magnitudes_sum_to_one(self, rng):
        velocities = rng.normal(0, 5, size=(20, 6))
        vmax, vmin = extreme_velocities(velocities)
        assert np.abs(vmax).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(vmin).sum() == pytest.approx(1.0, abs=1e-12)


class TestPairwiseCorrelation:
    def test_identical_columns(self, rng):
        col = rng.normal(0, 3, 25)
        action = action_from_columns(col, col)
        corr = pairwise_correlation(action, [0, 1])
        assert corr[0] == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_with_offset(self, rng):
        col = rng.normal(0, 3, 25)
        action = action_from_columns(col, -col + 7.0)
        corr = pairwise_correlation(action, [0, 1])
        assert corr[0] == pytest.approx(-1.0, abs=1e-12)

    def test_flat_column_gives_zero(self):
        action = action_from_columns([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        corr = pairwise_correlation(action, [0, 1])
        assert corr[0] == 0.0

    def test_matches_loop_oracle(self, rng):
        action = random_action(rng, joints=3, frames=10, scale=4.0)
        corr = pairwise_correlation(action, [0, 1, 2])
        cols = [list(action.samples[:, j]) for j in range(3)]
        expected = [pearson(cols[0], cols[1]), pearson(cols[0], cols[2]), pearson(cols[1], cols[2])]
        np.testing.assert_allclose(corr, expected, atol=1e-12)

    def test_pair_order_is_upper_triangle(self, rng):
        action = random_action(rng, joints=4, frames=15)
        corr = pairwise_correlation(action, [2, 0, 3])
        # order: (2,0), (2,3), (0,3) by mij rank positions
        cols = action.samples
        expected = [
            pearson(list(cols[:, 2]), list(cols[:, 0])),
            pearson(list(cols[:, 2]), list(cols[:, 3])),
            pearson(list(cols[:, 0]), list(cols[:, 3])),
        ]
        np.testing.assert_allclose(corr, expected, atol=1e-12)

    def test_bounds(self, rng):
        action = random_action(rng, joints=6, frames=12)
        corr = pairwise_correlation(action, list(range(6)))
        assert np.all(np.abs(corr) <= 1.0)


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

    def test_overflowing_variance_names_the_action(self, rng):
        samples = random_action(rng, joints=4, frames=10).samples.copy()
        samples[3, 0] = 1e200
        action = ActionMatrix(samples, 30.0, action_id="huge_01")
        # the ufunc's name differs across numpy versions
        with pytest.raises(ValueError, match="^action 'huge_01': overflow encountered in "):
            compute_descriptor(action, 2)

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
