"""Property-based checks of the descriptor and similarity invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from codemotion import (
    ActionMatrix,
    CodeDescriptor,
    Metric,
    MetricSpec,
    compute_descriptor,
    csm,
    similarity_matrix,
    stack_descriptor,
)
from oracles import csm_score

SETTINGS = settings(max_examples=120, deadline=None)


@st.composite
def actions(draw, min_joints=2, max_joints=6, min_frames=3, max_frames=24):
    joints = draw(st.integers(min_joints, max_joints))
    frames = draw(st.integers(min_frames, max_frames))
    # angles on a 0.01-degree grid: realistic magnitudes, no subnormal pathologies
    samples = draw(
        arrays(
            np.float64,
            (frames, joints),
            elements=st.integers(-18000, 18000).map(lambda n: n / 100.0),
        )
    )
    assume(np.any(samples.var(axis=0) > 1e-6))
    rate = draw(st.sampled_from([30.0, 60.0, 120.0]))
    return ActionMatrix(samples, frame_rate=rate)


@st.composite
def actions_with_jm(draw, **kwargs):
    action = draw(actions(**kwargs))
    jm = draw(st.integers(1, action.num_joints))
    return action, jm


def distinct_variance_margins(action, rel=1e-6):
    v = np.sort(action.samples.var(axis=0))
    scale = max(v[-1], 1e-12)
    return np.all(np.diff(v) / scale > rel)


class TestDescriptorProperties:
    @SETTINGS
    @given(actions_with_jm())
    def test_var_norm_sums_to_one(self, case):
        action, jm = case
        d = compute_descriptor(action, jm)
        assert abs(d.var_norm.sum() - 1.0) <= 1e-9
        assert np.all(d.var_norm >= 0)

    @SETTINGS
    @given(actions_with_jm())
    def test_correlations_bounded(self, case):
        action, jm = case
        d = compute_descriptor(action, jm)
        assert np.all(np.abs(d.corr) <= 1.0)

    @SETTINGS
    @given(actions_with_jm())
    def test_velocity_norms(self, case):
        action, jm = case
        d = compute_descriptor(action, jm)
        for vec in (d.vmax_norm, d.vmin_norm):
            total = np.abs(vec).sum()
            assert total == 0.0 or abs(total - 1.0) <= 1e-9

    @SETTINGS
    @given(actions_with_jm())
    def test_stacked_size_law(self, case):
        action, jm = case
        d = compute_descriptor(action, jm)
        assert stack_descriptor(d).size == jm * (jm + 7) // 2

    @SETTINGS
    @given(actions_with_jm(), st.floats(0.05, 20.0), st.integers(0, 2**31))
    def test_offset_and_scale_invariance(self, case, scale, offset_seed):
        action, jm = case
        assume(distinct_variance_margins(action))
        offsets = np.random.default_rng(offset_seed).uniform(-300, 300, action.num_joints)
        transformed = ActionMatrix(action.samples * scale + offsets, action.frame_rate)
        base = compute_descriptor(action, jm)
        moved = compute_descriptor(transformed, jm)
        np.testing.assert_array_equal(base.mij, moved.mij)
        np.testing.assert_allclose(moved.var_norm, base.var_norm, atol=1e-9)
        np.testing.assert_allclose(moved.vmax_norm, base.vmax_norm, atol=1e-9)
        np.testing.assert_allclose(moved.vmin_norm, base.vmin_norm, atol=1e-9)
        np.testing.assert_allclose(moved.corr, base.corr, atol=1e-9)

    @SETTINGS
    @given(actions_with_jm(), st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, case, rand):
        action, jm = case
        assume(distinct_variance_margins(action))
        perm = np.array(rand.sample(range(action.num_joints), action.num_joints))
        permuted = ActionMatrix(action.samples[:, perm], action.frame_rate)
        base = compute_descriptor(action, jm)
        other = compute_descriptor(permuted, jm)
        # joint j of the original sits at position perm.index(j) in the permuted action
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        np.testing.assert_array_equal(other.mij, inverse[base.mij])
        # numpy reductions are not bitwise stable across column positions;
        # the values agree up to reassociation rounding
        np.testing.assert_allclose(other.var_norm, base.var_norm, atol=1e-9)
        np.testing.assert_allclose(other.vmax_norm, base.vmax_norm, atol=1e-9)
        np.testing.assert_allclose(other.vmin_norm, base.vmin_norm, atol=1e-9)
        np.testing.assert_allclose(other.corr, base.corr, atol=1e-9)


class TestSimilarityProperties:
    @SETTINGS
    @given(actions(min_joints=4, max_joints=6), actions(min_joints=4, max_joints=6),
           st.integers(1, 4))
    def test_csm_symmetry_exact(self, a, b, jm):
        da = compute_descriptor(a, jm)
        db = compute_descriptor(b, jm)
        assert csm(da, db) == csm(db, da)

    @SETTINGS
    @given(actions(min_joints=3, max_joints=5), st.integers(1, 3))
    def test_disjoint_zero_law(self, action, jm):
        d = compute_descriptor(action, min(jm, action.num_joints))
        # second action moves only in fresh joint slots, so its MIJ are disjoint
        frames = action.num_frames
        joints = action.num_joints + d.jm
        samples = np.zeros((frames, joints))
        samples[:, action.num_joints:] = np.linspace(0, 1, frames)[:, None] * np.arange(1, d.jm + 1)
        other = compute_descriptor(ActionMatrix(samples, action.frame_rate), d.jm)
        assert set(other.mij.tolist()).isdisjoint(set(d.mij.tolist()))
        assert csm(d, other) == 0.0

    @SETTINGS
    @given(actions(min_joints=4, max_joints=6), st.integers(2, 4),
           st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    def test_shrinking_weights_never_raises_the_score(self, action, jm, new_corr):
        d = compute_descriptor(action, jm)
        assume(np.all(d.vmax_norm >= 0) or True)
        # force non-negative velocity features so every bracket is non-negative
        base = CodeDescriptor(d.mij, d.var_norm, np.abs(d.vmax_norm), np.abs(d.vmin_norm),
                              d.corr, d.jm)
        twisted = CodeDescriptor(base.mij, base.var_norm, base.vmax_norm, base.vmin_norm,
                                 np.array(new_corr[: base.corr.size]), base.jm)
        assert csm(base, twisted) <= csm(base, base) + 1e-12

    @SETTINGS
    @given(st.data())
    def test_csm_matrix_at_real_joint_counts(self, data):
        jm = data.draw(st.integers(1, 20))
        case = data.draw(st.sampled_from(["random", "all-shared", "last-pair", "disjoint",
                                          "duplicates"]))
        if case == "all-shared":
            joints = jm
        elif case == "disjoint":
            joints = data.draw(st.integers(2 * jm, max(2 * jm, 60)))
        else:
            joints = data.draw(st.integers(max(jm, 2), 60))
        n_q, n_r = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def descriptor(joint_ids):
            if case == "last-pair" and jm >= 2:
                # joints J-2 and J-1 make the pair of the last triangle row
                rest = rng.choice(joints - 2, size=jm - 2, replace=False)
                mij = rng.permutation(np.concatenate([[joints - 2, joints - 1], rest]))
            else:
                mij = rng.choice(joint_ids, size=jm, replace=False)
            var = rng.random(jm)
            vmax, vmin = rng.uniform(-1.0, 1.0, (2, jm))
            return CodeDescriptor(mij, var / var.sum(), vmax / np.abs(vmax).sum(),
                                  vmin / np.abs(vmin).sum(),
                                  rng.uniform(-1.0, 1.0, jm * (jm - 1) // 2), jm)

        split = joints // 2 if case == "disjoint" else joints
        queries = [descriptor(np.arange(split)) for _ in range(n_q)]
        if case == "duplicates":
            references = queries + queries[:1]
        else:
            references = [descriptor(np.arange(joints - split, joints)) for _ in range(n_r)]
        matrix = similarity_matrix(queries, references, MetricSpec(Metric.CSM))
        for i, a in enumerate(queries):
            for j, b in enumerate(references):
                assert matrix[i, j] == csm(a, b)
                assert matrix[i, j] == pytest.approx(csm_score(a, b), rel=1e-12, abs=1e-12)
        if case == "disjoint":
            assert not matrix.any()
        if case == "duplicates":
            np.testing.assert_array_equal(matrix[:, -1], matrix[:, 0])

    @SETTINGS
    @given(st.lists(actions(min_joints=4, max_joints=4), min_size=2, max_size=4),
           st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]))
    def test_matrix_matches_pairwise_calls(self, action_list, kind):
        descs = [compute_descriptor(a, 3) for a in action_list]
        spec = MetricSpec(kind)
        matrix = similarity_matrix(descs, descs, spec)
        for i, a in enumerate(descs):
            for j, b in enumerate(descs):
                assert matrix[i, j] == pytest.approx(similarity_matrix([a], [b], spec)[0, 0], abs=1e-10)
