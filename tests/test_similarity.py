import numpy as np
import pytest

from codemotion import (
    CodeDescriptor,
    FeatureSet,
    Metric,
    MetricSpec,
    baseline_distance,
    compute_descriptor,
    csm,
    similarity_matrix,
)
from oracles import csm_score, euclidean_distance, manhattan_distance

from conftest import random_action


def make_descriptor(mij, var, vmax, vmin, corr):
    return CodeDescriptor(mij, var, vmax, vmin, corr, jm=len(mij))


def random_descriptors(rng, n, jm=4, joints=8):
    return [compute_descriptor(random_action(rng, joints=joints, frames=20), jm) for _ in range(n)]


def assert_same_bits(actual, expected):
    """Exact equality of float64 arrays, bit pattern by bit pattern."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestMetricSpec:
    def test_csm_requires_full_features(self):
        with pytest.raises(ValueError, match="full"):
            MetricSpec(Metric.CSM, FeatureSet.VARIANCE)

    def test_parse(self):
        spec = MetricSpec.parse("manhattan", "var-vel")
        assert spec.kind is Metric.MANHATTAN
        assert spec.features is FeatureSet.VARIANCE_VELOCITY
        assert not spec.higher_is_better
        assert MetricSpec.parse("csm").higher_is_better

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown metric"):
            MetricSpec.parse("cosine")
        with pytest.raises(ValueError, match="unknown feature set"):
            MetricSpec.parse("euclidean", "everything")


class TestCsm:
    def test_disjoint_mij_scores_zero(self, rng):
        a = make_descriptor([0, 1], [0.6, 0.4], [0.7, 0.3], [-0.5, -0.5], [0.9])
        b = make_descriptor([2, 3], [0.5, 0.5], [0.6, 0.4], [-0.6, -0.4], [-0.2])
        assert csm(a, b) == 0.0

    def test_equal_correlations_give_unit_weights(self):
        # identical descriptors: every w = 1, so the score is the plain bracket sum
        a = make_descriptor([0, 1], [0.6, 0.4], [0.5, 0.5], [-0.5, -0.5], [0.3])
        expected = 2.0 * ((0.6 + 0.4) + (0.5 + 0.5) + (-0.5 - 0.5))
        assert csm(a, a) == pytest.approx(expected, abs=1e-15)

    def test_hand_built_pair_matches_arithmetic(self):
        # one common pair (1, 2); w = 1 - 0.5*|0.5 - (-0.5)| = 0.5
        # bracket: var (0.7+0.3) + (0.4+0.6) = 2.0
        #          vmax (0.8+0.2) + (0.1+0.9) = 2.0
        #          vmin (-0.6-0.4) + (-0.3-0.7) = -2.0
        a = make_descriptor([1, 2], [0.7, 0.3], [0.8, 0.2], [-0.6, -0.4], [0.5])
        b = make_descriptor([2, 1], [0.4, 0.6], [0.1, 0.9], [-0.3, -0.7], [-0.5])
        assert csm(a, b) == pytest.approx(0.5 * 2.0, abs=1e-15)

    def test_matches_loop_oracle_jm3(self, rng):
        for _ in range(20):
            a, b = random_descriptors(rng, 2, jm=3, joints=5)
            assert csm(a, b) == pytest.approx(csm_score(a, b), abs=1e-12)

    def test_symmetry_is_exact(self, rng):
        for _ in range(20):
            a, b = random_descriptors(rng, 2, jm=4, joints=6)
            assert csm(a, b) == csm(b, a)

    def test_mismatched_jm_rejected(self, rng):
        a = random_descriptors(rng, 1, jm=3)[0]
        b = random_descriptors(rng, 1, jm=4)[0]
        with pytest.raises(ValueError, match="jm"):
            csm(a, b)


class TestBaselineDistance:
    def test_identity(self, rng):
        a = random_descriptors(rng, 1)[0]
        for kind in (Metric.EUCLIDEAN, Metric.MANHATTAN):
            for features in FeatureSet:
                assert baseline_distance(a, a, MetricSpec(kind, features)) == 0.0

    def test_hand_example_var_vel_manhattan(self):
        # identical except vmax [1] vs [-1]: |1 - (-1)| = 2
        a = make_descriptor([0], [1.0], [1.0], [1.0], [])
        b = make_descriptor([0], [1.0], [-1.0], [1.0], [])
        spec = MetricSpec(Metric.MANHATTAN, FeatureSet.VARIANCE_VELOCITY)
        assert baseline_distance(a, b, spec) == 2.0

    def test_matches_loop_oracles(self, rng):
        a, b = random_descriptors(rng, 2, jm=4, joints=7)
        for features in FeatureSet:
            man = baseline_distance(a, b, MetricSpec(Metric.MANHATTAN, features))
            euc = baseline_distance(a, b, MetricSpec(Metric.EUCLIDEAN, features))
            assert man == pytest.approx(manhattan_distance(a, b, features.value), abs=1e-12)
            assert euc == pytest.approx(euclidean_distance(a, b, features.value), abs=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a, b, c = random_descriptors(rng, 3, jm=3, joints=6)
            for kind in (Metric.EUCLIDEAN, Metric.MANHATTAN):
                spec = MetricSpec(kind, FeatureSet.FULL)
                ab = baseline_distance(a, b, spec)
                ac = baseline_distance(a, c, spec)
                cb = baseline_distance(c, b, spec)
                assert ab <= ac + cb + 1e-12

    def test_rejects_csm_kind(self, rng):
        a, b = random_descriptors(rng, 2)
        with pytest.raises(ValueError, match="csm"):
            baseline_distance(a, b, MetricSpec(Metric.CSM, FeatureSet.FULL))

    def test_mij_slots_do_not_affect_distance(self):
        # same feature values on different joints: distance ignores the labels
        a = make_descriptor([0, 1], [0.6, 0.4], [1.0, 0.0], [-1.0, 0.0], [0.2])
        b = make_descriptor([5, 7], [0.6, 0.4], [1.0, 0.0], [-1.0, 0.0], [0.2])
        for kind in (Metric.EUCLIDEAN, Metric.MANHATTAN):
            assert baseline_distance(a, b, MetricSpec(kind, FeatureSet.FULL)) == 0.0


class TestSimilarityMatrix:
    def test_empty_inputs(self, rng):
        d = random_descriptors(rng, 1)[0]
        spec = MetricSpec(Metric.CSM)
        assert similarity_matrix([], [d], spec).shape == (0, 1)
        assert similarity_matrix([d], [], spec).shape == (1, 0)
        assert similarity_matrix([], [], spec).shape == (0, 0)

    def test_single_pair(self, rng):
        a, b = random_descriptors(rng, 2)
        spec = MetricSpec(Metric.CSM)
        matrix = similarity_matrix([a], [b], spec)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(csm(a, b), abs=1e-12)

    def test_symmetric_for_csm_when_queries_equal_references(self, rng):
        descs = random_descriptors(rng, 6, jm=3, joints=6)
        matrix = similarity_matrix(descs, descs, MetricSpec(Metric.CSM))
        assert_same_bits(matrix, matrix.T)
        # disjoint query and reference sets: swapping them transposes the matrix exactly
        for jm, joints in ((3, 6), (12, 30)):
            queries = random_descriptors(rng, 4, jm=jm, joints=joints)
            references = random_descriptors(rng, 7, jm=jm, joints=joints)
            forward = similarity_matrix(queries, references, MetricSpec(Metric.CSM))
            backward = similarity_matrix(references, queries, MetricSpec(Metric.CSM))
            assert_same_bits(forward, backward.T)

    def test_csm_cells_equal_pairwise_csm_exactly(self, rng):
        # jm = 12 gives 66 pairs per descriptor, enough that a pairwise
        # reduction over a single reference column would reorder the sum
        descs = random_descriptors(rng, 6, jm=12, joints=30)
        matrix = similarity_matrix(descs[:2], descs, MetricSpec(Metric.CSM))
        expected = np.array([[csm(q, r) for r in descs] for q in descs[:2]])
        assert_same_bits(matrix, expected)
        for q in descs[:2]:
            assert_same_bits(similarity_matrix([q], descs[-1:], MetricSpec(Metric.CSM)),
                             np.array([[csm(q, descs[-1])]]))

    def test_csm_with_jm1_is_all_zero(self, rng):
        descs = random_descriptors(rng, 4, jm=1, joints=3)
        matrix = similarity_matrix(descs, descs[:3], MetricSpec(Metric.CSM))
        assert_same_bits(matrix, np.zeros((4, 3)))

    def test_csm_matches_oracle_at_60_joints(self, rng):
        descs = random_descriptors(rng, 6, jm=20, joints=60)
        matrix = similarity_matrix(descs, descs, MetricSpec(Metric.CSM))
        expected = np.array([[csm_score(q, r) for r in descs] for q in descs])
        assert np.count_nonzero(expected) > len(descs)  # some off-diagonal pairs share MIJ pairs
        np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-12)

    def test_csm_exact_on_a_pool_sized_matrix(self, rng):
        # 300 x 300 descriptors at J = 60, jm = 20
        queries = random_descriptors(rng, 300, jm=20, joints=60)
        references = random_descriptors(rng, 300, jm=20, joints=60)
        spec = MetricSpec(Metric.CSM)
        matrix = similarity_matrix(queries, references, spec)
        assert_same_bits(matrix, similarity_matrix(references, queries, spec).T)
        # csm() takes milliseconds per call, so it checks one cell per row;
        # the oracle checks five per row
        cols = rng.integers(0, len(references), size=(len(queries), 5))
        for i, q in enumerate(queries):
            assert matrix[i, cols[i, 0]] == csm(q, references[cols[i, 0]])
            for j in cols[i]:
                assert abs(matrix[i, j] - csm_score(q, references[j])) <= 1e-12

    def test_matches_double_loop_oracle(self, rng):
        descs = random_descriptors(rng, 5, jm=3, joints=6)
        specs = [
            MetricSpec(Metric.CSM),
            MetricSpec(Metric.EUCLIDEAN, FeatureSet.VARIANCE),
            MetricSpec(Metric.MANHATTAN, FeatureSet.FULL),
        ]
        for spec in specs:
            matrix = similarity_matrix(descs, descs, spec)
            for q in range(5):
                for r in range(5):
                    if spec.kind is Metric.CSM:
                        expected = csm(descs[q], descs[r])
                    else:
                        expected = baseline_distance(descs[q], descs[r], spec)
                    assert matrix[q, r] == expected

    def test_mixed_jm_rejected(self, rng):
        a = random_descriptors(rng, 1, jm=3)[0]
        b = random_descriptors(rng, 1, jm=4)[0]
        with pytest.raises(ValueError, match="jm"):
            similarity_matrix([a], [b], MetricSpec(Metric.CSM))
