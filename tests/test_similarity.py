import math

import numpy as np
import pytest

from codemotion import (
    CodeDescriptor,
    FeatureSet,
    Metric,
    MetricSpec,
    compute_descriptor,
    csm,
    similarity_matrix,
    stack_descriptor,
)
from codemotion import similarity
from oracles import csm_score, euclidean_distance, manhattan_distance

from conftest import random_action, traced_peak


def make_descriptor(mij, var, vmax, vmin, corr):
    return CodeDescriptor(mij, var, vmax, vmin, corr, jm=len(mij))


def random_descriptors(rng, n, jm=4, joints=8):
    return [compute_descriptor(random_action(rng, joints=joints, frames=20), jm) for _ in range(n)]


def assert_same_bits(actual, expected):
    """Exact equality of float64 arrays, bit pattern by bit pattern."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestFeatureSets:
    @pytest.mark.parametrize("jm", [1, 2, 5])
    @pytest.mark.parametrize("features", list(FeatureSet), ids=lambda f: f.value)
    @pytest.mark.parametrize("kind", [Metric.EUCLIDEAN, Metric.MANHATTAN], ids=lambda m: m.value)
    def test_baselines_read_a_prefix_of_the_stacked_descriptor(self, rng, kind, features, jm):
        a, b = (compute_descriptor(random_action(rng, joints=6, frames=20), jm) for _ in range(2))
        length = {
            FeatureSet.VARIANCE: jm,
            FeatureSet.VARIANCE_VELOCITY: 3 * jm,
            FeatureSet.FULL: 3 * jm + jm * (jm - 1) // 2,
        }[features]
        total = 0.0
        for x, y in zip(stack_descriptor(a)[:length].tolist(), stack_descriptor(b)[:length].tolist()):
            total += abs(x - y) if kind is Metric.MANHATTAN else (x - y) * (x - y)
        expected = math.sqrt(total) if kind is Metric.EUCLIDEAN else total
        cell = similarity_matrix([a], [b], MetricSpec(kind, features))[0, 0]
        assert_same_bits(np.array([cell]), np.array([expected]))


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
                assert similarity_matrix([a], [a], MetricSpec(kind, features))[0, 0] == 0.0

    def test_hand_example_var_vel_manhattan(self):
        # identical except vmax [1] vs [-1]: |1 - (-1)| = 2
        a = make_descriptor([0], [1.0], [1.0], [1.0], [])
        b = make_descriptor([0], [1.0], [-1.0], [1.0], [])
        spec = MetricSpec(Metric.MANHATTAN, FeatureSet.VARIANCE_VELOCITY)
        assert similarity_matrix([a], [b], spec)[0, 0] == 2.0

    def test_matches_loop_oracles(self, rng):
        a, b = random_descriptors(rng, 2, jm=4, joints=7)
        for features in FeatureSet:
            man = similarity_matrix([a], [b], MetricSpec(Metric.MANHATTAN, features))[0, 0]
            euc = similarity_matrix([a], [b], MetricSpec(Metric.EUCLIDEAN, features))[0, 0]
            assert man == pytest.approx(manhattan_distance(a, b, features.value), abs=1e-12)
            assert euc == pytest.approx(euclidean_distance(a, b, features.value), abs=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a, b, c = random_descriptors(rng, 3, jm=3, joints=6)
            for kind in (Metric.EUCLIDEAN, Metric.MANHATTAN):
                spec = MetricSpec(kind, FeatureSet.FULL)
                ab = similarity_matrix([a], [b], spec)[0, 0]
                ac = similarity_matrix([a], [c], spec)[0, 0]
                cb = similarity_matrix([c], [b], spec)[0, 0]
                assert ab <= ac + cb + 1e-12

    def test_mij_slots_do_not_affect_distance(self):
        # same feature values on different joints: distance ignores the labels
        a = make_descriptor([0, 1], [0.6, 0.4], [1.0, 0.0], [-1.0, 0.0], [0.2])
        b = make_descriptor([5, 7], [0.6, 0.4], [1.0, 0.0], [-1.0, 0.0], [0.2])
        for kind in (Metric.EUCLIDEAN, Metric.MANHATTAN):
            assert similarity_matrix([a], [b], MetricSpec(kind, FeatureSet.FULL))[0, 0] == 0.0


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
                        expected = similarity_matrix([descs[q]], [descs[r]], spec)[0, 0]
                    assert matrix[q, r] == expected

    def test_mixed_jm_rejected(self, rng):
        a = random_descriptors(rng, 1, jm=3)[0]
        b = random_descriptors(rng, 1, jm=4)[0]
        with pytest.raises(ValueError, match="jm"):
            similarity_matrix([a], [b], MetricSpec(Metric.CSM))


def loop_csm(a, b):
    """CSM as a plain Python-float loop over the shared MIJ pairs in pair-id order, from 0.0."""
    def pairs(d):
        g = d.var_norm + d.vmax_norm + d.vmin_norm
        return {
            tuple(sorted((int(d.mij[p]), int(d.mij[q])))): (float(d.corr[k]), float(g[p] + g[q]))
            for k, (p, q) in enumerate(zip(*np.triu_indices(d.jm, k=1)))
        }

    pa, pb = pairs(a), pairs(b)
    total = 0.0
    for pair in sorted(pa.keys() & pb.keys()):  # (lo, hi) order is pair-id order
        (ca, ma), (cb, mb) = pa[pair], pb[pair]
        total += (1.0 - 0.5 * abs(ca - cb)) * (ma + mb)
    return total


def loop_baseline(a, b, spec):
    """L1 or L2 as a plain Python-float loop over the features in order, from 0.0."""
    names = ("var_norm", "vmax_norm", "vmin_norm", "corr")
    count = {FeatureSet.VARIANCE: 1, FeatureSet.VARIANCE_VELOCITY: 3, FeatureSet.FULL: 4}[spec.features]
    total = 0.0
    for name in names[:count]:
        for x, y in zip(getattr(a, name).tolist(), getattr(b, name).tolist()):
            total += abs(x - y) if spec.kind is Metric.MANHATTAN else (x - y) * (x - y)
    return total if spec.kind is Metric.MANHATTAN else float(np.sqrt(total))


def loop_matrix(queries, references, spec):
    cell = loop_csm if spec.kind is Metric.CSM else (lambda a, b: loop_baseline(a, b, spec))
    return np.array([[cell(q, r) for r in references] for q in queries]).reshape(len(queries), len(references))


def copies(descriptors):
    """Equal descriptors that are distinct objects, so a matrix of them takes the cross path."""
    return [CodeDescriptor(d.mij, d.var_norm, d.vmax_norm, d.vmin_norm, d.corr, d.jm) for d in descriptors]


ALL_SPECS = [MetricSpec(Metric.CSM)] + [
    MetricSpec(kind, features) for kind in (Metric.EUCLIDEAN, Metric.MANHATTAN) for features in FeatureSet
]
SPEC_IDS = [f"{s.kind.value}-{s.features.value}" for s in ALL_SPECS]


class TestBlockedKernel:
    """One kernel: blocks of cells, each summed term by term; a self-matrix as its upper triangle."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    def test_cells_equal_a_plain_loop_in_term_order(self, rng, spec):
        # jm = 12 over 14 joints: 66 terms a cell and most pairs shared, so a
        # pairwise or reordered sum would change last bits; jm = 6 over 30
        # joints: most pairs missing from the reference, each a clamped weight.
        # No floating-point flag may be raised on the way.
        for descs in (random_descriptors(rng, 9, jm=12, joints=14), random_descriptors(rng, 9, jm=6, joints=30)):
            with np.errstate(all="raise"):
                assert_same_bits(similarity_matrix(descs, descs, spec), loop_matrix(descs, descs, spec))
                assert_same_bits(
                    similarity_matrix(descs[:4], descs[4:], spec), loop_matrix(descs[:4], descs[4:], spec)
                )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    def test_self_and_cross_paths_and_block_sizes_agree(self, rng, spec, monkeypatch):
        pool = random_descriptors(rng, 65, jm=6, joints=9)
        count = 15 if spec.kind is Metric.CSM else {"var": 6, "var-vel": 18, "full": 33}[spec.features.value]
        for n in (1, 2, 31, 32, 33, 65):
            descs = pool[:n]
            monkeypatch.setattr(similarity, "_BLOCK_ELEMENTS", 1 << 40)
            whole = similarity_matrix(descs, descs, spec)
            assert_same_bits(similarity_matrix(descs, copies(descs), spec), whole)
            # one cell, seven cells, and 40 cells a block: one-cell planes,
            # uneven column chunks, and blocks of several rows
            for cells in (1, 7, 40):
                monkeypatch.setattr(similarity, "_BLOCK_ELEMENTS", cells * count)
                assert_same_bits(similarity_matrix(descs, descs, spec), whole)
                assert_same_bits(similarity_matrix(descs, copies(descs), spec), whole)

    def test_self_matrix_sums_only_its_upper_triangle(self, rng, monkeypatch):
        descs = random_descriptors(rng, 33, jm=4, joints=8)
        summed = []
        real = similarity._sum_terms

        def counting(terms):
            summed.append(terms[0].size)
            return real(terms)

        monkeypatch.setattr(similarity, "_sum_terms", counting)
        monkeypatch.setattr(similarity, "_BLOCK_ELEMENTS", 6)  # one cell a block at jm = 4
        matrix = similarity_matrix(descs, descs, MetricSpec(Metric.CSM))
        assert sum(summed) == 33 * 34 // 2
        assert_same_bits(matrix, matrix.T)
        summed.clear()
        similarity_matrix(descs, copies(descs), MetricSpec(Metric.CSM))
        assert sum(summed) == 33 * 33

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 1), (1, 2)])
    def test_one_row_and_one_column_shapes(self, rng, spec, shape):
        descs = random_descriptors(rng, sum(shape), jm=12, joints=14)
        queries, references = descs[: shape[0]], descs[shape[0] :]
        matrix = similarity_matrix(queries, references, spec)
        assert_same_bits(matrix, loop_matrix(queries, references, spec))
        assert_same_bits(similarity_matrix(references, queries, spec), matrix.T)

    def test_csm_peak_is_two_reference_tables(self, rng):
        # J = 60 joints, jm = 20: the kernel holds a (pair id, reference)
        # correlation table and a mass table, the matrix and its blocks
        descs = random_descriptors(rng, 400, jm=20, joints=60)
        assert 1 + max(int(d.mij.max()) for d in descs) == 60
        spec = MetricSpec(Metric.CSM)
        for queries, references in ((descs, descs), (descs[:160], descs[160:])):
            table = 60 * 59 // 2 * len(references) * 8
            matrix, peak = traced_peak(lambda: similarity_matrix(queries, references, spec))
            assert peak <= 2 * table + matrix.nbytes + (4 << 20)

    def test_all_zero_terms_sum_to_positive_zero(self):
        # one shared pair whose weight is 0 (correlations 1 and -1) and whose
        # mass is negative: its only term is 0 * negative = -0.0, where a loop
        # from 0.0 gives 0.0
        a = make_descriptor([0, 1], [0.1, 0.1], [0.1, 0.1], [-0.5, -0.5], [1.0])
        b = make_descriptor([1, 0], [0.1, 0.1], [0.1, 0.1], [-0.5, -0.5], [-1.0])
        matrix = similarity_matrix([a], [b, b], MetricSpec(Metric.CSM))
        assert_same_bits(matrix, np.zeros((1, 2)))
        assert_same_bits(np.array([csm(a, b)]), np.zeros(1))
