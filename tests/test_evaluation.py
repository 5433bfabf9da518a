import weakref

import numpy as np
import pytest

from codemotion import (
    ActionMatrix,
    EvalReport,
    FeatureSet,
    FilterSpec,
    Metric,
    MetricSpec,
    SplitPlan,
    butterworth_filter,
    compute_descriptor,
    csm,
    evaluate,
    inject_agwn,
    mij_sweep,
    noise_sweep,
    similarity_matrix,
)
from codemotion import evaluation
from oracles import csm_score

from conftest import live_at_first_call, pool_held_once, random_action, traced_peak

CSM = MetricSpec(Metric.CSM)


def sine_action(active, joints, label, subject="s0", action_id="", amp=30.0, freq=1.0,
                phase=0.0, frames=60, frame_rate=30.0, noise=0.2, seed=0):
    """Sinusoid on the chosen joints, tiny noise elsewhere."""
    rng = np.random.default_rng(seed)
    t = np.arange(frames) / frame_rate
    samples = noise * rng.standard_normal((frames, joints))
    for j in active:
        samples[:, j] += amp * np.sin(2 * np.pi * freq * t + phase)
    return ActionMatrix(samples, frame_rate, class_label=label, subject_id=subject,
                        action_id=action_id)


def disjoint_dataset(per_class=4, joints=8):
    """Two classes with disjoint active joints; MIJ sets can never overlap across classes."""
    actions = []
    for r in range(per_class):
        actions.append(sine_action([0, 1], joints, "left", action_id=f"l{r}",
                                   phase=0.3 * r, seed=100 + r))
        actions.append(sine_action([4, 5], joints, "right", action_id=f"r{r}",
                                   phase=0.2 * r, seed=200 + r))
    return actions


def one_fold(train, test):
    """A plan with a single hand-picked (train, test) fold."""
    return SplitPlan("one-fold", ((np.array(train, dtype=np.intp), np.array(test, dtype=np.intp)),))


class TestStratifiedKFold:
    def test_folds_partition_the_dataset(self):
        labels = ["a"] * 7 + ["b"] * 8 + ["c"] * 5
        plan = SplitPlan.stratified_kfold(labels, k=4, seed=3)
        seen = []
        for train, test in plan.folds:
            assert set(train.tolist()) & set(test.tolist()) == set()
            assert len(train) + len(test) == len(labels)
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(len(labels)))

    def test_classes_spread_evenly(self):
        labels = ["a"] * 10 + ["b"] * 10
        plan = SplitPlan.stratified_kfold(labels, k=5, seed=0)
        for _, test in plan.folds:
            test_labels = [labels[i] for i in test]
            assert test_labels.count("a") == 2
            assert test_labels.count("b") == 2

    def test_small_class_warns_but_splits(self):
        labels = ["a"] * 9 + ["rare"]
        with pytest.warns(UserWarning, match="best-effort"):
            plan = SplitPlan.stratified_kfold(labels, k=5, seed=1)
        assert len(plan.folds) == 5

    def test_k_equal_to_n_is_leave_one_out(self):
        labels = ["a", "b", "a", "b"]
        with pytest.warns(UserWarning, match="best-effort"):
            plan = SplitPlan.stratified_kfold(labels, k=4, seed=0)
        for _, test in plan.folds:
            assert len(test) == 1

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            SplitPlan.stratified_kfold(["a", "b"], k=1, seed=0)
        with pytest.raises(ValueError):
            SplitPlan.stratified_kfold(["a", "b"], k=3, seed=0)

    def test_deterministic_under_seed(self):
        labels = ["a"] * 12 + ["b"] * 12
        p1 = SplitPlan.stratified_kfold(labels, k=4, seed=9)
        p2 = SplitPlan.stratified_kfold(labels, k=4, seed=9)
        for (tr1, te1), (tr2, te2) in zip(p1.folds, p2.folds):
            np.testing.assert_array_equal(tr1, tr2)
            np.testing.assert_array_equal(te1, te2)

    @pytest.mark.parametrize(
        "labels, k, seed, short, tests",
        [
            (list("bacabcabacd"), 3, 0, "d", [[0, 5, 6, 8], [1, 7, 9, 10], [2, 3, 4]]),
            (list("bacabcabacd"), 3, 7, "d", [[0, 1, 8, 9], [2, 4, 6, 10], [3, 5, 7]]),
            (
                ["walk", "run", "walk", "jump", "run", "walk",
                 "jump", "run", "walk", "run", "jump", "walk"],
                4, 11, "jump",
                [[1, 5, 6], [2, 3, 7], [0, 9, 10], [4, 8, 11]],
            ),
            (list("xyxyz"), 2, 1, "z", [[0, 1, 4], [2, 3]]),
        ],
    )
    def test_exact_folds_pinned(self, labels, k, seed, short, tests):
        # classes are dealt in sorted order, each shuffled by the seeded
        # generator, round-robin from where the previous class stopped
        with pytest.warns(UserWarning) as record:
            plan = SplitPlan.stratified_kfold(labels, k=k, seed=seed)
        assert [str(w.message) for w in record] == [
            f"1 class(es) have fewer than {k} items ({short}); stratification is best-effort"
        ]
        assert [test.tolist() for _, test in plan.folds] == tests
        for train, test in plan.folds:
            assert train.tolist() == sorted(set(range(len(labels))) - set(test.tolist()))
            assert train.dtype == test.dtype == np.intp


class TestCrossSubject:
    def test_split_by_subject(self):
        subjects = ["s0", "s1", "s0", "s2", "s1"]
        plan = SplitPlan.cross_subject(subjects, ["s0", "s1"])
        train, test = plan.folds[0]
        assert train.tolist() == [0, 1, 2, 4]
        assert test.tolist() == [3]

    def test_unknown_subject_rejected(self):
        with pytest.raises(ValueError, match="unknown subject"):
            SplitPlan.cross_subject(["s0", "s1"], ["s9"])

    def test_all_subjects_in_training_rejected(self):
        with pytest.raises(ValueError, match="test split is empty"):
            SplitPlan.cross_subject(["s0", "s1"], ["s0", "s1"])


class TestEvaluate:
    def test_disjoint_classes_are_perfectly_separated(self):
        actions = disjoint_dataset(per_class=5)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=5, seed=0)
        report = evaluate(actions, jm=2, spec=CSM, plan=plan)
        assert report.accuracy == 1.0
        assert np.all(report.confusion == np.diag(np.diag(report.confusion)))
        # zero law confirmed by enumerating every cross-class score
        descs = [compute_descriptor(a, 2) for a in actions]
        for i, a in enumerate(actions):
            for j, b in enumerate(actions):
                if a.class_label != b.class_label:
                    assert csm(descs[i], descs[j]) == 0.0

    def test_confusion_row_sums_match_class_counts(self):
        actions = disjoint_dataset(per_class=4)
        labels = [a.class_label for a in actions]
        plan = SplitPlan.stratified_kfold(labels, k=4, seed=1)
        report = evaluate(actions, jm=2, spec=CSM, plan=plan)
        for c, label in enumerate(report.class_labels):
            assert report.confusion[c].sum() == labels.count(label)
        assert report.confusion.sum() == len(actions)

    def test_accuracy_is_diagonal_mass(self):
        actions = disjoint_dataset(per_class=4)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=1)
        report = evaluate(actions, jm=2, spec=CSM, plan=plan)
        assert report.accuracy == np.trace(report.confusion) / report.confusion.sum()

    def test_micro_recall_equals_accuracy(self, rng):
        # single-label identity: total diagonal over total count
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i % 3}") for i in range(18)]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=2)
        report = evaluate(actions, jm=3, spec=MetricSpec(Metric.MANHATTAN, FeatureSet.FULL), plan=plan)
        micro_recall = np.trace(report.confusion) / report.confusion.sum()
        assert report.accuracy == pytest.approx(micro_recall)

    def test_deterministic_report(self):
        actions = disjoint_dataset(per_class=4)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=5)
        r1 = evaluate(actions, jm=2, spec=CSM, plan=plan)
        r2 = evaluate(actions, jm=2, spec=CSM, plan=plan)
        np.testing.assert_array_equal(r1.confusion, r2.confusion)
        assert r1.fold_accuracies == r2.fold_accuracies

    def test_report_dict_schema(self):
        actions = disjoint_dataset(per_class=4)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=5)
        payload = evaluate(actions, jm=2, spec=CSM, plan=plan).to_dict()
        for key in ("classes", "accuracy", "precision", "recall", "confusion", "folds", "timing"):
            assert key in payload
        assert set(payload["accuracy"]) == {"overall", "mean", "std", "per_fold"}
        assert len(payload["folds"]) == 4


class TestEvalReport:
    def test_figures_derive_from_hand_made_fold_confusions(self):
        # rows true, columns predicted; "b" is absent from fold 1's test rows
        # and "c" is never predicted
        folds = [
            np.array([[2, 1, 0], [1, 1, 0], [1, 0, 0]]),
            np.array([[1, 0, 0], [0, 0, 0], [0, 2, 0]]),
        ]
        report = EvalReport(["a", "b", "c"], folds, 1.5, 0.25)
        np.testing.assert_array_equal(report.confusion, [[3, 1, 0], [1, 1, 0], [1, 2, 0]])

        def close(value):
            return pytest.approx(value, rel=0, abs=1e-15)

        # pooled: diagonal 4 of 9; precision over column sums 5, 4, 0, recall over row sums 4, 2, 3
        assert report.accuracy == close(4 / 9)
        assert report.precision_per_class.tolist() == close([3 / 5, 1 / 4, 0.0])
        assert report.recall_per_class.tolist() == close([3 / 4, 1 / 2, 0.0])
        assert report.macro_precision == close((3 / 5 + 1 / 4) / 3)
        assert report.macro_recall == close((3 / 4 + 1 / 2) / 3)
        # fold 0: 3 of 6, macro precision (1/2 + 1/2 + 0) / 3, recall (2/3 + 1/2 + 0) / 3;
        # fold 1: 1 of 3, macros over the present classes "a" and "c" alone: (1 + 0) / 2
        assert report.fold_accuracies == close([1 / 2, 1 / 3])
        assert report.accuracy_mean == close(5 / 12)
        assert report.accuracy_std == close(1 / 12)
        assert report.precision_mean == close(5 / 12)
        assert report.precision_std == close(1 / 12)
        assert report.recall_mean == close(4 / 9)
        assert report.recall_std == close(1 / 18)
        assert report.to_dict() == {
            "classes": ["a", "b", "c"],
            "accuracy": {"overall": close(4 / 9), "mean": close(5 / 12), "std": close(1 / 12),
                         "per_fold": close([1 / 2, 1 / 3])},
            "precision": {"macro": close((3 / 5 + 1 / 4) / 3), "mean": close(5 / 12), "std": close(1 / 12),
                          "per_class": {"a": close(3 / 5), "b": close(1 / 4), "c": 0.0}},
            "recall": {"macro": close((3 / 4 + 1 / 2) / 3), "mean": close(4 / 9), "std": close(1 / 18),
                       "per_class": {"a": close(3 / 4), "b": close(1 / 2), "c": 0.0}},
            "confusion": [[3, 1, 0], [1, 1, 0], [1, 2, 0]],
            "folds": [
                {"index": 0, "accuracy": close(1 / 2), "confusion": folds[0].tolist()},
                {"index": 1, "accuracy": close(1 / 3), "confusion": folds[1].tolist()},
            ],
            "timing": {"descriptor_s": 1.5, "classify_s": 0.25},
        }

    def test_no_folds_rejected(self):
        with pytest.raises(ValueError, match="no folds"):
            EvalReport(["a", "b"], [], 0.0, 0.0)

    def test_fold_that_counts_nothing_is_named(self):
        folds = [np.array([[1, 0], [0, 1]]), np.zeros((2, 2), dtype=np.int64)]
        with pytest.raises(ValueError, match="fold 1's confusion counts no test items"):
            EvalReport(["a", "b"], folds, 0.0, 0.0)

    def test_rebuilt_from_its_inputs_equals_the_evaluated_report(self, rng):
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i % 3}") for i in range(18)]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=2)
        report = evaluate(actions, jm=3, spec=MetricSpec(Metric.MANHATTAN, FeatureSet.FULL), plan=plan)
        rebuilt = EvalReport(
            report.class_labels, report.fold_confusions, report.descriptor_time, report.classify_time
        )
        assert rebuilt.to_dict() == report.to_dict()


class TestKnn1:
    """The 1-NN step, driven through evaluate with one hand-picked fold."""

    def test_single_training_item_always_wins(self, rng):
        actions = [random_action(rng, joints=6, frames=20, class_label=label) for label in ("only", "query")]
        report = evaluate(actions, jm=3, spec=CSM, plan=one_fold([0], [1]))
        assert report.confusion[report.class_labels.index("query"), report.class_labels.index("only")] == 1

    def test_empty_training_rejected(self, rng):
        actions = [random_action(rng, joints=6, frames=20) for _ in range(2)]
        with pytest.raises(ValueError, match="fold 0 of the 'one-fold' plan has an empty training set"):
            evaluate(actions, jm=3, spec=CSM, plan=one_fold([], [0, 1]))

    @pytest.mark.parametrize("folds, message", [
        ((), r"the 'hand' plan has no folds"),
        (((np.arange(3), np.array([3, 7])),), r"fold 0 of the 'hand' plan has test index 7 outside \[0, 6\)"),
        (((np.array([0, 1, -1]), np.arange(3, 6)),),
         r"fold 0 of the 'hand' plan has training index -1 outside \[0, 6\)"),
        (((np.arange(3.0), np.arange(3.0, 6.0)),), r"fold 0 of the 'hand' plan has non-integer training indices"),
        (((np.array([[0, 1], [2, 3]]), np.array([4, 5])),),
         r"fold 0 of the 'hand' plan has a 2-D training set, not a list of indices"),
        (((np.arange(4), np.arange(4, 6)), (np.array([0, 1, 2]), np.array([2, 3]))),
         r"fold 1 of the 'hand' plan has index 2 in both its training and test sets"),
        (((np.array([0, 0, 1]), np.arange(2, 6)),), r"fold 0 of the 'hand' plan repeats training index 0"),
        (((np.arange(3), np.array([5, 3, 5])),), r"fold 0 of the 'hand' plan repeats test index 5"),
    ], ids=["no-folds", "test-index-n-plus-1", "negative-training-index", "float-indices", "2-d-indices",
            "training-and-test-overlap", "repeated-training-index", "repeated-test-index"])
    def test_bad_plan_is_named_before_any_descriptor(self, rng, monkeypatch, folds, message):
        def never(action, jm):
            raise AssertionError("a descriptor was computed")

        monkeypatch.setattr(evaluation, "compute_descriptor", never)
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i % 2}") for i in range(6)]
        with pytest.raises(ValueError, match=message):
            evaluate(actions, jm=3, spec=CSM, plan=SplitPlan("hand", folds))

    def test_list_folds_give_the_array_plan_report(self, rng):
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i % 2}") for i in range(6)]
        folds = (([0, 1, 2, 3], [4, 5]), ([2, 3, 4, 5], [0, 1]))
        plan = SplitPlan("hand", folds)
        assert all(isinstance(items, np.ndarray) for fold in plan.folds for items in fold)
        arrays = SplitPlan("hand", tuple((np.array(tr), np.array(te)) for tr, te in folds))
        report = evaluate(actions, jm=3, spec=CSM, plan=plan)
        assert report.to_dict()["folds"] == evaluate(actions, jm=3, spec=CSM, plan=arrays).to_dict()["folds"]

    def test_tie_goes_to_lowest_index(self, rng):
        # three copies of one action: every training item scores the same
        samples = random_action(rng, joints=6, frames=20).samples
        actions = [ActionMatrix(samples, 30.0, class_label=label) for label in ("first", "second", "query")]
        # the winner is the first item of the fold's training list
        for train, expected in (([0, 1], "first"), ([1, 0], "second")):
            report = evaluate(actions, jm=3, spec=CSM, plan=one_fold(train, [2]))
            row = report.confusion[report.class_labels.index("query")]
            assert row.sum() == 1
            assert report.class_labels[int(row.argmax())] == expected

    def test_exact_duplicate_is_found(self):
        actions = disjoint_dataset(per_class=3)
        report = evaluate(actions + actions[:1], jm=2, spec=CSM, plan=one_fold(range(6), [6]))
        left = report.class_labels.index("left")
        assert report.confusion[left, left] == 1

    def test_exact_duplicate_wins_under_every_metric(self, rng):
        # self-distance 0 (or maximal self-similarity) is the unique optimum here
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i}") for i in range(4)]
        specs = [CSM, MetricSpec(Metric.EUCLIDEAN, FeatureSet.FULL),
                 MetricSpec(Metric.MANHATTAN, FeatureSet.VARIANCE_VELOCITY)]
        for spec in specs:
            report = evaluate(actions + actions, jm=3, spec=spec, plan=one_fold(range(4), range(4, 8)))
            np.testing.assert_array_equal(report.confusion, np.eye(4, dtype=np.int64))

    def test_argmax_confirmed_by_enumeration(self, rng):
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i}") for i in range(8)]
        descs = [compute_descriptor(a, 3) for a in actions]
        scores = [csm_score(descs[0], d) for d in descs[1:]]
        best = 1 + max(range(len(scores)), key=scores.__getitem__)
        report = evaluate(actions, jm=3, spec=CSM, plan=one_fold(range(1, 8), [0]))
        assert report.confusion[0, best] == 1


class TestOneClassificationPath:
    def test_each_protocol_scores_every_fold_of_every_variant_once(self, monkeypatch):
        # evaluate, mij_sweep and noise_sweep share one 1-NN step; each
        # (jm, spec) or sigma variant is one similarity_matrix call over the
        # whole pool, n x n for k-fold, which every fold slices
        real = evaluation.similarity_matrix
        calls = []

        def counting(queries, references, spec):
            queries, references = list(queries), list(references)
            calls.append((spec, len(queries), len(references)))
            return real(queries, references, spec)

        monkeypatch.setattr(evaluation, "similarity_matrix", counting)
        actions = disjoint_dataset(per_class=4)
        n = len(actions)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=0)
        manhattan = MetricSpec(Metric.MANHATTAN, FeatureSet.VARIANCE)

        evaluate(actions, jm=2, spec=CSM, plan=plan)
        assert calls == [(CSM, n, n)]
        calls.clear()
        mij_sweep(actions, [2, 3], [CSM, manhattan], plan)
        assert calls == [(CSM, n, n), (manhattan, n, n)] * 2
        calls.clear()
        noise_sweep(actions, [0.0, 1.0, 2.0], jm=2, spec=CSM, plan=plan, seed=1)
        assert calls == [(CSM, n, n)] * 3

    def test_fold_blocks_match_per_fold_scoring(self, rng):
        # hand-built folds that overlap and list their items out of order: each
        # fold's predictions equal a 1-NN over its own [test, train] matrix
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i % 3}") for i in range(12)]
        labels = [a.class_label for a in actions]
        descs = [compute_descriptor(a, 3) for a in actions]
        folds = (([7, 2, 9, 0, 4], [11, 3, 5]), ([3, 11, 1, 8], [0, 9, 6, 2]), ([5, 10, 6], [7, 1]))
        plan = SplitPlan("hand", tuple((np.array(tr), np.array(te)) for tr, te in folds))
        for spec in (CSM, MetricSpec(Metric.EUCLIDEAN, FeatureSet.VARIANCE_VELOCITY)):
            report = evaluate(actions, jm=3, spec=spec, plan=plan)
            for (train, test), conf in zip(folds, report.fold_confusions):
                scores = similarity_matrix([descs[i] for i in test], [descs[j] for j in train], spec)
                best = scores.argmax(axis=1) if spec.higher_is_better else scores.argmin(axis=1)
                expected = np.zeros_like(conf)
                for i, b in zip(test, best):
                    expected[report.class_labels.index(labels[i]),
                             report.class_labels.index(labels[train[b]])] += 1
                np.testing.assert_array_equal(conf, expected)

    def test_cross_subject_scores_test_items_against_training_items(self, monkeypatch):
        real = evaluation.similarity_matrix
        shapes = []

        def recording(queries, references, spec):
            scores = real(queries, references, spec)
            shapes.append(scores.shape)
            return scores

        monkeypatch.setattr(evaluation, "similarity_matrix", recording)
        actions = [
            sine_action([j, j + 1], 8, f"c{j}", subject=f"s{r % 3}", phase=0.2 * r, seed=10 * j + r)
            for j in range(4)
            for r in range(5)
        ]
        plan = SplitPlan.cross_subject([a.subject_id for a in actions], ["s0", "s2"])
        (train, test), = plan.folds
        evaluate(actions, jm=2, spec=CSM, plan=plan)
        assert shapes == [(len(test), len(train))]
        assert len(train) + len(test) == len(actions)


def without_timing(report):
    payload = report.to_dict()
    del payload["timing"]
    return payload


class TestMijSweep:
    def test_reports_equal_per_cell_evaluate_in_jm_major_order(self, rng):
        # random classes, so the cells differ from one another
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i % 3}") for i in range(18)]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=4)
        specs = [CSM, MetricSpec(Metric.MANHATTAN, FeatureSet.VARIANCE),
                 MetricSpec(Metric.EUCLIDEAN, FeatureSet.FULL)]
        reports = mij_sweep(actions, [4, 2], specs, plan)
        expected = [evaluate(actions, jm, spec, plan) for jm in (4, 2) for spec in specs]
        assert [without_timing(r) for r in reports] == [without_timing(r) for r in expected]
        assert len({str(without_timing(r)) for r in reports}) > 1

    def test_jm_beyond_joint_count_rejected(self):
        actions = disjoint_dataset(per_class=3, joints=8)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=0)
        with pytest.raises(ValueError, match="jm"):
            mij_sweep(actions, [9], [CSM], plan)

    @pytest.mark.parametrize("jm", [0, 9])
    def test_every_protocol_checks_jm_up_front(self, monkeypatch, jm):
        # one range check for every protocol, before any descriptor is computed
        def never(action, jm):
            raise AssertionError("a descriptor was computed")

        monkeypatch.setattr(evaluation, "compute_descriptor", never)
        actions = disjoint_dataset(per_class=3, joints=8)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=0)
        message = rf"jm={jm} is outside \[1, 8\]"
        with pytest.raises(ValueError, match=message):
            evaluate(actions, jm, CSM, plan)
        with pytest.raises(ValueError, match=message):
            mij_sweep(actions, [2, jm], [CSM], plan)
        with pytest.raises(ValueError, match=message):
            noise_sweep(actions, [0.0], jm, CSM, plan, seed=1)

    def test_variance_only_accuracy_invariant_to_joint_permutation(self, rng):
        actions = [random_action(rng, joints=5, frames=24, class_label=f"c{i % 2}",
                                 action_id=str(i)) for i in range(12)]
        perm = rng.permutation(5)
        permuted = [
            ActionMatrix(a.samples[:, perm], a.frame_rate, a.class_label, a.subject_id, a.action_id)
            for a in actions
        ]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=7)
        spec = MetricSpec(Metric.EUCLIDEAN, FeatureSet.VARIANCE)
        base = mij_sweep(actions, [5], [spec], plan)[0]
        swapped = mij_sweep(permuted, [5], [spec], plan)[0]
        assert base.accuracy_mean == swapped.accuracy_mean

    def test_handed_over_pool_is_freed_before_scoring(self, monkeypatch):
        # every jm is described before the first score, and the actions go then
        actions = disjoint_dataset(per_class=4)
        refs = [weakref.ref(a) for a in actions]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=0)
        live = live_at_first_call(monkeypatch, evaluation, "similarity_matrix", refs)
        pool = iter(actions)
        del actions
        assert len(mij_sweep(pool, [2, 3], [CSM], plan)) == 2
        assert live == [0]

    def test_kept_list_gives_the_same_reports_and_stays_intact(self):
        actions = disjoint_dataset(per_class=4)
        kept = list(actions)
        samples = [a.samples.tobytes() for a in actions]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=0)
        specs = [CSM, MetricSpec(Metric.MANHATTAN, FeatureSet.VARIANCE)]
        from_list = mij_sweep(actions, [2, 3], specs, plan)
        handed_over = mij_sweep(iter(list(actions)), [2, 3], specs, plan)
        assert [without_timing(r) for r in from_list] == [without_timing(r) for r in handed_over]
        assert len(actions) == len(kept) and all(a is b for a, b in zip(actions, kept))
        assert [a.samples.tobytes() for a in actions] == samples

    def test_sweep_reproducible(self):
        actions = disjoint_dataset(per_class=4)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=3)
        specs = [CSM, MetricSpec(Metric.MANHATTAN, FeatureSet.VARIANCE)]
        first = mij_sweep(actions, [2, 3], specs, plan)
        second = mij_sweep(actions, [2, 3], specs, plan)
        assert len(first) == 4
        assert [without_timing(r) for r in first] == [without_timing(r) for r in second]


class TestInjectAgwn:
    def test_sigma_zero_is_bit_identical(self, rng):
        action = random_action(rng, joints=4, frames=20)
        noisy = inject_agwn(action, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.samples, action.samples)
        assert noisy.class_label == action.class_label

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            inject_agwn(random_action(rng), -1.0, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_is_named(self, rng, sigma):
        with pytest.raises(ValueError, match=f"sigma_deg must be finite, got {sigma}"):
            inject_agwn(random_action(rng), sigma, seed=0)

    def test_deterministic_under_seed(self, rng):
        action = random_action(rng, joints=4, frames=20)
        n1 = inject_agwn(action, 2.0, seed=42)
        n2 = inject_agwn(action, 2.0, seed=42)
        np.testing.assert_array_equal(n1.samples, n2.samples)

    def test_noise_statistics(self):
        # statistical oracle: 1e6 draws, mean within 0.01 of 0, std within 1% of sigma
        action = ActionMatrix(np.zeros((1000, 1000)), frame_rate=30.0)
        sigma = 2.5
        noise = inject_agwn(action, sigma, seed=7).samples
        assert abs(noise.mean()) < 0.01
        assert abs(noise.std() - sigma) < 0.01 * sigma


class TestNoiseSweep:
    def test_sigma_zero_matches_plain_evaluate(self, rng):
        # random classes, so the fold accuracies differ and their std is not trivially 0
        actions = [random_action(rng, joints=6, frames=20, class_label=f"c{i % 3}") for i in range(18)]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=0)
        reports = noise_sweep(actions, [0.0, 1.0], jm=3, spec=CSM, plan=plan, seed=11)
        report = evaluate(actions, jm=3, spec=CSM, plan=plan)
        assert report.accuracy_std > 0.0
        assert len(reports) == 2
        assert reports[0].accuracy_mean == report.accuracy_mean
        assert reports[0].accuracy_std == report.accuracy_std
        assert without_timing(reports[0]) == without_timing(report)

    def test_filtered_sigma_zero_matches_evaluate_on_the_filtered_pool(self, rng):
        actions = [random_action(rng, joints=6, frames=40, frame_rate=120.0, class_label=f"c{i % 3}")
                   for i in range(18)]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=0)
        reports = noise_sweep(actions, [0.0, 1.0], jm=3, spec=CSM, plan=plan, seed=11,
                              filter_spec=FilterSpec())
        filtered = evaluate(butterworth_filter(actions, FilterSpec()), jm=3, spec=CSM, plan=plan)
        assert without_timing(reports[0]) == without_timing(filtered)
        # the filter changes the outcome here, so skipping it would show
        assert without_timing(filtered) != without_timing(evaluate(actions, jm=3, spec=CSM, plan=plan))

    def test_rows_follow_requested_sigmas(self, monkeypatch):
        # one report per sigma, in the given order: each pool is scored right
        # after the noise of its own sigma is injected
        log = []
        real_inject, real_matrix = evaluation.inject_agwn, evaluation.similarity_matrix

        def injecting(action, sigma_deg, seed):
            if not log or log[-1] != sigma_deg:
                log.append(sigma_deg)
            return real_inject(action, sigma_deg, seed)

        def scoring(queries, references, spec):
            log.append("scored")
            return real_matrix(queries, references, spec)

        monkeypatch.setattr(evaluation, "inject_agwn", injecting)
        monkeypatch.setattr(evaluation, "similarity_matrix", scoring)
        actions = disjoint_dataset(per_class=3)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=0)
        reports = noise_sweep(actions, [5.0, 0.0, 2.0], jm=2, spec=CSM, plan=plan, seed=1)
        assert len(reports) == 3
        assert log == [5.0, "scored", 0.0, "scored", 2.0, "scored"]

    @pytest.mark.parametrize("corrupt_train, expected", [(True, 16), (False, 24)])
    def test_clean_pool_described_only_when_scored(self, monkeypatch, corrupt_train, expected):
        # 8 actions x 2 sigmas of noisy descriptors, plus 8 clean ones unless corrupt_train
        real = evaluation.compute_descriptor
        calls = []

        def counting(action, jm):
            calls.append(action)
            return real(action, jm)

        monkeypatch.setattr(evaluation, "compute_descriptor", counting)
        actions = disjoint_dataset(per_class=4)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=0)
        noise_sweep(actions, [0.0, 1.0], jm=2, spec=CSM, plan=plan, seed=1,
                    corrupt_train=corrupt_train)
        assert len(calls) == expected

    def test_corrupt_train_flag_changes_training_pool(self):
        actions = disjoint_dataset(per_class=4)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=4, seed=0)
        # both modes run; scores may coincide on easy data, so only check determinism
        clean = noise_sweep(actions, [3.0], jm=2, spec=CSM, plan=plan, seed=5)
        both = noise_sweep(actions, [3.0], jm=2, spec=CSM, plan=plan, seed=5, corrupt_train=True)
        again = noise_sweep(actions, [3.0], jm=2, spec=CSM, plan=plan, seed=5, corrupt_train=True)
        assert both[0].accuracy_mean == again[0].accuracy_mean
        assert len(clean) == len(both) == 1

    POOL = (24, 400, 20)  # actions, frames, joints

    def traced_sweep_peak(self, rng, filter_spec, corrupt_train):
        """The traced peak of a two-sigma noise sweep over a random pool of shape ``POOL``."""
        count, frames, joints = self.POOL
        actions = [ActionMatrix(20.0 * rng.standard_normal((frames, joints)), 120.0, f"c{i % 3}",
                                "s", f"a{i}") for i in range(count)]
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=3, seed=0)

        def sweep():
            return noise_sweep(actions, [0.0, 2.0], jm=joints, spec=CSM, plan=plan, seed=1,
                               filter_spec=filter_spec, corrupt_train=corrupt_train)

        expected = sweep()  # first-call imports and caches stay out of the measured peak
        reports, peak = traced_peak(sweep)
        assert [r.accuracy_mean for r in reports] == [r.accuracy_mean for r in expected]
        return peak

    @pytest.mark.parametrize("corrupt_train", [False, True], ids=["test-only", "corrupt-train"])
    def test_noisy_pool_is_freed_as_it_is_buffered(self, rng, corrupt_train):
        # the filter gets each noisy pool as a generator, so it holds the pool
        # once at the peak, plus its buffer, like a pool handed over to it
        peak = self.traced_sweep_peak(rng, FilterSpec(), corrupt_train)
        assert peak < pool_held_once(*self.POOL)

    @pytest.mark.parametrize("corrupt_train", [False, True], ids=["test-only", "corrupt-train"])
    def test_unfiltered_noisy_pool_is_freed_as_it_is_described(self, rng, corrupt_train):
        # without a filter each noisy pool is described from its generator, so
        # no noisy pool is ever held whole
        peak = self.traced_sweep_peak(rng, None, corrupt_train)
        assert peak < np.prod(self.POOL) * 8  # one pool's sample bytes
