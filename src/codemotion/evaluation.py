"""1-nearest-neighbor evaluation: split plans, metrics, MIJ and noise sweeps."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .descriptor import ActionMatrix, CodeDescriptor, compute_descriptor, stacked_length
from .similarity import MetricSpec, similarity_matrix

__all__ = [
    "SplitPlan",
    "EvalReport",
    "SweepCell",
    "NoiseRow",
    "evaluate",
    "mij_sweep",
    "inject_agwn",
    "noise_sweep",
]


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """A partition of dataset indices into (train, test) folds, none of them empty."""

    kind: str
    folds: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        for n, (train, test) in enumerate(self.folds):
            for part, items in (("training", train), ("test", test)):
                if len(items) == 0:
                    raise ValueError(f"fold {n} of the {self.kind!r} plan has an empty {part} set")

    @staticmethod
    def stratified_kfold(labels, k: int, seed: int) -> "SplitPlan":
        """Seeded stratified k-fold: each class is spread across folds as evenly as counts allow.

        Classes with fewer items than folds trigger a warning and get a
        best-effort spread instead of an error.
        """
        labels = list(labels)
        n = len(labels)
        if n == 0:
            raise ValueError("cannot split an empty dataset")
        if not 2 <= k <= n:
            raise ValueError(f"fold count must be in [2, {n}], got {k}")
        rng = np.random.default_rng(seed)
        classes, inverse, counts = np.unique(
            np.asarray(labels, dtype=object), return_inverse=True, return_counts=True
        )
        short = sorted(str(label) for label, c in zip(classes, counts) if c < k)
        if short:
            warnings.warn(
                f"{len(short)} class(es) have fewer than {k} items "
                f"({', '.join(short[:5])}{'...' if len(short) > 5 else ''}); "
                "stratification is best-effort",
                stacklevel=2,
            )
        # each class, shuffled, deals its items to the folds round-robin from
        # where the previous class stopped
        fold_of = np.empty(n, dtype=np.intp)
        cursor = 0
        for c in range(classes.size):
            idx = np.flatnonzero(inverse == c)
            rng.shuffle(idx)
            fold_of[idx] = (cursor + np.arange(idx.size)) % k
            cursor = (cursor + idx.size) % k
        folds = tuple(
            (np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(k)
        )
        return SplitPlan("stratified-kfold", folds)

    @staticmethod
    def cross_subject(subject_ids, train_subjects) -> "SplitPlan":
        """Single train/test split by performer identity."""
        subject_ids = list(subject_ids)
        train_set = set(train_subjects)
        unknown = sorted(train_set - set(subject_ids))
        if unknown:
            raise ValueError(f"unknown subject(s): {', '.join(str(s) for s in unknown)}")
        train = np.array(
            [i for i, s in enumerate(subject_ids) if s in train_set], dtype=np.intp
        )
        test = np.array(
            [i for i, s in enumerate(subject_ids) if s not in train_set], dtype=np.intp
        )
        if test.size == 0:
            raise ValueError("every subject is in the training set; test split is empty")
        return SplitPlan("cross-subject", ((train, test),))


@dataclass(eq=False)
class EvalReport:
    """Classification outcome: confusion counts, accuracy, precision/recall, timings."""

    class_labels: list[str]
    confusion: np.ndarray
    accuracy: float
    precision_per_class: np.ndarray
    recall_per_class: np.ndarray
    macro_precision: float
    macro_recall: float
    accuracy_mean: float
    accuracy_std: float
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    fold_accuracies: list[float]
    fold_confusions: list[np.ndarray]
    descriptor_time: float
    classify_time: float

    def to_dict(self) -> dict:
        return {
            "classes": list(self.class_labels),
            "accuracy": {
                "overall": self.accuracy,
                "mean": self.accuracy_mean,
                "std": self.accuracy_std,
                "per_fold": list(self.fold_accuracies),
            },
            "precision": {
                "macro": self.macro_precision,
                "mean": self.precision_mean,
                "std": self.precision_std,
                "per_class": {
                    label: float(v)
                    for label, v in zip(self.class_labels, self.precision_per_class)
                },
            },
            "recall": {
                "macro": self.macro_recall,
                "mean": self.recall_mean,
                "std": self.recall_std,
                "per_class": {
                    label: float(v)
                    for label, v in zip(self.class_labels, self.recall_per_class)
                },
            },
            "confusion": self.confusion.tolist(),
            "folds": [
                {"index": i, "accuracy": acc, "confusion": conf.tolist()}
                for i, (acc, conf) in enumerate(zip(self.fold_accuracies, self.fold_confusions))
            ],
            "timing": {
                "descriptor_s": self.descriptor_time,
                "classify_s": self.classify_time,
            },
        }


def _per_class(conf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class precision and recall; a class never predicted or never present scores 0."""
    diag = np.diag(conf).astype(np.float64)
    col = conf.sum(axis=0).astype(np.float64)
    row = conf.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    return precision, recall


def _fold_metrics(conf: np.ndarray) -> tuple[float, float, float]:
    accuracy = float(np.trace(conf) / conf.sum())
    precision, recall = _per_class(conf)
    present = conf.sum(axis=1) > 0  # classes missing from this fold's test set stay out of the macro
    return accuracy, float(precision[present].mean()), float(recall[present].mean())


def _aggregate_report(fold_confusions, descriptor_time, classify_time, class_labels):
    fold_stats = [_fold_metrics(conf) for conf in fold_confusions]
    fold_acc = [s[0] for s in fold_stats]
    fold_prec = [s[1] for s in fold_stats]
    fold_rec = [s[2] for s in fold_stats]
    confusion = np.sum(fold_confusions, axis=0)
    accuracy, macro_precision, macro_recall = _fold_metrics(confusion)
    precision_per_class, recall_per_class = _per_class(confusion)
    return EvalReport(
        class_labels=class_labels,
        confusion=confusion,
        accuracy=accuracy,
        precision_per_class=precision_per_class,
        recall_per_class=recall_per_class,
        macro_precision=macro_precision,
        macro_recall=macro_recall,
        accuracy_mean=float(np.mean(fold_acc)),
        accuracy_std=float(np.std(fold_acc)),
        precision_mean=float(np.mean(fold_prec)),
        precision_std=float(np.std(fold_prec)),
        recall_mean=float(np.mean(fold_rec)),
        recall_std=float(np.std(fold_rec)),
        fold_accuracies=fold_acc,
        fold_confusions=list(fold_confusions),
        descriptor_time=descriptor_time,
        classify_time=classify_time,
    )


def _describe(dataset, jm: int) -> tuple[list[CodeDescriptor], float]:
    t0 = time.perf_counter()
    descriptors = [compute_descriptor(a, jm) for a in dataset]
    return descriptors, time.perf_counter() - t0


def _classify(queries, references, labels, spec, plan, descriptor_time) -> EvalReport:
    """1-NN over every fold of ``plan``, the one classification step of every protocol.

    One matrix scores every fold's test items ``queries[i]`` against every
    fold's training items ``references[j]``; each fold reads its
    ``[test, train]`` block from it. Ties go to the earliest item of the
    fold's training list.
    """
    classes, y = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    t0 = time.perf_counter()
    # The union also scores each fold's test items against each other, cells no
    # fold reads; one call is still cheaper than one per fold at workload scale.
    rows = np.unique(np.concatenate([test for _, test in plan.folds]))
    cols = np.unique(np.concatenate([train for train, _ in plan.folds]))
    matrix = similarity_matrix([queries[i] for i in rows], [references[j] for j in cols], spec)
    fold_confusions = []
    for train, test in plan.folds:
        block = matrix[np.ix_(np.searchsorted(rows, test), np.searchsorted(cols, train))]
        best = block.argmax(axis=1) if spec.higher_is_better else block.argmin(axis=1)
        conf = np.zeros((classes.size, classes.size), dtype=np.int64)
        np.add.at(conf, (y[test], y[train[best]]), 1)
        fold_confusions.append(conf)
    classify_time = time.perf_counter() - t0
    return _aggregate_report(fold_confusions, descriptor_time, classify_time, classes.tolist())


def evaluate(dataset, jm: int, spec: MetricSpec, plan: SplitPlan) -> EvalReport:
    """Run 1-NN classification over every fold of a plan and aggregate the metrics.

    Descriptors are computed, and scored, once for the whole dataset.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    descriptors, descriptor_time = _describe(dataset, jm)
    labels = [a.class_label for a in dataset]
    return _classify(descriptors, descriptors, labels, spec, plan, descriptor_time)


@dataclass(frozen=True, eq=False)
class SweepCell:
    """One (jm, metric) point of a MIJ-count sweep."""

    jm: int
    spec: MetricSpec
    accuracy_mean: float
    accuracy_std: float
    descriptor_len: int


def mij_sweep(dataset, jm_values, specs, plan: SplitPlan) -> list[SweepCell]:
    """Evaluate every (jm, spec) combination; also reports the stacked descriptor size.

    Descriptors are computed once per jm and shared by all specs.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    num_joints = dataset[0].num_joints
    for jm in jm_values:
        if not 1 <= jm <= num_joints:
            raise ValueError(f"jm={jm} is outside [1, {num_joints}]")
    labels = [a.class_label for a in dataset]
    cells = []
    for jm in jm_values:
        descriptors, descriptor_time = _describe(dataset, jm)
        for spec in specs:
            report = _classify(descriptors, descriptors, labels, spec, plan, descriptor_time)
            cells.append(
                SweepCell(
                    jm=int(jm),
                    spec=spec,
                    accuracy_mean=report.accuracy_mean,
                    accuracy_std=report.accuracy_std,
                    descriptor_len=stacked_length(jm),
                )
            )
    return cells


def inject_agwn(action: ActionMatrix, sigma_deg: float, seed) -> ActionMatrix:
    """Additive Gaussian white noise on every sample, in degrees.

    Operates on raw angles, before any filtering; sigma 0 returns an
    identical copy. Deterministic for a fixed seed.
    """
    if sigma_deg < 0:
        raise ValueError(f"sigma_deg must be non-negative, got {sigma_deg}")
    if sigma_deg == 0:
        return action.with_samples(action.samples)
    rng = np.random.default_rng(seed)
    noisy = action.samples + rng.normal(0.0, sigma_deg, size=action.samples.shape)
    return action.with_samples(noisy)


@dataclass(frozen=True, eq=False)
class NoiseRow:
    sigma_deg: float
    accuracy_mean: float
    accuracy_std: float


def noise_sweep(
    dataset,
    sigmas,
    jm: int,
    spec: MetricSpec,
    plan: SplitPlan,
    seed: int,
    preprocess=None,
    corrupt_train: bool = False,
) -> list[NoiseRow]:
    """Accuracy as a function of injected noise level.

    Noise lands on raw angles and ``preprocess`` (typically the low-pass
    filter) runs afterwards, so the injection-before-filtering ordering
    holds by construction. ``preprocess`` maps an iterable of actions, one
    whole pool, to a list of the same length and order, so a batched filter
    handles one pool per call; each noisy pool comes as a generator, which
    lets the filter free every noisy action once it is buffered. By
    default only test items are corrupted; ``corrupt_train`` extends the
    corruption to the training pool. The per-item noise streams derive
    from (seed, sigma index, item index) alone.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    prep = preprocess if preprocess is not None else list
    labels = [a.class_label for a in dataset]
    # with corrupt_train the clean pool is never scored, so it is not described
    clean = None if corrupt_train else _describe(prep(dataset), jm)[0]
    rows = []
    for s_idx, sigma in enumerate(sigmas):
        noisy, descriptor_time = _describe(
            prep(inject_agwn(a, float(sigma), seed=[seed, s_idx, i]) for i, a in enumerate(dataset)),
            jm,
        )
        report = _classify(noisy, noisy if corrupt_train else clean, labels, spec, plan, descriptor_time)
        rows.append(NoiseRow(float(sigma), report.accuracy_mean, report.accuracy_std))
    return rows
