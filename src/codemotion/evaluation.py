"""1-nearest-neighbor evaluation: split plans, metrics, MIJ and noise sweeps."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

# perfbench/tracer.py replaces compute_descriptor and similarity_matrix on this
# module, so they stay module-level names that are looked up at call time.
# ROADMAP item 4, which deletes the tracer, lifts this constraint.
from .descriptor import ActionMatrix, CodeDescriptor, compute_descriptor
from .ingest import FilterSpec, _shown, butterworth_filter
from .similarity import MetricSpec, similarity_matrix

__all__ = [
    "SplitPlan",
    "EvalReport",
    "evaluate",
    "mij_sweep",
    "inject_agwn",
    "noise_sweep",
]


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _seed_state(seed: int) -> list[int]:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` for a non-negative int seed."""
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    # the first four words, or zeros, fill the pool; each pool word then mixes
    # into the other three, and every word past the fourth into all four
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    return [low | high << 32 for low, high in zip(halves[::2], halves[1::2])]


class _Shuffler:
    """``np.random.default_rng(seed).shuffle`` on lists, without importing ``numpy.random``.

    That import costs about 6 MB and 14 ms, and numpy guarantees no
    ``Generator`` stream across versions; this pins the one the folds use:
    SeedSequence's mixing, PCG64 with its XSL-RR output, Generator's 32-bit
    draws taken low half first from each 64-bit output, its masked rejection
    and its Fisher-Yates loop from the last index down. The half left over
    carries to the next shuffle, as it does in numpy.
    """

    def __init__(self, seed) -> None:
        if not isinstance(seed, (int, np.integer)):  # SeedSequence's integer types; bool is an int
            raise TypeError(f"seed must be a non-negative integer, got {type(seed).__name__}")
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        state_high, state_low, inc_high, inc_low = _seed_state(seed)
        self._inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        # PCG64's seeding: a step from state 0 leaves inc, the seed state is added, then one more step
        self._state = self._step(self._inc + (state_high << 64 | state_low))
        self._half = None

    def _step(self, state: int) -> int:
        return (state * _PCG64_MULTIPLIER + self._inc) & _MASK128

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        self._state = state = self._step(self._state)
        mixed = ((state >> 64) ^ state) & _MASK64
        rotation = state >> 122
        value = (mixed >> rotation | mixed << (64 - rotation)) & _MASK64
        self._half = value >> 32
        return value & _MASK32

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place; fewer than 2**32 of them, so every draw is one 32-bit half."""
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """At least one (train, test) fold of dataset indices.

    Each set is stored as a non-empty 1-D integer array with no index
    repeated, and no index is in both sets of its fold.
    """

    kind: str
    folds: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.folds:
            raise ValueError(f"the {self.kind!r} plan has no folds")
        folds = tuple(tuple(map(np.asarray, fold)) for fold in self.folds)
        for n, (train, test) in enumerate(folds):
            where = f"fold {n} of the {self.kind!r} plan"
            for part, items in (("training", train), ("test", test)):
                if items.size == 0:
                    raise ValueError(f"{where} has an empty {part} set")
                if not np.issubdtype(items.dtype, np.integer):
                    raise ValueError(f"{where} has non-integer {part} indices")
                if items.ndim != 1:
                    raise ValueError(f"{where} has a {items.ndim}-D {part} set, not a list of indices")
                ordered = np.sort(items)
                repeated = ordered[1:][ordered[1:] == ordered[:-1]]
                if repeated.size:
                    raise ValueError(f"{where} repeats {part} index {repeated[0]}")
            shared = np.intersect1d(train, test, assume_unique=True)
            if shared.size:
                raise ValueError(f"{where} has index {shared[0]} in both its training and test sets")
        object.__setattr__(self, "folds", folds)

    @staticmethod
    def stratified_kfold(labels, k: int, seed: int) -> "SplitPlan":
        """Seeded stratified k-fold: each class is spread across folds as evenly as counts allow.

        Classes with fewer items than folds trigger a warning and get a
        best-effort spread instead of an error. ``seed`` is a non-negative
        Python or numpy integer; each class is shuffled as
        ``np.random.default_rng(seed).shuffle`` would, one generator for all.
        """
        labels = list(labels)
        n = len(labels)
        if n == 0:
            raise ValueError("cannot split an empty dataset")
        if not 2 <= k <= n:
            raise ValueError(f"fold count must be in [2, {n}], got {k}")
        shuffler = _Shuffler(seed)
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
            idx = np.flatnonzero(inverse == c).tolist()
            shuffler.shuffle(idx)
            fold_of[idx] = (cursor + np.arange(len(idx))) % k
            cursor = (cursor + len(idx)) % k
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
            raise ValueError(f"unknown subject(s): {', '.join(_shown(str(s)) for s in unknown)}")
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
    """Classification outcome: class labels, per-fold confusion counts and timings.

    Every other figure is derived from the fold confusions (rows true,
    columns predicted) once, at construction: the pooled confusion, its
    accuracy and precision/recall, and the fold means and stds of accuracy
    and of the per-fold macro precision and recall.
    """

    class_labels: list[str]
    fold_confusions: list[np.ndarray]
    descriptor_time: float
    classify_time: float
    confusion: np.ndarray = field(init=False)
    accuracy: float = field(init=False)
    precision_per_class: np.ndarray = field(init=False)
    recall_per_class: np.ndarray = field(init=False)
    macro_precision: float = field(init=False)
    macro_recall: float = field(init=False)
    fold_accuracies: list[float] = field(init=False)
    accuracy_mean: float = field(init=False)
    accuracy_std: float = field(init=False)
    precision_mean: float = field(init=False)
    precision_std: float = field(init=False)
    recall_mean: float = field(init=False)
    recall_std: float = field(init=False)

    def __post_init__(self) -> None:
        self.fold_confusions = [np.asarray(conf) for conf in self.fold_confusions]
        if not self.fold_confusions:
            raise ValueError("a report needs fold confusions; there are no folds")
        for n, conf in enumerate(self.fold_confusions):
            if not conf.sum():
                raise ValueError(f"fold {n}'s confusion counts no test items")
        self.fold_accuracies, fold_prec, fold_rec = map(list, zip(*map(_fold_metrics, self.fold_confusions)))
        self.confusion = np.sum(self.fold_confusions, axis=0)
        self.accuracy, self.macro_precision, self.macro_recall = _fold_metrics(self.confusion)
        self.precision_per_class, self.recall_per_class = _per_class(self.confusion)
        self.accuracy_mean, self.accuracy_std = _mean_std(self.fold_accuracies)
        self.precision_mean, self.precision_std = _mean_std(fold_prec)
        self.recall_mean, self.recall_std = _mean_std(fold_rec)

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


def _mean_std(values) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values))


def _describe(dataset, jm: int) -> tuple[list[CodeDescriptor], float]:
    t0 = time.perf_counter()
    descriptors = [compute_descriptor(a, jm) for a in dataset]
    return descriptors, time.perf_counter() - t0


def _union(index_arrays, size: int) -> np.ndarray:
    """The sorted distinct indices of ``index_arrays``, all in ``[0, size)``.

    A mask, not ``np.unique``, whose plain form imports ``numpy.ma``.
    """
    return np.flatnonzero(np.bincount(np.concatenate(index_arrays), minlength=size))


def _classify(queries, references, labels, spec, plan, descriptor_time) -> EvalReport:
    """1-NN over every fold of ``plan``, the one classification step of every protocol.

    One matrix scores every fold's test items ``queries[i]`` against every
    fold's training items ``references[j]``; each fold reads its
    ``[test, train]`` block from it. Ties go to the earliest item of the
    fold's training list.
    """
    classes, y = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    t0 = time.perf_counter()
    # For k-fold both unions are the whole pool, so this is a self-matrix and the
    # kernel computes its upper triangle alone: n * n / 2 cells, where k per-fold
    # blocks would take (k - 1) * n * n / k.
    rows = _union([test for _, test in plan.folds], len(queries))
    cols = _union([train for train, _ in plan.folds], len(references))
    matrix = similarity_matrix([queries[i] for i in rows], [references[j] for j in cols], spec)
    fold_confusions = []
    for train, test in plan.folds:
        block = matrix[np.ix_(np.searchsorted(rows, test), np.searchsorted(cols, train))]
        best = block.argmax(axis=1) if spec.higher_is_better else block.argmin(axis=1)
        conf = np.zeros((classes.size, classes.size), dtype=np.int64)
        np.add.at(conf, (y[test], y[train[best]]), 1)
        fold_confusions.append(conf)
    classify_time = time.perf_counter() - t0
    return EvalReport(classes.tolist(), fold_confusions, descriptor_time, classify_time)


def _pool(dataset, jm_values, plan: SplitPlan | None = None) -> tuple[list, list]:
    """The actions as a list and their labels, once every jm and every index of ``plan`` fit them."""
    dataset = list(dataset)
    n = len(dataset)
    if not n:
        raise ValueError("dataset is empty")
    num_joints = dataset[0].num_joints
    for jm in jm_values:
        if not 1 <= jm <= num_joints:
            raise ValueError(f"jm={jm} is outside [1, {num_joints}]")
    for f, fold in enumerate(() if plan is None else plan.folds):
        for part, items in zip(("training", "test"), fold):
            outside = items[(items < 0) | (items >= n)]
            if outside.size:
                raise ValueError(
                    f"fold {f} of the {plan.kind!r} plan has {part} index {outside[0]} outside [0, {n})"
                )
    return dataset, [a.class_label for a in dataset]


def evaluate(dataset, jm: int, spec: MetricSpec, plan: SplitPlan) -> EvalReport:
    """Run 1-NN classification over every fold of a plan: ``mij_sweep``'s one-cell case."""
    return mij_sweep(dataset, [jm], [spec], plan)[0]


def mij_sweep(dataset, jm_values, specs, plan: SplitPlan) -> list[EvalReport]:
    """One report per (jm, spec), jm-major in the given orders.

    Descriptors are computed once per jm for the whole dataset, every jm
    before any scoring, and shared by all specs. Scoring reads only the
    descriptors, so this function lets go of the actions before it: a pool
    handed over as an iterator is freed there, while a list the caller keeps
    stays intact.
    """
    dataset, labels = _pool(dataset, jm_values, plan)
    described = [_describe(dataset, jm) for jm in jm_values]
    del dataset
    reports = []
    for descriptors, descriptor_time in described:
        reports.extend(
            _classify(descriptors, descriptors, labels, spec, plan, descriptor_time) for spec in specs
        )
    return reports


def inject_agwn(action: ActionMatrix, sigma_deg: float, seed) -> ActionMatrix:
    """Additive Gaussian white noise on every sample, in degrees.

    Operates on raw angles, before any filtering; sigma 0 returns an
    identical copy. Deterministic for a fixed seed.
    """
    if sigma_deg < 0:
        raise ValueError(f"sigma_deg must be non-negative, got {sigma_deg}")
    if not sigma_deg < np.inf:  # inf or NaN
        raise ValueError(f"sigma_deg must be finite, got {sigma_deg}")
    if sigma_deg == 0:
        return action.with_samples(action.samples)
    rng = np.random.default_rng(seed)
    noisy = action.samples + rng.normal(0.0, sigma_deg, size=action.samples.shape)
    return action.with_samples(noisy)


def noise_sweep(
    dataset,
    sigmas,
    jm: int,
    spec: MetricSpec,
    plan: SplitPlan,
    seed: int,
    filter_spec: FilterSpec | None = None,
    corrupt_train: bool = False,
) -> list[EvalReport]:
    """One report per noise level, in the order of ``sigmas``.

    Noise lands on raw angles and the low-pass filter of ``filter_spec``,
    if any, runs afterwards, so the injection-before-filtering ordering
    holds by construction. Each noisy pool reaches the filter, or without
    one the descriptor step, as a generator, which lets it free every noisy
    action once it is buffered or described.
    By default only test items are corrupted; ``corrupt_train`` extends the
    corruption to the training pool. The per-item noise streams derive
    from (seed, sigma index, item index) alone.
    """
    dataset, labels = _pool(dataset, [jm], plan)

    def prep(actions):
        return actions if filter_spec is None else butterworth_filter(actions, filter_spec)

    # with corrupt_train the clean pool is never scored, so it is not described
    clean = None if corrupt_train else _describe(prep(dataset), jm)[0]
    reports = []
    for s_idx, sigma in enumerate(sigmas):
        noisy, descriptor_time = _describe(
            prep(inject_agwn(a, float(sigma), seed=[seed, s_idx, i]) for i, a in enumerate(dataset)),
            jm,
        )
        reports.append(
            _classify(noisy, noisy if corrupt_train else clean, labels, spec, plan, descriptor_time)
        )
    return reports
