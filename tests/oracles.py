"""Brute-force reference implementations used to cross-check the library.

Everything here is written with explicit loops and scalar arithmetic so the
expected values stay independent of the vectorized code paths under test,
except ``stratified_kfold``: that is the k-fold plan as it was drawn from
``numpy.random``'s own generator, before the library pinned its shuffle.
"""

import math
import warnings

import numpy as np

FLAT_FLOOR = 1e-12


def population_variance(column):
    n = len(column)
    mean = sum(column) / n
    return sum((x - mean) ** 2 for x in column) / n


def finite_difference_velocity(column, frame_rate):
    n = len(column)
    out = []
    for t in range(n):
        if t == 0:
            d = column[1] - column[0]
        elif t == n - 1:
            d = column[-1] - column[-2]
        else:
            d = (column[t + 1] - column[t - 1]) / 2.0
        out.append(d * frame_rate)
    return out


def pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    if vx < FLAT_FLOOR or vy < FLAT_FLOOR:
        return 0.0
    return cov / (math.sqrt(vx) * math.sqrt(vy))


def correlation_matrix(descriptor):
    """Rebuild the full symmetric correlation matrix from the stored upper triangle."""
    jm = descriptor.jm
    matrix = [[1.0] * jm for _ in range(jm)]
    k = 0
    for p in range(jm):
        for q in range(p + 1, jm):
            matrix[p][q] = matrix[q][p] = float(descriptor.corr[k])
            k += 1
    return matrix


def csm_score(a, b):
    """Term-by-term CSM over unordered common MIJ pairs, explicit loops only."""
    assert a.jm == b.jm
    pos_a = {int(x): i for i, x in enumerate(a.mij)}
    pos_b = {int(x): i for i, x in enumerate(b.mij)}
    corr_a = correlation_matrix(a)
    corr_b = correlation_matrix(b)
    shared = sorted(set(pos_a) & set(pos_b))
    total = 0.0
    for u in range(len(shared)):
        for v in range(u + 1, len(shared)):
            i, j = shared[u], shared[v]
            ai, aj = pos_a[i], pos_a[j]
            bi, bj = pos_b[i], pos_b[j]
            weight = 1.0 - 0.5 * abs(corr_a[ai][aj] - corr_b[bi][bj])
            term = (
                float(a.var_norm[ai]) + float(a.var_norm[aj])
                + float(b.var_norm[bi]) + float(b.var_norm[bj])
            )
            term += (
                float(a.vmax_norm[ai]) + float(a.vmax_norm[aj])
                + float(b.vmax_norm[bi]) + float(b.vmax_norm[bj])
            )
            term += (
                float(a.vmin_norm[ai]) + float(a.vmin_norm[aj])
                + float(b.vmin_norm[bi]) + float(b.vmin_norm[bj])
            )
            total += weight * term
    return total


def _slices(descriptor, features):
    names = {
        "var": ("var_norm",),
        "var-vel": ("var_norm", "vmax_norm", "vmin_norm"),
        "full": ("var_norm", "vmax_norm", "vmin_norm", "corr"),
    }[features]
    values = []
    for name in names:
        values.extend(float(v) for v in getattr(descriptor, name))
    return values


def manhattan_distance(a, b, features):
    return sum(abs(x - y) for x, y in zip(_slices(a, features), _slices(b, features)))


def euclidean_distance(a, b, features):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(_slices(a, features), _slices(b, features))))


def stratified_kfold(labels, k, seed):
    """The (train, test) folds of ``SplitPlan.stratified_kfold``, shuffled by ``np.random.default_rng``."""
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
    return tuple(
        (np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(k)
    )
