"""Similarity between action descriptors.

The correlation-based similarity measure (CSM) scores the MIJ pairs two
actions have in common: each common pair contributes the variance and
extreme-velocity mass of both actions at those joints, weighted by how
well the actions agree on that pair's correlation. Euclidean and
Manhattan distances over stacked feature slices serve as baselines.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .descriptor import CodeDescriptor, _layout, _rank_pairs, stack_descriptor
from .ingest import _shown

__all__ = [
    "Metric",
    "FeatureSet",
    "MetricSpec",
    "csm",
    "similarity_matrix",
]


class Metric(Enum):
    CSM = "csm"
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"


class FeatureSet(Enum):
    VARIANCE = "var"
    VARIANCE_VELOCITY = "var-vel"
    FULL = "full"


@dataclass(frozen=True)
class MetricSpec:
    """Choice of similarity function and the feature subset it consumes."""

    kind: Metric
    features: FeatureSet = FeatureSet.FULL

    def __post_init__(self) -> None:
        if self.kind is Metric.CSM and self.features is not FeatureSet.FULL:
            raise ValueError(
                "CSM consumes variances, velocities and correlations; features must be 'full'"
            )

    @property
    def higher_is_better(self) -> bool:
        """CSM is a similarity (max wins); the baselines are distances (min wins)."""
        return self.kind is Metric.CSM


def _name_parser(names: type[Enum], noun: str):
    """The one parser of ``names``' values; an unknown one fails naming every value it accepts."""
    def parse(text: str):
        try:
            return names(text)
        except ValueError:
            known = ", ".join(name.value for name in names)
            raise ValueError(f"unknown {noun} {_shown(text)}; expected one of {known}") from None

    return parse


_parse_metric = _name_parser(Metric, "metric")
_parse_features = _name_parser(FeatureSet, "feature set")


def csm(a: CodeDescriptor, b: CodeDescriptor) -> float:
    """Correlation-based similarity between two descriptors with the same jm.

    Sums, once per unordered common MIJ pair, the correlation-agreement
    weight ``1 - 0.5 * |c_a - c_b|`` times the two actions' normalized
    variances and signed extreme velocities at the pair's joints. Disjoint
    MIJ sets give exactly 0. Symmetric: csm(a, b) == csm(b, a) bit for bit.
    """
    return float(similarity_matrix([a], [b], MetricSpec(Metric.CSM))[0, 0])


# How many leading fields of the stacked descriptor each feature set reads
_FEATURE_SLICES = {FeatureSet.VARIANCE: 1, FeatureSet.VARIANCE_VELOCITY: 3, FeatureSet.FULL: 4}


def _check_uniform_jm(descriptors) -> None:
    jms = [d.jm for d in descriptors]
    for jm in jms:
        if jm != jms[0]:
            raise ValueError(f"descriptors built with different jm ({jms[0]} vs {jm}) are not comparable")


def similarity_matrix(queries, references, spec: MetricSpec) -> np.ndarray:
    """Dense score (CSM) or distance (baselines) matrix, queries by references.

    Rows are independent. Every cell equals the one-cell call of the same
    pair, ``similarity_matrix([a], [b], spec)[0, 0]`` (for CSM, :func:`csm`),
    bit for bit. When the references are the queries' own descriptor
    objects, only the upper triangle is computed and mirrored, which is
    exact: every measure here gives ``S(Q, R) == S(R, Q).T`` bit for bit.
    """
    queries = list(queries)
    references = list(references)
    _check_uniform_jm(queries + references)
    if not queries or not references:
        return np.zeros((len(queries), len(references)), dtype=np.float64)
    self_pair = len(queries) == len(references) and all(map(operator.is_, queries, references))
    if spec.kind is Metric.CSM:
        count, terms = _csm_terms(queries, references, self_pair)
    else:
        count, terms = _baseline_terms(queries, references, spec, self_pair)
    total = _blocked_sum(count, terms, (len(queries), len(references)), self_pair)
    return np.sqrt(total) if spec.kind is Metric.EUCLIDEAN else total


# Upper bound on the elements of one block's (terms, rows, columns) array:
# 256 KiB of float64, so a block and its few temporaries stay in cache.
_BLOCK_ELEMENTS = 1 << 15


def _blocked_sum(count: int, terms, shape, self_pair: bool) -> np.ndarray:
    """Every cell's ``count`` terms summed in term order, one block of cells at a time.

    ``terms(rows, cols)`` returns the C-contiguous (terms, rows, columns)
    array of a block. A self-pair's blocks start at their first row's
    diagonal, and each is mirrored below it.
    """
    n_q, n_r = shape
    if count == 0:
        return np.zeros(shape)
    cells = max(1, _BLOCK_ELEMENTS // count)
    total = np.empty(shape)
    i0 = 0
    while i0 < n_q:
        start = i0 if self_pair else 0
        cols = n_r - start
        rows = max(1, min(n_q - i0, cells // cols))
        chunks = -(-cols * rows // cells)  # more than one only for a row wider than a block
        width = -(-cols // chunks)
        for j0 in range(start, n_r, width):
            block = _sum_terms(terms(slice(i0, i0 + rows), slice(j0, j0 + width)))
            total[i0 : i0 + rows, j0 : j0 + width] = block
            if self_pair:
                total[j0 : j0 + width, i0 : i0 + rows] = block.T
        i0 += rows
    return total


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """Each cell's terms added one at a time in term order, as a loop from 0.0 would.

    numpy sums pairwise only along the fast axis in memory: along the
    leading axis of a C-contiguous array ``np.add.reduce`` adds term by
    term. A one-cell plane is a contiguous 1-D sum, which it would add
    pairwise, so that is accumulated instead. An accumulation, and on some
    numpy versions a reduction, starts from the first term, not from 0.0;
    the two differ only in a total of -0.0, which adding 0.0 makes 0.0.
    """
    terms = np.ascontiguousarray(terms)
    if terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1] + 0.0
    return np.add.reduce(terms, axis=0) + 0.0


def _baseline_terms(queries, references, spec: MetricSpec, self_pair: bool):
    """Per feature, ``|q - r|`` (Manhattan) or ``(q - r)**2`` (Euclidean).

    A feature set's features are the leading ``n`` numbers of
    ``stack_descriptor``, the fields of the layout it reads. They are
    aligned by MIJ rank, and the mij index slots, the layout's last field,
    never enter them: joint indices are labels, not coordinates. Summed in
    feature order from 0.0, the order of scipy's cdist, so the distances
    equal its bit for bit.
    """
    n = sum(list(_layout(queries[0].jm).values())[: _FEATURE_SLICES[spec.features]])
    # feature-major, so a block's differences come out C-contiguous
    feats_q = np.stack([stack_descriptor(d)[:n] for d in queries], axis=1)
    feats_r = feats_q if self_pair else np.stack([stack_descriptor(d)[:n] for d in references], axis=1)

    def terms(rows, cols):
        diff = feats_q[:, rows, None] - feats_r[:, None, cols]
        if spec.kind is Metric.MANHATTAN:
            return np.abs(diff, out=diff)
        return np.multiply(diff, diff, out=diff)

    return feats_q.shape[0], terms


def _mij_pairs(descriptors, num_joints: int):
    """Every descriptor's MIJ pairs in ascending pair-id order.

    Returns ``(ids, corr, mass)``, each of shape (n, jm(jm-1)/2): the pair
    id of joints ``lo < hi``, their row-major index in the upper triangle of
    a ``num_joints`` square, ``lo * (2 * num_joints - lo - 1) / 2 + hi - lo - 1``;
    the descriptor's correlation for that pair; and its mass ``g[lo] + g[hi]``
    with ``g = var_norm + vmax_norm + vmin_norm``.
    """
    p, q = _rank_pairs(descriptors[0].jm)  # rank positions, in corr's layout
    mij = np.stack([d.mij for d in descriptors])
    g = np.stack([d.var_norm + d.vmax_norm + d.vmin_norm for d in descriptors])
    corr = np.stack([d.corr for d in descriptors])
    lo = np.minimum(mij[:, p], mij[:, q])
    hi = np.maximum(mij[:, p], mij[:, q])
    ids = lo * (2 * num_joints - lo - 1) // 2 + hi - lo - 1
    order = np.argsort(ids, axis=1)
    return tuple(np.take_along_axis(x, order, axis=1) for x in (ids, corr, g[:, p] + g[:, q]))


def _csm_terms(queries, references, self_pair: bool):
    """Per query MIJ pair, in pair-id order: ``max(0, w) * (q_mass + mass)``.

    ``w = 1 - 0.5 * |q_corr - corr|``, with the reference's ``corr`` infinite
    and its ``mass`` zero where it lacks the pair, so that pair's weight is 0;
    correlations lie in [-1, 1], so a shared pair's ``w`` is at least 0 as it
    is. The non-zero terms of a cell are then the shared pairs in the same
    order from either side, so ``S(Q, R) == S(R, Q).T`` bit for bit.
    """
    num_joints = 1 + max(int(d.mij.max()) for d in queries + references)
    q_pairs = _mij_pairs(queries, num_joints)
    r_ids, r_corr, r_mass = q_pairs if self_pair else _mij_pairs(references, num_joints)
    # Reference tables indexed by pair id: a missing pair is infinitely far in
    # correlation and has no mass.
    corr = np.full((num_joints * (num_joints - 1) // 2, len(references)), np.inf)
    mass = np.zeros_like(corr)
    cols = np.arange(len(references))[:, None]
    corr[r_ids, cols] = r_corr
    mass[r_ids, cols] = r_mass
    # pair-major, so a block's gathers come out C-contiguous
    q_ids, q_corr, q_mass = (np.ascontiguousarray(x.T) for x in q_pairs)

    def terms(rows, cols):
        ids = q_ids[:, rows]
        weight = corr[ids, cols]
        np.subtract(q_corr[:, rows, None], weight, out=weight)
        np.abs(weight, out=weight)
        weight *= 0.5
        np.subtract(1.0, weight, out=weight)
        np.maximum(weight, 0.0, out=weight)
        pair_mass = mass[ids, cols]
        pair_mass += q_mass[:, rows, None]
        weight *= pair_mass
        return weight

    return q_ids.shape[0], terms
