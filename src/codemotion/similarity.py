"""Similarity between action descriptors.

The correlation-based similarity measure (CSM) scores the MIJ pairs two
actions have in common: each common pair contributes the variance and
extreme-velocity mass of both actions at those joints, weighted by how
well the actions agree on that pair's correlation. Euclidean and
Manhattan distances over stacked feature slices serve as baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .descriptor import CodeDescriptor

__all__ = [
    "Metric",
    "FeatureSet",
    "MetricSpec",
    "csm",
    "baseline_distance",
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

    @staticmethod
    def parse(kind: str, features: str = "full") -> "MetricSpec":
        try:
            metric = Metric(kind)
        except ValueError:
            names = ", ".join(m.value for m in Metric)
            raise ValueError(f"unknown metric {kind!r}; expected one of {names}") from None
        try:
            feats = FeatureSet(features)
        except ValueError:
            names = ", ".join(f.value for f in FeatureSet)
            raise ValueError(f"unknown feature set {features!r}; expected one of {names}") from None
        return MetricSpec(metric, feats)


def csm(a: CodeDescriptor, b: CodeDescriptor) -> float:
    """Correlation-based similarity between two descriptors with the same jm.

    Sums, once per unordered common MIJ pair, the correlation-agreement
    weight ``1 - 0.5 * |c_a - c_b|`` times the two actions' normalized
    variances and signed extreme velocities at the pair's joints. Disjoint
    MIJ sets give exactly 0. Symmetric: csm(a, b) == csm(b, a) bit for bit.
    """
    return float(similarity_matrix([a], [b], MetricSpec(Metric.CSM))[0, 0])


_FEATURE_SLICES = {
    FeatureSet.VARIANCE: ("var_norm",),
    FeatureSet.VARIANCE_VELOCITY: ("var_norm", "vmax_norm", "vmin_norm"),
    FeatureSet.FULL: ("var_norm", "vmax_norm", "vmin_norm", "corr"),
}


def _feature_vector(descriptor: CodeDescriptor, features: FeatureSet) -> np.ndarray:
    return np.concatenate([getattr(descriptor, name) for name in _FEATURE_SLICES[features]])


def baseline_distance(a: CodeDescriptor, b: CodeDescriptor, spec: MetricSpec) -> float:
    """L1 or L2 distance over the selected feature slices, aligned by MIJ rank.

    The mij index slots never enter the distance; joint indices are labels,
    not coordinates.
    """
    if spec.kind is Metric.CSM:
        raise ValueError("baseline_distance handles Euclidean/Manhattan only; use csm() for CSM")
    return float(similarity_matrix([a], [b], spec)[0, 0])


def _check_uniform_jm(descriptors) -> int | None:
    jm = None
    for d in descriptors:
        if jm is None:
            jm = d.jm
        elif d.jm != jm:
            raise ValueError(f"descriptors built with different jm ({jm} vs {d.jm}) are not comparable")
    return jm


def similarity_matrix(queries, references, spec: MetricSpec) -> np.ndarray:
    """Dense score (CSM) or distance (baselines) matrix, queries by references.

    Rows are independent. Every cell equals the one-cell call of the same
    pair, :func:`csm` or :func:`baseline_distance`, bit for bit.
    """
    queries = list(queries)
    references = list(references)
    _check_uniform_jm(queries + references)
    if not queries or not references:
        return np.zeros((len(queries), len(references)), dtype=np.float64)
    if spec.kind is Metric.CSM:
        return _csm_matrix(queries, references)
    feats_q = np.stack([_feature_vector(d, spec.features) for d in queries])
    feats_r = np.stack([_feature_vector(d, spec.features) for d in references])
    # Each cell sums its features one at a time, in feature order, from 0.0:
    # the order of scipy's cdist, so the distances equal its bit for bit.
    total = np.zeros((len(queries), len(references)))
    for q, r in zip(feats_q.T, feats_r.T):
        diff = q[:, None] - r[None, :]
        total += np.abs(diff) if spec.kind is Metric.MANHATTAN else diff * diff
    return total if spec.kind is Metric.MANHATTAN else np.sqrt(total)


def _mij_pairs(descriptors, num_joints: int):
    """Every descriptor's MIJ pairs in ascending pair-id order.

    Returns ``(ids, corr, mass)``, each of shape (n, jm(jm-1)/2): the pair
    id of joints ``lo < hi``, their row-major index in the upper triangle of
    a ``num_joints`` square, ``lo * (2 * num_joints - lo - 1) / 2 + hi - lo - 1``;
    the descriptor's correlation for that pair; and its mass ``g[lo] + g[hi]``
    with ``g = var_norm + vmax_norm + vmin_norm``.
    """
    p, q = np.triu_indices(descriptors[0].jm, k=1)  # rank positions, in corr's layout
    mij = np.stack([d.mij for d in descriptors])
    g = np.stack([d.var_norm + d.vmax_norm + d.vmin_norm for d in descriptors])
    corr = np.stack([d.corr for d in descriptors])
    lo = np.minimum(mij[:, p], mij[:, q])
    hi = np.maximum(mij[:, p], mij[:, q])
    ids = lo * (2 * num_joints - lo - 1) // 2 + hi - lo - 1
    order = np.argsort(ids, axis=1)
    return tuple(np.take_along_axis(x, order, axis=1) for x in (ids, corr, g[:, p] + g[:, q]))


def _csm_matrix(queries, references) -> np.ndarray:
    num_joints = 1 + max(int(d.mij.max()) for d in queries + references)
    q_ids, q_corr, q_mass = _mij_pairs(queries, num_joints)
    r_ids, r_corr, r_mass = _mij_pairs(references, num_joints)
    # Reference tables indexed by pair id, zero where a reference lacks the pair.
    mask = np.zeros((num_joints * (num_joints - 1) // 2, len(references)))
    corr = np.zeros_like(mask)
    mass = np.zeros_like(mask)
    cols = np.arange(len(references))[:, None]
    mask[r_ids, cols] = 1.0
    corr[r_ids, cols] = r_corr
    mass[r_ids, cols] = r_mass
    # Every cell adds its query's pairs one at a time in pair-id order. The
    # non-zero terms are then the shared pairs in the same order from either
    # side, so S(Q, R) == S(R, Q).T bit for bit. A numpy reduction over the
    # pair axis would not keep that order: it sums a single column pairwise.
    scores = np.zeros((len(queries), len(references)))
    for k in range(q_ids.shape[1]):
        s = q_ids[:, k]
        weight = 1.0 - 0.5 * np.abs(q_corr[:, k, None] - corr[s])
        scores += mask[s] * weight * (q_mass[:, k, None] + mass[s])
    return scores
