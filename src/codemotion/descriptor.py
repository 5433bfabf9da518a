"""Coordination-based action descriptors for joint-angle time series.

An action is a matrix of T frames by J joint angles (degrees). Its
descriptor keeps the highest-variance joints (the most informative
joints, MIJ) and summarizes them with sum-normalized variances,
magnitude-normalized extreme angular velocities, and the pairwise
Pearson correlations between the selected joint trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ActionMatrix",
    "CodeDescriptor",
    "DegenerateActionError",
    "FLAT_VARIANCE_FLOOR",
    "joint_variances",
    "rank_mij",
    "extreme_velocities",
    "pairwise_correlation",
    "compute_descriptor",
    "stack_descriptor",
    "unstack_descriptor",
    "stacked_length",
]

# Below this (population) variance a trajectory counts as flat and every
# correlation involving it is defined to be zero.
FLAT_VARIANCE_FLOOR = 1e-12


class DegenerateActionError(ValueError):
    """Raised when every joint trajectory of an action has zero variance."""


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ActionMatrix:
    """One recorded action: ``samples[t, j]`` is joint ``j`` at frame ``t``, in degrees."""

    samples: np.ndarray
    frame_rate: float
    class_label: str = ""
    subject_id: str = ""
    action_id: str = ""

    def __post_init__(self) -> None:
        # one layout for every action: numpy's sums over frames, and with them
        # the descriptors, depend on it
        samples = np.array(self.samples, dtype=np.float64, order="F")
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D (frames x joints), got shape {samples.shape}")
        frames, joints = samples.shape
        if frames < 2:
            raise ValueError(f"need at least 2 frames for velocities and variances, got {frames}")
        if joints < 1:
            raise ValueError("need at least one joint column")
        if not np.isfinite(samples).all():
            raise ValueError("samples contain NaN or infinite values")
        if not 0 < self.frame_rate < np.inf:
            raise ValueError(f"frame_rate must be positive and finite, got {self.frame_rate!r}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "frame_rate", float(self.frame_rate))

    @property
    def num_frames(self) -> int:
        return self.samples.shape[0]

    @property
    def num_joints(self) -> int:
        return self.samples.shape[1]

    def with_samples(self, samples) -> "ActionMatrix":
        """Copy of this action with new sample values and the same metadata."""
        return ActionMatrix(
            samples, self.frame_rate, self.class_label, self.subject_id, self.action_id
        )


@dataclass(frozen=True, eq=False)
class CodeDescriptor:
    """Action descriptor: MIJ indices plus normalized variance, velocity and correlation features.

    ``mij`` is ordered by descending variance. ``corr`` holds one value per
    unordered MIJ pair, laid out as the row-major upper triangle over rank
    positions: (0,1), (0,2), ..., (jm-2, jm-1). Each lies in [-1, 1].
    """

    mij: np.ndarray
    var_norm: np.ndarray
    vmax_norm: np.ndarray
    vmin_norm: np.ndarray
    corr: np.ndarray
    jm: int

    def __post_init__(self) -> None:
        jm = int(self.jm)
        if jm < 1:
            raise ValueError(f"jm must be at least 1, got {jm}")
        object.__setattr__(self, "jm", jm)
        for name, length in _layout(jm).items():
            arr = _frozen_array(getattr(self, name), np.intp if name == "mij" else np.float64)
            if arr.shape != (length,):
                raise ValueError(f"{name} must have length {length}, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains NaN or infinite values")
            object.__setattr__(self, name, arr)
        if (self.mij < 0).any() or len(set(self.mij.tolist())) != jm:
            raise ValueError("mij indices must be distinct and non-negative")
        if (np.abs(self.corr) > 1.0).any():
            raise ValueError("corr values must lie in [-1, 1]")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeDescriptor):
            return NotImplemented
        return self.jm == other.jm and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _layout(self.jm)
        )


def _layout(jm: int) -> dict[str, int]:
    """The stacked vector's fields in order, each with its length at ``jm``.

    The baseline feature sets are its prefixes: ``var`` the first field,
    ``var-vel`` the first three and ``full`` the first four.
    """
    return {"var_norm": jm, "vmax_norm": jm, "vmin_norm": jm, "corr": jm * (jm - 1) // 2, "mij": jm}


def stacked_length(jm: int) -> int:
    """Flat descriptor size for a given MIJ count: jm * (jm + 7) / 2, the sum of ``_layout``."""
    return sum(_layout(jm).values())


def joint_variances(action: ActionMatrix) -> np.ndarray:
    """Population variance (squared deviations averaged over T) of every joint trajectory.

    The population normalization matches the covariance normalization used
    by :func:`pairwise_correlation`, which is what keeps the correlation
    coefficients inside [-1, 1].
    """
    return action.samples.var(axis=0)


def rank_mij(variances, jm: int) -> tuple[np.ndarray, np.ndarray]:
    """Pick the ``jm`` most informative joints and normalize their variances.

    Returns ``(mij, var_norm)`` where ``mij`` lists joint indices in
    descending-variance order and ``var_norm`` is the corresponding
    variance share, summing to 1.
    """
    v = np.asarray(variances, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("variances must be a 1-D vector")
    total = v.size
    if not 1 <= jm <= total:
        raise ValueError(f"jm must be in [1, {total}], got {jm}")
    if not np.any(v > 0):
        raise DegenerateActionError(
            "degenerate action: every joint trajectory has zero variance"
        )
    # Stable sort of the negated variances: lower joint index first on ties.
    mij = np.argsort(-v, kind="stable")[:jm]
    top = v[mij]
    return mij, top / top.sum()


def extreme_velocities(velocities) -> tuple[np.ndarray, np.ndarray]:
    """Per-joint max and min velocity over time, each normalized by its own magnitude sum.

    The columns must already be restricted to the MIJ set, in mij order.
    Signs are preserved; an all-zero extreme vector is returned as zeros
    instead of dividing by zero.
    """
    v = np.asarray(velocities, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"velocities must be 2-D (frames x joints), got shape {v.shape}")
    return _normalize_by_abs_sum(v.max(axis=0)), _normalize_by_abs_sum(v.min(axis=0))


def _normalize_by_abs_sum(vec: np.ndarray) -> np.ndarray:
    denom = np.abs(vec).sum()
    if denom == 0.0:
        return vec.copy()
    return vec / denom


@lru_cache(maxsize=None)
def _rank_pairs(jm: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(jm, k=1)``, read-only: the rank positions of corr's pairs."""
    pairs = np.triu_indices(jm, k=1)
    for positions in pairs:
        positions.setflags(write=False)
    return pairs


def pairwise_correlation(action: ActionMatrix, mij) -> np.ndarray:
    """Pearson correlation for every unordered pair of selected joints.

    Pairs follow the row-major upper triangle in mij order, i.e.
    (mij[0], mij[1]), (mij[0], mij[2]), ..., (mij[jm-2], mij[jm-1]).
    Covariance and variance share the same population normalization, so
    every coefficient lies in [-1, 1]. A pair where either trajectory is
    flat (variance below :data:`FLAT_VARIANCE_FLOOR`) yields 0.
    """
    mij = np.asarray(mij, dtype=np.intp)
    cols = action.samples[:, mij]
    frames = cols.shape[0]
    dev = cols - cols.mean(axis=0)
    cov = dev.T @ dev / frames
    var = np.diag(cov)
    jm = mij.size
    if jm < 2:
        return np.empty(0, dtype=np.float64)
    iu, ju = _rank_pairs(jm)
    valid = (var[iu] >= FLAT_VARIANCE_FLOOR) & (var[ju] >= FLAT_VARIANCE_FLOOR)
    denom = np.where(valid, np.sqrt(var[iu]) * np.sqrt(var[ju]), 1.0)
    out = np.where(valid, cov[iu, ju] / denom, 0.0)
    return np.clip(out, -1.0, 1.0)


def compute_descriptor(action: ActionMatrix, jm: int) -> CodeDescriptor:
    """Build the full descriptor for one action.

    Steps: rank joints by trajectory variance, keep the top ``jm``,
    normalize their variances, add normalized extreme velocities of the
    kept joints, then their pairwise correlations. Deterministic: the
    same action always produces a bit-identical descriptor. Any
    ``ValueError`` on the way is raised again with the action's id in
    front, and so is a floating-point overflow, invalid value or division
    by zero, such as a variance that overflows, as a ``ValueError``.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            mij, var_norm = rank_mij(joint_variances(action), jm)
            # Angular velocities in deg/s: central differences inside, one-sided at
            # both ends. np.gradient differentiates each column on its own, so the
            # MIJ columns alone suffice.
            velocities = np.gradient(action.samples[:, mij], axis=0) * action.frame_rate
            vmax_norm, vmin_norm = extreme_velocities(velocities)
            corr = pairwise_correlation(action, mij)
            return CodeDescriptor(mij, var_norm, vmax_norm, vmin_norm, corr, jm)
    except (ValueError, FloatingPointError) as exc:  # DegenerateActionError keeps its type
        kind = type(exc) if isinstance(exc, ValueError) else ValueError
        raise kind(f"action {action.action_id!r}: {exc}") from None


def stack_descriptor(descriptor: CodeDescriptor) -> np.ndarray:
    """Flatten a descriptor to jm * (jm + 7) / 2 numbers.

    Concatenation order: var_norm, vmax_norm, vmin_norm, corr, then the
    mij indices cast to floats.
    """
    fields = [getattr(descriptor, name) for name in _layout(descriptor.jm)]
    return np.concatenate(fields, dtype=np.float64)


def unstack_descriptor(stacked, jm: int) -> CodeDescriptor:
    """Inverse of :func:`stack_descriptor` for a known MIJ count."""
    flat = np.asarray(stacked, dtype=np.float64)
    expected = stacked_length(jm)
    if flat.shape != (expected,):
        raise ValueError(f"stacked vector for jm={jm} must have length {expected}, got shape {flat.shape}")
    layout = _layout(jm)
    fields = dict(zip(layout, np.split(flat, np.cumsum(list(layout.values()))[:-1])))
    fields["mij"] = np.rint(fields["mij"]).astype(np.intp)
    return CodeDescriptor(**fields, jm=jm)
