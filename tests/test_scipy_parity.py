"""Bit-equality of the numpy filter design, zero-phase filter and baseline distances with scipy.

scipy is a test-only dependency: it is the oracle the numpy ports must
match exactly (``np.array_equal``, no tolerance).
"""

import itertools

import numpy as np
import pytest
from scipy import signal
from scipy.spatial.distance import cdist

from codemotion import (
    ActionMatrix,
    FilterSpec,
    MetricSpec,
    SyntheticConfig,
    butterworth_filter,
    compute_descriptor,
    generate_synthetic,
    similarity_matrix,
)
from codemotion.butter import lowpass_sos, sosfilt_zi

ORDERS = range(1, 11)
CUTOFFS_HZ = (0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 12.5, 15.0, 20.0)
RATES_HZ = (30.0, 50.0, 60.0, 100.0, 120.0, 200.0, 240.0)
DESIGN_GRID = [
    (order, cutoff, fs)
    for order, cutoff, fs in itertools.product(ORDERS, CUTOFFS_HZ, RATES_HZ)
    if cutoff < fs / 2
]


def test_design_grid_covers_every_order_and_rate():
    assert len(DESIGN_GRID) == 680
    assert {o for o, _, _ in DESIGN_GRID} == set(ORDERS)
    assert {fs for _, _, fs in DESIGN_GRID} == set(RATES_HZ)


@pytest.mark.parametrize("order", ORDERS)
def test_design_matches_scipy_butter(order):
    for _, cutoff, fs in (config for config in DESIGN_GRID if config[0] == order):
        expected = signal.butter(order, cutoff, btype="low", fs=fs, output="sos")
        sos = lowpass_sos(order, cutoff, fs)
        assert np.array_equal(sos, expected), (order, cutoff, fs)
        assert np.array_equal(sosfilt_zi(sos), signal.sosfilt_zi(expected)), (order, cutoff, fs)


def _mixed_pool(seed):
    """Random walks plus noise: lengths 2 to 700 frames, 1 to 5 joints, at 30, 120 and 240 Hz."""
    rng = np.random.default_rng(seed)
    lengths = (2, 3, 4, 9, 10, 11, 40, 128, 333, 700, 2, 57)
    pool = []
    for i, frames in enumerate(lengths):
        joints = int(rng.integers(1, 6))
        walk = np.cumsum(rng.normal(0.0, 3.0, size=(frames, joints)), axis=0)
        samples = 40.0 * rng.standard_normal(joints) + walk + rng.normal(0.0, 2.0, size=(frames, joints))
        pool.append(ActionMatrix(samples, frame_rate=(30.0, 120.0, 240.0)[i % 3], action_id=f"a{i}"))
    return pool


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("cutoff", [1.0, 10.0, 14.5])
def test_batched_filter_matches_per_action_sosfiltfilt(order, cutoff):
    pool = _mixed_pool(order)
    filtered = butterworth_filter(pool, FilterSpec(cutoff_hz=cutoff, order=order))
    for action, result in zip(pool, filtered):
        sos = signal.butter(order, cutoff, btype="low", fs=action.frame_rate, output="sos")
        pad = min(3 * (order + 1), action.num_frames - 1)
        expected = action.with_samples(signal.sosfiltfilt(sos, action.samples, axis=0, padlen=pad))
        assert np.array_equal(result.samples, expected.samples), (action.action_id, action.num_frames)
        # numpy's sums over frames depend on the memory layout, so it must match too
        ours, theirs = (compute_descriptor(a, action.num_joints) for a in (result, expected))
        for name in ("var_norm", "vmax_norm", "vmin_norm", "corr"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), (action.action_id, name)


@pytest.fixture(scope="module")
def sweep_actions():
    actions, _ = generate_synthetic(
        SyntheticConfig(classes=5, per_class=3, subjects=2, joints=24, frames=90, seed=8)
    )
    return butterworth_filter(actions, FilterSpec())


@pytest.mark.parametrize("jm", [5, 10, 20])
@pytest.mark.parametrize("metric, scipy_metric", [("euclidean", "euclidean"), ("manhattan", "cityblock")])
@pytest.mark.parametrize("features", ["var", "var-vel", "full"])
def test_baseline_distances_match_cdist(sweep_actions, jm, metric, scipy_metric, features):
    descriptors = [compute_descriptor(a, jm) for a in sweep_actions]
    queries, references = descriptors[:11], descriptors[4:]
    names = {
        "var": ("var_norm",),
        "var-vel": ("var_norm", "vmax_norm", "vmin_norm"),
        "full": ("var_norm", "vmax_norm", "vmin_norm", "corr"),
    }[features]

    def stacked(ds):
        return np.stack([np.concatenate([getattr(d, name) for name in names]) for d in ds])

    expected = cdist(stacked(queries), stacked(references), metric=scipy_metric)
    got = similarity_matrix(queries, references, MetricSpec.parse(metric, features))
    assert np.array_equal(got, expected)
