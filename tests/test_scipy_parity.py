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
    ingest,
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


def _walk(rng, frames, joints):
    """A random walk plus noise around a random offset per joint."""
    walk = np.cumsum(rng.normal(0.0, 3.0, size=(frames, joints)), axis=0)
    return 40.0 * rng.standard_normal(joints) + walk + rng.normal(0.0, 2.0, size=(frames, joints))


def _mixed_pool(seed):
    """Random walks plus noise: lengths 2 to 700 frames, 1 to 5 joints, at 30, 120 and 240 Hz."""
    rng = np.random.default_rng(seed)
    lengths = (2, 3, 4, 9, 10, 11, 40, 128, 333, 700, 2, 57)
    pool = []
    for i, frames in enumerate(lengths):
        samples = _walk(rng, frames, int(rng.integers(1, 6)))
        pool.append(ActionMatrix(samples, frame_rate=(30.0, 120.0, 240.0)[i % 3], action_id=f"a{i}"))
    return pool


def _wide_pool(seed):
    """60 random walks at 120 Hz, all of 64 to 127 frames: 1 to 5 joints, and one of 40 joints."""
    rng = np.random.default_rng(seed)
    return [
        ActionMatrix(_walk(rng, int(rng.integers(64, 128)), 40 if i == 23 else int(rng.integers(1, 6))),
                     frame_rate=120.0, class_label=f"c{i % 4}", subject_id=f"s{i % 3}", action_id=f"w{i}")
        for i in range(60)
    ]


def _assert_matches_sosfiltfilt(pool, filtered, spec):
    """Each result and its descriptors equal those of scipy's per-action ``sosfiltfilt``, bit for bit."""
    for action, result in zip(pool, filtered, strict=True):
        sos = signal.butter(spec.order, spec.cutoff_hz, btype="low", fs=action.frame_rate, output="sos")
        pad = min(3 * (spec.order + 1), action.num_frames - 1)
        expected = action.with_samples(signal.sosfiltfilt(sos, action.samples, axis=0, padlen=pad))
        assert np.array_equal(result.samples, expected.samples), (action.action_id, action.num_frames)
        # numpy's sums over frames depend on the memory layout, so it must match too
        ours, theirs = (compute_descriptor(a, action.num_joints) for a in (result, expected))
        for name in ("var_norm", "vmax_norm", "vmin_norm", "corr"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), (action.action_id, name)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("cutoff", [1.0, 10.0, 14.5])
def test_batched_filter_matches_per_action_sosfiltfilt(order, cutoff):
    pool = _mixed_pool(order)
    spec = FilterSpec(cutoff_hz=cutoff, order=order)
    _assert_matches_sosfiltfilt(pool, butterworth_filter(pool, spec), spec)


@pytest.mark.parametrize("order", [1, 2, 5, 10])
@pytest.mark.parametrize("make_pool", [_mixed_pool, _wide_pool])
def test_chunked_filter_matches_per_action_sosfiltfilt(monkeypatch, order, make_pool):
    # 600 elements: the wide pool splits into chunks of a few columns, and the
    # 700-frame and 40-joint actions are each larger than a chunk
    bound = 600
    monkeypatch.setattr(ingest, "_FILTER_ELEMENTS", bound)
    chunks = []

    def spy(signals, sos, zi, pad, buf):
        rows = max(len(x) + 2 * min(pad, len(x) - 1) for x in signals)
        chunks.append(([id(x) for x in signals], rows * sum(x.shape[1] for x in signals)))
        return sosfiltfilt(signals, sos, zi, pad, buf)

    sosfiltfilt = ingest._sosfiltfilt
    monkeypatch.setattr(ingest, "_sosfiltfilt", spy)
    pool = make_pool(order)
    spec = FilterSpec(cutoff_hz=10.0, order=order)
    filtered = butterworth_filter(pool, spec)
    _assert_matches_sosfiltfilt(pool, filtered, spec)
    for action, result in zip(pool, filtered):
        assert (result.action_id, result.class_label, result.subject_id, result.frame_rate) == (
            action.action_id, action.class_label, action.subject_id, action.frame_rate)
        assert result.samples.flags.f_contiguous and not result.samples.flags.writeable
    # every action is in exactly one chunk, a chunk's actions share a rate and
    # a length class and keep pool order, and only a lone action exceeds the bound
    position = {id(a.samples): i for i, a in enumerate(pool)}
    members = [[position[x] for x in ids] for ids, _ in chunks]
    assert sorted(i for chunk in members for i in chunk) == list(range(len(pool)))
    assert len(chunks) >= 3 and any(len(chunk) > 1 for chunk in members)
    for chunk, (_, elements) in zip(members, chunks):
        assert chunk == sorted(chunk)
        assert len({(pool[i].frame_rate, pool[i].num_frames.bit_length()) for i in chunk}) == 1
        assert elements <= bound or len(chunk) == 1
    assert any(elements > bound for _, elements in chunks)


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
