"""Bit-equality of the numpy filter design, zero-phase filter and baseline distances with scipy.

scipy is a test-only dependency: it is the oracle the numpy ports must
match exactly: the filter design byte for byte (``tobytes()``, which tells
-0.0 from +0.0), the filtered samples and distances by ``np.array_equal``.
"""

import itertools
import re
import warnings

import numpy as np
import pytest
from scipy import signal
from scipy.spatial.distance import cdist

from codemotion import (
    ActionMatrix,
    FeatureSet,
    FilterSpec,
    Metric,
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


def _same_bytes(ours, theirs):
    """Equal shapes, dtypes and bytes: unlike ``np.array_equal``, -0.0 and +0.0 differ."""
    return (ours.shape, ours.dtype, ours.tobytes()) == (theirs.shape, theirs.dtype, theirs.tobytes())


def test_design_grid_covers_every_order_and_rate():
    assert len(DESIGN_GRID) == 680
    assert {o for o, _, _ in DESIGN_GRID} == set(ORDERS)
    assert {fs for _, _, fs in DESIGN_GRID} == set(RATES_HZ)


@pytest.mark.parametrize("order", ORDERS)
def test_design_matches_scipy_butter(order):
    for _, cutoff, fs in (config for config in DESIGN_GRID if config[0] == order):
        expected = signal.butter(order, cutoff, btype="low", fs=fs, output="sos")
        sos = lowpass_sos(order, cutoff, fs)
        assert _same_bytes(sos, expected), (order, cutoff, fs)
        assert _same_bytes(sosfilt_zi(sos), signal.sosfilt_zi(expected)), (order, cutoff, fs)


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


# Past DESIGN_GRID's orders, up to where float64 runs out: order 300 at
# 6 Hz of 240 Hz is past it (its gain underflows to 0, in scipy's design too).
HIGH_ORDER_GRID = list(itertools.product((11, 30, 60, 150, 300), (6.0, 10.0, 20.0), (120.0, 240.0)))


@pytest.mark.parametrize("order, cutoff, fs", HIGH_ORDER_GRID)
def test_high_order_design_matches_scipy_or_is_rejected(order, cutoff, fs):
    with np.errstate(all="ignore"):
        expected = signal.butter(order, cutoff, btype="low", fs=fs, output="sos")
    if not (np.isfinite(expected).all() and expected[0, 0] != 0):
        with pytest.raises(ValueError, match=f"^order {order} is too high"):
            lowpass_sos(order, cutoff, fs)
        return
    sos = lowpass_sos(order, cutoff, fs)
    assert _same_bytes(sos, expected)
    assert _same_bytes(sosfilt_zi(sos), signal.sosfilt_zi(expected))
    pool = [action for action in _mixed_pool(order) if action.frame_rate == fs]
    spec = FilterSpec(cutoff_hz=cutoff, order=order)
    _assert_matches_sosfiltfilt(pool, butterworth_filter(pool, spec), spec)


# The lowest order at each rate and cutoff whose design float64 cannot hold,
# as README gives them. Its gain sits near the smallest subnormal, so these
# pin bits of numpy's arithmetic that scipy's design shares.
@pytest.mark.parametrize("fs, cutoff, lowest", [
    (120.0, 6.0, 384), (120.0, 10.0, 457), (120.0, 50.0, 248),
    (240.0, 6.0, 288), (240.0, 10.0, 353), (240.0, 50.0, 385),
])
def test_lowest_order_float64_cannot_hold(fs, cutoff, lowest):
    sos = lowpass_sos(lowest - 1, cutoff, fs)
    expected = signal.butter(lowest - 1, cutoff, btype="low", fs=fs, output="sos")
    assert _same_bytes(sos, expected)
    assert _same_bytes(sosfilt_zi(sos), signal.sosfilt_zi(expected))
    with np.errstate(all="ignore"):
        expected = signal.butter(lowest, cutoff, btype="low", fs=fs, output="sos")
    assert not (np.isfinite(expected).all() and expected[0, 0] != 0)
    message = f"order {lowest} is too high for a {cutoff} Hz low-pass of a {fs} Hz recording: "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        lowpass_sos(lowest, cutoff, fs)


# Orders 1 to 25 at every whole-Hz cutoff of a 30 and a 120 Hz recording. An
# odd order's zero at 0 lands in the last section (order 3 at 10 Hz of 120 Hz),
# in section 0 (order 3 at 45 Hz) or in one between (order 5 at 43 Hz), and
# order 24 at 30 Hz, a quarter of the rate, has a pole pair on the imaginary
# axis, whose a[1] scipy gives as +0.0.
WHOLE_HZ_GRID = [(order, float(cutoff), fs)
                 for fs in (30.0, 120.0) for cutoff in range(1, int(fs) // 2) for order in range(1, 26)]


def test_whole_hz_design_matches_scipy_byte_for_byte():
    for order, cutoff, fs in WHOLE_HZ_GRID:
        expected = signal.butter(order, cutoff, btype="low", fs=fs, output="sos")
        sos = lowpass_sos(order, cutoff, fs)
        assert _same_bytes(sos, expected), (order, cutoff, fs)
        assert _same_bytes(sosfilt_zi(sos), signal.sosfilt_zi(expected)), (order, cutoff, fs)


def test_whole_hz_grid_puts_the_zero_at_0_in_every_place():
    places = set()
    for order, cutoff, fs in WHOLE_HZ_GRID:
        if order % 2 and order > 1:
            section = np.flatnonzero(lowpass_sos(order, cutoff, fs)[:, 2] == 0)[0]
            places.add("first" if section == 0 else "last" if section == order // 2 else "middle")
    assert places == {"first", "middle", "last"}
    assert [np.flatnonzero(lowpass_sos(*config)[:, 2] == 0)[0]
            for config in [(3, 10.0, 120.0), (3, 45.0, 120.0), (5, 43.0, 120.0)]] == [1, 0, 1]
    assert (24, 30.0, 120.0) in WHOLE_HZ_GRID
    a1 = lowpass_sos(24, 30.0, 120.0)[:, 4]
    assert (a1 == 0).any() and not np.signbit(a1[a1 == 0]).any()


# Orders 1 to 8 at cutoffs far below any motion's band. From about 1e-7 Hz a
# pole of the even orders rounds to z = 1, which leaves its section no steady
# state: sosfilt_zi's solve is singular, or its gain divides by 1 + a1 + a2 = 0.
LOW_CUTOFF_GRID = list(itertools.product(range(1, 9), [float(f"1e-{e}") for e in range(3, 13)], (30.0, 120.0, 240.0)))


def test_low_cutoff_design_starts_from_a_steady_state_or_is_refused():
    refused = 0
    for order, cutoff, fs in LOW_CUTOFF_GRID:
        expected = signal.butter(order, cutoff, btype="low", fs=fs, output="sos")
        try:
            sos = lowpass_sos(order, cutoff, fs)
        except ValueError as exc:
            assert str(exc) == (f"cutoff {cutoff} Hz is too low for an order-{order} low-pass of a {fs} Hz "
                                "recording: a pole rounds to z = 1 in float64, so the filter has no steady state")
            with warnings.catch_warnings(), pytest.raises((np.linalg.LinAlgError, RuntimeWarning)):
                warnings.simplefilter("error")
                signal.sosfilt_zi(expected)  # scipy cannot start it either
            refused += 1
            continue
        assert _same_bytes(sos, expected), (order, cutoff, fs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zi = sosfilt_zi(sos)
        assert _same_bytes(zi, signal.sosfilt_zi(expected)), (order, cutoff, fs)
    assert refused == 119


def test_high_order_grid_reaches_past_float64_once():
    rejected = []
    for config in HIGH_ORDER_GRID:
        try:
            lowpass_sos(*config)
        except ValueError:
            rejected.append(config)
    assert rejected == [(300, 6.0, 240.0)]


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
    got = similarity_matrix(queries, references, MetricSpec(Metric(metric), FeatureSet(features)))
    assert np.array_equal(got, expected)
