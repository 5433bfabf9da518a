import tracemalloc

import numpy as np
import pytest

from codemotion import ActionMatrix, ingest


def random_action(rng, joints=None, frames=None, scale=30.0, frame_rate=30.0, **meta):
    """A random action with guaranteed motion in every joint."""
    joints = joints if joints is not None else int(rng.integers(2, 7))
    frames = frames if frames is not None else int(rng.integers(4, 31))
    t = np.arange(frames) / frame_rate
    samples = rng.normal(0.0, scale / 10.0, size=(frames, joints))
    freqs = rng.uniform(0.3, 2.0, size=joints)
    phases = rng.uniform(0.0, 2 * np.pi, size=joints)
    amps = rng.uniform(0.3, 1.0, size=joints) * scale
    samples += amps * np.sin(2 * np.pi * freqs * t[:, None] + phases)
    return ActionMatrix(samples, frame_rate=frame_rate, **meta)


def traced_peak(call):
    """``call()`` and the peak bytes tracemalloc saw allocated during it, over what was before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def live_at_first_call(monkeypatch, owner, name, refs):
    """Wrap ``owner.name`` to count, at its first call, the weakrefs in ``refs`` still alive.

    Returns the list the count goes into; it stays empty until the first
    call. The wrapper records rather than asserts, so that a CLI command's
    own error handling cannot swallow the failure.
    """
    real = getattr(owner, name)
    live = []

    def spy(*args, **kwargs):
        if not live:
            live.append(sum(ref() is not None for ref in refs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return live


def pool_held_once(count, frames, joints, order=2):
    """Peak bytes allowed for filtering ``count`` (frames, joints) actions that were handed over.

    One pool's sample bytes, one chunk of the filter's buffer and a quarter
    pool of slack. A chunk holds at most ``_FILTER_ELEMENTS`` elements, or
    one action if that is larger, and never more than the whole pool; a
    filter that buffers a pool of several chunks at once holds it about
    twice.
    """
    pool = count * frames * joints * 8
    rows = frames + 2 * min(3 * (order + 1), frames - 1)
    columns = min(count * joints, max(joints, ingest._FILTER_ELEMENTS // rows))
    return pool + rows * columns * 8 + pool // 4


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
