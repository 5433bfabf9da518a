"""A fixed task whose wall time shows how fast the host runs the CLI's kind of work now.

Usage (from the repository root; takes no arguments):

    python3 perfbench/reference_task.py

It does what a codemotion CLI process does, without any codemotion code:
starts an interpreter, imports numpy, ``scipy.signal`` and
``scipy.spatial.distance``, parses CSV text with ``float()``, filters it
with a Butterworth filter, computes correlation and distance matrices, and
runs dense broadcasts the size of a CSM row on one and then two threads. Its
inputs are fixed, so its wall time changes only with the speed of the host,
and no change to the library can change it. ``perfbench/run.py`` runs it
before each CLI run and after the last, and divides the mean CLI wall time
by the mean wall time of these runs.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import signal
from scipy.spatial.distance import cdist

ROWS, COLUMNS = 2000, 60
# Dense broadcasts over (rows, joints, joints) arrays of a few MB, the memory
# traffic of a similarity matrix.
BLOCK_ROWS, JOINTS, PASSES = 240, 60, 12


def parse(text):
    return np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])


def broadcast(seed):
    rng = np.random.default_rng(seed)
    mass = rng.random((BLOCK_ROWS, JOINTS))
    corr = rng.random((BLOCK_ROWS, JOINTS, JOINTS))
    total = 0.0
    for row in range(PASSES):
        weight = 1.0 - 0.5 * np.abs(corr[row][None, :, :] - corr)
        bracket = mass[:, :, None] + mass[:, None, :]
        total += float((weight * bracket).sum())
    return total


def main():
    values = np.sin(np.arange(ROWS * COLUMNS, dtype=np.float64) * 0.001).reshape(ROWS, COLUMNS)
    text = "\n".join(",".join(repr(v) for v in row) for row in values.tolist())
    samples = parse(text)
    sos = signal.butter(4, 6.0, fs=120.0, output="sos")
    filtered = signal.sosfiltfilt(sos, samples, axis=0)
    total = float(np.abs(np.corrcoef(filtered.T)).sum() + cdist(filtered[:400], filtered[:400]).sum())
    total += broadcast(0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        total += sum(pool.map(broadcast, (1, 2)))
    if not np.isfinite(total):
        raise SystemExit("reference task produced a non-finite result")


if __name__ == "__main__":
    main()
