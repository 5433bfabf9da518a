"""Digital low-pass Butterworth design as second-order sections, in numpy.

A port of the chain that ``scipy.signal.butter(N, Wn, output="sos")`` runs
for a digital low-pass: ``buttap``, ``lp2lp_zpk`` at the fs = 2 pre-warp,
``bilinear_zpk`` and ``zpk2sos`` with ``'nearest'`` pairing, plus
``sosfilt_zi``. Each step keeps scipy's numpy operations in scipy's order,
so sections and initial states equal scipy 1.17.1's bit for bit; the
tests check that against scipy itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lowpass_sos", "sosfilt_zi"]


def lowpass_sos(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Sections (n, 6) of an order-``order`` low-pass at ``cutoff_hz`` for ``fs`` samples/s."""
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (float(fs) / 2)
    if not 0 < wn < 1:
        raise ValueError(f"cutoff {cutoff_hz} Hz must lie strictly between 0 and fs/2 = {fs / 2} Hz")
    # buttap: poles on the unit circle's left half; the middle one exactly real
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    # lp2lp_zpk to the pre-warped cutoff, at scipy's fs = 2 normalization
    wo = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))
    p = wo * p
    k = 1.0 * wo**order
    # bilinear_zpk: the zeros at infinity move to -1 (Nyquist)
    fs2 = 2.0 * 2.0
    k = k * np.real(1.0 / np.prod(fs2 - p))  # the numerator is the product over no zeros
    p = (fs2 + p) / (fs2 - p)
    return _zpk2sos(p, k)


def _zpk2sos(p, k) -> np.ndarray:
    """scipy's ``zpk2sos(z, p, k)`` with ``'nearest'`` pairing, for a low-pass's poles.

    The zeros are all at -1, plus, for an odd order, one zero and one pole at
    0 that pad to whole sections; scipy's ``_cplxreal`` sorts the zeros to
    exactly that order. With every zero real and the real poles in twos (none,
    or the real Butterworth pole and the one at 0), scipy's pairing only ever
    takes its branch that pairs two poles with the two nearest zeros.
    """
    n_sections = (len(p) + 1) // 2
    z = -np.ones(len(p))
    if len(p) % 2 == 1:
        p = np.concatenate((p, [0.0]))
        z = np.concatenate((z, [0.0]))
    p = np.concatenate(_cplxreal(p))
    sos = np.zeros((n_sections, 6))
    for si in range(n_sections - 1, -1, -1):
        # the pole nearest the unit circle first
        p1_idx = np.argmin(np.abs(1 - np.abs(p)))
        p1 = p[p1_idx]
        p = np.delete(p, p1_idx)
        if np.isreal(p1):
            prealidx = np.flatnonzero(np.isreal(p))
            p2_idx = prealidx[np.argmin(np.abs(1 - np.abs(p[prealidx])))]
            p2 = p[p2_idx]
            p = np.delete(p, p2_idx)
        else:
            p2 = p1.conj()
        z1_idx = np.argsort(np.abs(z - p1))[0]
        z1 = z[z1_idx]
        z = np.delete(z, z1_idx)
        z2_idx = np.argsort(np.abs(z - p1))[0]
        z2 = z[z2_idx]
        z = np.delete(z, z2_idx)
        sos[si, :3] = _poly(np.asarray([z1, z2]))
        sos[si, 3:] = np.real(_poly(np.asarray([p1, p2])))
    sos[0, :3] *= k
    return sos


def _cplxreal(z):
    """scipy's ``_cplxreal`` for a low-pass's poles: (one of each conjugate pair, the real ones), sorted.

    Butterworth poles come in exact conjugate pairs with distinct real parts,
    so scipy's re-sorting of runs with equal real parts and its check for
    unmatched conjugates never act; they are left out.
    """
    tol = 100 * np.finfo(np.float64).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real_indices]
    return (z[z.imag > 0] + z[z.imag < 0].conj()) / 2, zr


def _poly(roots: np.ndarray) -> np.ndarray:
    """Monic polynomial with these roots, built by convolution as scipy's ``poly`` does."""
    a = np.ones((1,), dtype=roots.dtype)
    one = np.ones_like(roots[0])
    for root in roots:
        a = np.convolve(a, np.stack((one, -root)), mode="full")
    return a


def sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """scipy's ``sosfilt_zi``: per-section states (n, 2) of a unit step's steady state.

    Every section here has ``a[0] == 1``, so ``lfilter_zi`` needs no
    normalization and its companion matrix's first row is ``-a[1:]``.
    """
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for section in range(sos.shape[0]):
        b = sos[section, :3]
        a = sos[section, 3:]
        companion = np.array([-a[1:], [1.0, 0.0]])
        zi[section, ...] = scale * np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi
