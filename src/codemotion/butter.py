"""Digital low-pass Butterworth design as second-order sections, in numpy.

``lowpass_sos`` gives what ``scipy.signal.butter(N, Wn, output="sos")``
gives for a digital low-pass. The poles and the gain follow scipy's
``buttap``, ``lp2lp_zpk`` at the fs = 2 pre-warp and ``bilinear_zpk``,
with scipy's numpy operations in scipy's order. The sections are built in
closed form, in the order ``zpk2sos``'s ``'nearest'`` pairing puts them.
``sosfilt_zi`` is scipy's. Sections and initial states equal scipy 1.17.1's
byte for byte; the tests check that against scipy itself.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["lowpass_sos", "sosfilt_zi"]


def checked_order(order) -> int:
    """A filter order as an ``int``: a whole number, at least 1, and not a bool; ``ValueError`` otherwise."""
    whole = isinstance(order, numbers.Integral) or (isinstance(order, float) and order.is_integer())
    if isinstance(order, bool) or not whole:
        raise ValueError(f"order must be a whole number, got {order!r}")
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order!r}")
    return int(order)


def lowpass_sos(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Sections (n, 6) of an order-``order`` low-pass at ``cutoff_hz`` for ``fs`` samples/s; ``ValueError`` if none."""
    order = checked_order(order)
    nyquist = float(fs) / 2
    if not cutoff_hz > 0:
        raise ValueError(f"cutoff {cutoff_hz} Hz must be positive")
    if not cutoff_hz < nyquist:
        raise ValueError(f"cutoff {cutoff_hz} Hz must stay below the Nyquist frequency {nyquist} Hz "
                         f"of a {fs} Hz recording")
    wn = np.asarray(cutoff_hz, dtype=np.float64) / nyquist
    too_high = (f"order {order} is too high for a {cutoff_hz} Hz low-pass of a {fs} Hz recording: "
                "its design overflows or underflows float64")
    with np.errstate(all="ignore"):  # a design float64 cannot hold is rejected, not warned about
        # lp2lp_zpk's pre-warped cutoff, at scipy's fs = 2 normalization, and its gain
        wo = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))
        try:
            k = 1.0 * wo**order
        except OverflowError:  # a Python float's power raises where numpy's gives inf
            k = np.inf
        if not 0 < k < np.inf:  # judged before the order's poles are built, which a huge order cannot hold
            raise ValueError(too_high)
        # buttap: poles on the unit circle's left half; the middle one exactly real
        m = np.arange(-order + 1, order, 2, dtype=np.float64)
        p = wo * -np.exp(1j * np.pi * m / (2 * order))
        # bilinear_zpk: the zeros at infinity move to -1 (Nyquist)
        fs2 = 2.0 * 2.0
        k = k * np.real(1.0 / np.prod(fs2 - p))  # the numerator is the product over no zeros
        p = (fs2 + p) / (fs2 - p)
        # zpk2sos's 'nearest' pairing: each conjugate pair, by its pole above the
        # real axis, over two zeros at -1, the pair nearest the unit circle last
        # (a stable ascending sort, reversed, breaks ties as zpk2sos's argmin
        # loop does). 0.0 - 2 Re p, not -2 Re p: a pair on the imaginary axis
        # (a cutoff of fs/4) gives +0.0 there, as scipy's does.
        pairs = p[m < 0]
        pairs = pairs[np.argsort(np.abs(1 - np.abs(pairs)), kind="stable")[::-1]]
        odd = order % 2
        sos = np.zeros(((order + 1) // 2, 6))
        sos[:, :4] = [1.0, 2.0, 1.0, 1.0]
        sos[odd:, 4] = 0.0 - 2 * pairs.real
        sos[odd:, 5] = pairs.real * pairs.real + pairs.imag * pairs.imag
        if odd:
            # The real pole, padded with a pole at 0, is farthest from the unit
            # circle: for a fixed |s|, |z| falls as the analog damping grows, and
            # the real pole's is the largest. So it takes section 0. The zero at
            # 0 that pads it replaces a -1 in the last section whose pole is
            # nearer 0 than -1, or in section 0 if none is.
            real_pole = p[m == 0]
            sos[0, 4] = -real_pole.real[0]
            poles = np.concatenate((real_pole, pairs))
            nearer_0 = np.flatnonzero(np.abs(poles) < np.abs(1 + poles))
            sos[nearer_0[-1] if len(nearer_0) else 0, 1:3] = [1.0, 0.0]
        sos[0, :3] *= k
    if not (np.isfinite(sos).all() and sos[0, 0] != 0):  # the gain underflowed to 0, or a product overflowed
        raise ValueError(too_high)
    # A pole within rounding of z = 1 leaves a section with no steady state:
    # sosfilt_zi's solve is singular, or its DC gain divides by 1 + a1 + a2 = 0.
    # So the design is judged by the very solve the filter starts from.
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            sosfilt_zi(sos)
    except (np.linalg.LinAlgError, FloatingPointError):
        raise ValueError(f"cutoff {cutoff_hz} Hz is too low for an order-{order} low-pass of a {fs} Hz recording: "
                         "a pole rounds to z = 1 in float64, so the filter has no steady state") from None
    return sos


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
