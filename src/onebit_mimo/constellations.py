"""Constellation tables, Gray bit mappings, modulation and detection.

Every set is normalized to unit average symbol energy (Es = 1) and stored in
label order: ``points[c]`` is the point whose bit label is the integer ``c``,
most significant bit first, so ``labels`` is the bit expansion of
``0 .. M-1`` and modulation is a table lookup. The labelings are fixed so
that bit error rates are reproducible:

- ``qpsk``: b0 selects the real sign, b1 the imaginary sign, bit 0 -> +1.
  So 00 -> (1+1j)/sqrt(2), 01 -> (1-1j)/sqrt(2), 10 -> (-1+1j)/sqrt(2),
  11 -> (-1-1j)/sqrt(2).
- ``8psk`` / ``16psk``: label c sits at exp(2j pi i / M), where c = i ^ (i >> 1)
  is the binary-reflected Gray code of the angle index i, so circular
  neighbors differ in exactly one bit.
- ``16qam`` / ``64qam``: square grids with per-axis odd levels
  {-(L-1), ..., L-1} scaled by 1/sqrt(10) resp. 1/sqrt(42). The first half
  of the label Gray-codes the in-phase level (ascending), the second half the
  quadrature level, so horizontal/vertical neighbors differ in exactly one
  bit.

Detection is minimum-distance with ties broken toward the lowest label, which
makes it deterministic. It returns label codes; ``labels[codes]`` are their
bits. Grids of 8 or more levels per axis (64-QAM) are decided per axis,
over sqrt(M) levels on each axis instead of M points, with the same tie rule
and, bit for bit, the codes of the joint search; QPSK, 16-QAM and the PSK
sets are searched jointly, which costs less on so few points. For
constant-modulus sets the decision is invariant to any positive scaling of
the input, so those constellations never need an amplitude estimate at the
receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """A symbol set in label order: ``points[c]`` carries the bits ``labels[c]``,
    which spell the integer ``c`` most significant bit first."""

    points: np.ndarray          # complex, shape (M,)
    labels: np.ndarray          # uint8, shape (M, m)
    #: a grid's (in-phase, quadrature) levels, read off ``points``, when
    #: :func:`detect` decides it per axis; None for a joint search
    axes: tuple | None = None

    @property
    def bits_per_symbol(self) -> int:
        return self.labels.shape[1]


def _labels(order: int) -> np.ndarray:
    """Bit expansion of 0 .. order-1, most significant bit first."""
    width = order.bit_length() - 1
    codes = np.arange(order)[:, None]
    return (codes >> np.arange(width - 1, -1, -1) & 1).astype(np.uint8)


def _inverse_gray(order: int) -> np.ndarray:
    """Entry c is the i whose Gray code i ^ (i >> 1) is c: c ^ (c >> 1) ^ (c >> 2) ..."""
    c = np.arange(order)
    return np.bitwise_xor.reduce([c >> k for k in range(order.bit_length())])


def _psk(order: int) -> Constellation:
    angle_index = _inverse_gray(order)
    points = np.exp(1j * (2.0 * np.pi * angle_index / order))
    return Constellation(points, _labels(order))


#: a grid with this many levels per axis or more is decided per axis; on
#: fewer, the joint search over all M points costs less (16 x 10 samples, numpy
#: 2.4 on a 2-core Xeon VM: 4 levels 33 us per axis against 30 us jointly,
#: 8 levels 34 against 53 us)
_PER_AXIS_MIN_LEVELS = 8


def _square(axis: np.ndarray) -> Constellation:
    """Grid whose label (g_i, g_q) sits at axis[g_i] + j axis[g_q], Es = 1."""
    scale = 1.0 / np.sqrt(2.0 * np.mean(axis ** 2))
    points = scale * (axis[:, None] + 1j * axis).ravel()
    side = axis.size
    labels = _labels(side ** 2)
    if side < _PER_AXIS_MIN_LEVELS:
        return Constellation(points, labels)
    # label g_i * side + g_q: taking the levels from the table keeps each
    # per-axis difference equal to the joint search's
    return Constellation(points, labels, (points.real[::side], points.imag[:side]))


def _square_qam(order: int) -> Constellation:
    per_axis = 1 << (order.bit_length() - 1) // 2
    levels = 2.0 * np.arange(per_axis) - (per_axis - 1)
    return _square(levels[_inverse_gray(per_axis)])


_REGISTRY = {
    "qpsk": _square(np.array([1.0, -1.0])),
    "8psk": _psk(8),
    "16psk": _psk(16),
    "16qam": _square_qam(16),
    "64qam": _square_qam(64),
}

CONSTELLATION_IDS = tuple(_REGISTRY)


def get_constellation(name: str) -> Constellation:
    """The table of an exact id from ``CONSTELLATION_IDS`` (lower case, unpadded)."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown constellation {name!r}; choose from {CONSTELLATION_IDS}"
        )
    return _REGISTRY[name]


def modulate(bits, c: Constellation) -> np.ndarray:
    """Map a flat bit sequence to constellation symbols, m bits per symbol."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    m = c.bits_per_symbol
    if bits.size % m != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {m}")
    return c.points[bits.reshape(-1, m) @ (1 << np.arange(m - 1, -1, -1))]


def detect(shat, c: Constellation):
    """Minimum-distance detection, ties to the lowest label.

    Returns the label codes, shaped like ``shat`` (0-d for a scalar); a code
    indexes ``c.points``, and ``c.labels[codes]`` are the detected bits.
    """
    arr = np.asarray(shat, dtype=complex)
    if c.axes is None:
        re = arr.real[..., None] - c.points.real
        im = arr.imag[..., None] - c.points.imag
        return np.argmin(re * re + im * im, axis=-1)
    # The joint search ranks label g_i * n + g_q (n levels per axis) by the
    # rounded sum a[g_i] + b[g_q] of per-axis squared distances. Rounding
    # never reverses an order, so its first minimum has the lowest g_i whose
    # a + min(b) is least and then the lowest g_q whose a[g_i] + b is least:
    # the same code, for ties and non-finite samples too.
    in_phase, quadrature = c.axes
    x, y = arr.real.ravel(), arr.imag.ravel()
    a = x - in_phase[:, None]
    a *= a
    b = y - quadrature[:, None]
    b *= b
    a += b.min(axis=0)
    g_i = a.argmin(axis=0)
    d = x - in_phase[g_i]
    b += d * d
    codes = b.argmin(axis=0)
    codes += g_i * in_phase.size
    return codes.reshape(arr.shape)
