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
bits. The rule is the joint search: one argmin over the rounded squared
distances to all M points. A square grid (QPSK, 16-QAM, 64-QAM) is first
sliced, the usual QAM receiver's shortcut: each axis is one sorted lookup
against the midpoints of adjacent levels, and a table turns the two sorted
positions into the label. Rounding can make the joint search disagree with
the slice only for a component within a rounding error of a threshold, so
the slice is kept only when every component clears its nearest threshold by
a rounding guard (see :func:`detect`); otherwise, and for any NaN or
infinite sample, the joint search decides the whole array. Either way the
codes are those of the joint search, bit for bit. The PSK sets are always
searched jointly. For constant-modulus sets the decision is invariant to any
positive scaling of the input, so those constellations never need an
amplitude estimate at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: the guard's constant c in mu > c u B / spacing, u = 2^-53; c = 4 is exact
#: (see :func:`detect`), and the rest absorbs the rounded thresholds and margins
_GUARD_C = 100
#: the outer cells' far edge: finite, so a margin never forms inf - inf, and
#: far beyond the largest magnitude the guard trusts (below 1e14)
_FAR = 1e100


class Slicer(NamedTuple):
    """A square grid's per-axis decision, read off its ``points``."""

    #: the levels of either axis, ascending: sorted position p is ``levels[p]``
    levels: np.ndarray
    #: the midpoints of adjacent levels, ascending
    thresholds: np.ndarray
    #: each sorted position's lower and upper threshold, -_FAR and _FAR outside
    below: np.ndarray
    above: np.ndarray
    #: the label code at sorted positions (p_i, p_q), flattened as p_i * side + p_q
    codes: np.ndarray
    #: c u 2 / spacing, so that mu = guard * (max|component| + reach)^2
    guard: float
    #: the largest |level|
    reach: float


@dataclass(frozen=True)
class Constellation:
    """A symbol set in label order: ``points[c]`` carries the bits ``labels[c]``,
    which spell the integer ``c`` most significant bit first."""

    points: np.ndarray          # complex, shape (M,)
    labels: np.ndarray          # uint8, shape (M, m)
    #: a square grid's slicer; None for the PSK sets
    slicer: Slicer | None = None

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


def _slicer(points: np.ndarray, side: int) -> Slicer:
    """The slicer of a grid whose label g_i * side + g_q sits at level g_i
    in phase and level g_q in quadrature."""
    # the levels are taken from the table, so each slice compares against
    # the joint search's own values; both axes carry the same ones. Python's
    # sorted, as np.argsort's first call pages in about 0.25 MB
    axis = points.real[::side]
    order = sorted(range(side), key=axis.__getitem__)
    levels = axis[order]
    thresholds = (levels[:-1] + levels[1:]) / 2
    label = np.array(order)
    spacing = float((levels[1:] - levels[:-1]).min())
    return Slicer(levels=levels, thresholds=thresholds,
                  below=np.concatenate([[-_FAR], thresholds]),
                  above=np.concatenate([thresholds, [_FAR]]),
                  codes=(label[:, None] * side + label).ravel(),
                  guard=2.0 * _GUARD_C * 2.0 ** -53 / spacing,
                  reach=float(abs(levels).max()))


def _square(axis: np.ndarray) -> Constellation:
    """Grid whose label (g_i, g_q) sits at axis[g_i] + j axis[g_q], Es = 1."""
    scale = 1.0 / np.sqrt(2.0 * np.mean(axis ** 2))
    points = scale * (axis[:, None] + 1j * axis).ravel()
    return Constellation(points, _labels(axis.size ** 2), _slicer(points, axis.size))


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
    given = np.asarray(bits).ravel()
    m = c.bits_per_symbol
    if given.size % m != 0:
        raise ValueError(f"bit count {given.size} not divisible by {m}")
    # any other value would index another label's point; values of another
    # dtype are checked as given, since a cast to uint8 wraps or truncates them
    if (given.max(initial=0) > 1 if given.dtype == np.uint8
            else not np.array_equal(given, given.astype(bool))):
        raise ValueError("bits must be 0 or 1")
    bits = given.astype(np.uint8, copy=False)
    return c.points[bits.reshape(-1, m) @ (1 << np.arange(m - 1, -1, -1))]


def detect(shat, c: Constellation):
    """Minimum-distance detection, ties to the lowest label.

    Returns the label codes, shaped like ``shat`` (0-d for a scalar); a code
    indexes ``c.points``, and ``c.labels[codes]`` are the detected bits.

    The codes are those of the joint search, an argmin over the rounded
    fl(fl(r^2) + fl(s^2)) of every point. A square grid is sliced first, and
    the slice is kept when every component is more than mu from its nearest
    threshold. That suffices: rounding moves each exact squared distance S by
    at most 4u S; the nearest point's S is at most
    B = 2 (max|component| + reach)^2; and it leads every other point's S by
    at least 2 spacing mu. So for mu > 4u B / spacing (to first order in u)
    the joint search's minimum is the nearest point, and it is unique.
    """
    arr = np.asarray(shat, dtype=complex)
    if (slicer := c.slicer) is not None and arr.size:
        v = arr.ravel().view(float)  # in-phase, quadrature, in-phase, ...
        pos = slicer.thresholds.searchsorted(v)
        margin = np.minimum(v - slicer.below.take(pos), slicer.above.take(pos) - v)
        # in Python floats, so a huge sample makes mu inf, not an overflow;
        # a NaN or infinite one fails the comparison
        r = float(np.abs(v).max()) + slicer.reach
        if margin.min() > slicer.guard * r * r:
            cell = pos[::2] * slicer.levels.size + pos[1::2]
            return slicer.codes.take(cell).reshape(arr.shape)
    # in place, so that the search holds two n x M arrays rather than five
    re = arr.real[..., None] - c.points.real
    re *= re
    im = arr.imag[..., None] - c.points.imag
    im *= im
    re += im
    return np.argmin(re, axis=-1)
