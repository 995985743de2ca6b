"""Finite zero sequences with repetition bookkeeping.

A zero sequence keeps the imposed zeros in canonical order: equal values
sit in contiguous runs (runs ordered by first appearance) and every entry
carries its offset inside its run. That offset is the derivative order
used whenever a function is "evaluated" at the entry, so a run of m equal
zeros imposes vanishing to order m.

Equality of zeros is exact complex equality. Nearly coincident zeros stay
distinct; the resulting ill-conditioning is reported by the Gram layer
instead of being merged away here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import cached_property

from ._record import FrozenRecord
from .errors import RangeError

# Distance to a zero, relative to 1 + |zero|, below which evaluation
# switches from the direct rational form to the Taylor form that absorbs
# the vanishing order (local_group), and the number of Taylor terms past
# that order the gram layer sums there (`gram._taylor_weights`, in w for
# a quotient and in conj(z) for a row) on a family whose functions are
# not polynomials; on polynomials its quotients are exact and need no disk.
DESINGULARIZATION_RADIUS_FACTOR = 1e-3
DESINGULARIZATION_TERMS = 8


class ZeroSequence(FrozenRecord):
    """Zeros z_1..z_n, equal values in contiguous runs, with their offsets k_1..k_n.

    The confluence offsets are derived from the points: k_i counts the
    equal entries just before z_i. Equal zeros that are not contiguous
    raise ValueError; :func:`canonicalize` groups them.
    """

    points: tuple[complex, ...]
    confluence: tuple[int, ...]

    def __init__(self, points: tuple[complex, ...]):
        pts = tuple(complex(p) for p in points)
        seen: set[complex] = set()
        conf: list[int] = []
        for idx, p in enumerate(pts):
            if idx > 0 and pts[idx - 1] == p:
                conf.append(conf[-1] + 1)
                continue
            if p in seen:
                raise ValueError("equal zeros must be contiguous; use canonicalize()")
            seen.add(p)
            conf.append(0)
        self._set(pts, tuple(conf))

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _runs(self) -> tuple[tuple[complex, int], ...]:
        """Runs of equal zeros as (value, multiplicity), in order.

        A zero whose modulus is past the double range raises RangeError:
        it has no disk, and no factor (w - z_i) of a closed form divides by it.
        """
        runs = tuple(Counter(self.points).items())
        for v, _ in runs:
            try:
                abs(v)
            except OverflowError:
                raise RangeError(f"the zero {v} has a modulus past the double range") from None
        return runs

    @cached_property
    def _disks(self) -> tuple[tuple[complex, int, float], ...]:
        """Runs of equal zeros as (value, multiplicity, de-singularization radius), in order."""
        return tuple((v, m, DESINGULARIZATION_RADIUS_FACTOR * (1.0 + abs(v))) for v, m in self._runs)

    def local_group(self, w: complex) -> tuple[complex, int] | None:
        """Nearest run whose de-singularization disk contains w, or None.

        This is the one rule for "w is near a zero": the gram layer's
        Taylor routes and the checks' sampling both ask it, and
        `off_disk_product` tests the same disks. A distance past the double
        range is in no disk.
        """
        w = complex(w)
        best: tuple[float, complex, int] | None = None
        for v, count, radius in self._disks:
            try:
                d = abs(w - v)
            except OverflowError:
                continue
            if d <= radius and (best is None or d < best[0]):
                best = (d, v, count)
        return None if best is None else (best[1], best[2])

    def off_disk_product(self, w: complex) -> complex | None:
        """prod (w - z_i) when w lies in no de-singularization disk, else None: the disk test and the product in one pass.

        The disks are `local_group`'s, and the factors `product`'s, in its
        order; each run's w - v is formed once for its m equal factors.
        """
        prod = 1.0 + 0j
        for v, m, radius in self._disks:
            u = w - v
            try:
                if abs(u) <= radius:
                    return None
            except OverflowError:
                pass
            prod *= u
            if m > 1:
                for _ in range(1, m):
                    prod *= u
        return prod

    def product(self, at: complex, exclude_value: complex | None = None) -> complex:
        """prod (at - z_i), optionally skipping the run equal to exclude_value."""
        acc = 1.0 + 0j
        for p in self.points:
            if exclude_value is not None and p == exclude_value:
                continue
            acc *= at - p
        return acc


def canonicalize(points: Iterable[complex]) -> ZeroSequence:
    """Group equal values contiguously, keeping order of first appearance."""
    counts = Counter(complex(p) for p in points)
    return ZeroSequence(tuple(value for value, count in counts.items() for _ in range(count)))

