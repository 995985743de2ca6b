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
from collections.abc import Callable, Iterable
from functools import cached_property

from ._record import FrozenRecord
from .errors import PoleError, RangeError

# Distance to a zero, relative to 1 + |zero|, below which evaluation
# switches from the direct rational form to the Taylor form that absorbs
# the vanishing order (local_group), and the number of Taylor terms past
# that order the gram layer sums there (`gram._taylor_terms`, in w for
# Remainder and in conj(z) for kernel_row) on a family whose functions are
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
        Taylor routes and the checks' sampling both ask it. A distance past
        the double range is in no disk.
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

    def product(self, at: complex, exclude_value: complex | None = None) -> complex:
        """prod (at - z_i), optionally skipping the run equal to exclude_value."""
        acc = 1.0 + 0j
        for p in self.points:
            if exclude_value is not None and p == exclude_value:
                continue
            acc *= at - p
        return acc

    def gamma(self, z: complex) -> complex:
        """The rational factor prod 1/(z - z_i); a pole on the sequence raises."""
        z = complex(z)
        if any(z == p for p in self.points):
            raise PoleError(f"gamma has a pole at {z}; use the de-singularized routes")
        return 1.0 / self.product(z)


def canonicalize(points: Iterable[complex]) -> ZeroSequence:
    """Group equal values contiguously, keeping order of first appearance."""
    counts = Counter(complex(p) for p in points)
    return ZeroSequence(tuple(value for value, count in counts.items() for _ in range(count)))


def bracket(f: Callable[..., complex], zs: ZeroSequence, i: int) -> complex:
    """The functional f -> f^(k_i)(z_i) for the i-th entry (0-based).

    `f` is called as f(point, order); bound methods like
    StructureFunction.eval_E fit directly.
    """
    return f(zs.points[i], zs.confluence[i])
