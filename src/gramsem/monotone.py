"""The arithmetic pregroup of monotone unbounded maps on the integers.

A map ``f`` in this pregroup has a left dual ``min {m : n <= f(m)}`` and a
right dual ``max {m : f(m) <= n}``, each forming a Galois connection with
``f``.  The left dual is computed by exponential bracketing followed by
binary search, since the maps are given as callables rather than tables;
on the integers ``max {m : f(m) <= n} = min {m : f(m) >= n + 1} - 1``, so
the right dual is ``f^l(n + 1) - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "MonotoneMap",
    "SearchRadiusError",
    "monotone_left_dual",
    "monotone_right_dual",
    "galois_check",
]

DEFAULT_RADIUS = 2 ** 40


class SearchRadiusError(RuntimeError):
    """No bracket found within the search radius; the map is probably not
    unbounded (or the radius is too small for this argument)."""


@dataclass(frozen=True)
class MonotoneMap:
    """A total map Z -> Z, assumed monotone and unbounded.

    Both assumptions are spot-checked at construction: monotonicity on
    every consecutive pair in ``probe_window``, unboundedness by requiring
    the values to move past f(0) in both directions within the window
    endpoints doubled out to the search radius.
    """

    fn: Callable[[int], int]
    probe_window: tuple[int, int] = (-32, 32)
    name: str = "f"
    radius: int = field(default=DEFAULT_RADIUS)

    def __post_init__(self):
        lo, hi = self.probe_window
        if lo > hi:
            raise ValueError(f"empty probe window {self.probe_window}")
        prev = self.fn(lo)
        for n in range(lo + 1, hi + 1):
            cur = self.fn(n)
            if cur < prev:
                raise ValueError(
                    f"{self.name} is not monotone: f({n - 1}) = {prev} > "
                    f"f({n}) = {cur}")
            prev = cur
        anchor = self.fn(0)
        for sign in (+1, -1):
            step = 1
            while True:
                v = self.fn(sign * step)
                if (v - anchor) * sign >= 1:
                    break
                step *= 2
                if step > self.radius:
                    raise ValueError(
                        f"{self.name} looks bounded {'above' if sign > 0 else 'below'}"
                        f" within radius {self.radius}")

    def __call__(self, n: int) -> int:
        return self.fn(n)


def _bracket_min_ge(f: MonotoneMap, n: int) -> tuple[int, int]:
    """Find lo < hi with f(lo) < n <= f(hi), stepping out from 0 by
    doubling distances: downward while f stays >= n when f(0) >= n,
    upward while it stays < n otherwise."""
    down = f(0) >= n
    near, step = 0, 1
    while True:
        far = -step if down else step
        if (f(far) < n) == down:
            return min(near, far), max(near, far)
        if step > f.radius:
            raise SearchRadiusError(
                f"no m with f(m) {'<' if down else '>='} {n} "
                f"within radius {f.radius}")
        near, step = far, step * 2


def monotone_left_dual(f: MonotoneMap, n: int) -> int:
    """``f^l(n) = min {m : n <= f(m)}``.

    >>> double = MonotoneMap(lambda m: 2 * m, name="double")
    >>> monotone_left_dual(double, 4), monotone_left_dual(double, 5)
    (2, 3)
    """
    lo, hi = _bracket_min_ge(f, n)
    # invariant: f(lo) < n <= f(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) >= n:
            hi = mid
        else:
            lo = mid
    return hi


def monotone_right_dual(f: MonotoneMap, n: int) -> int:
    """``f^r(n) = max {m : f(m) <= n}``, which on the integers is
    ``min {m : f(m) >= n + 1} - 1 = f^l(n + 1) - 1``.

    >>> double = MonotoneMap(lambda m: 2 * m, name="double")
    >>> monotone_right_dual(double, 4), monotone_right_dual(double, 5)
    (2, 2)
    """
    return monotone_left_dual(f, n + 1) - 1


def galois_check(f: MonotoneMap, window: tuple[int, int]) -> bool:
    """Exhaustively verify both adjunction biconditionals on the window:
    ``f^l(n) <= m  iff  n <= f(m)`` and ``f(n) <= m  iff  n <= f^r(m)``.
    """
    lo, hi = window
    ns = range(lo, hi + 1)
    fl = {n: monotone_left_dual(f, n) for n in ns}
    fr = {n: monotone_right_dual(f, n) for n in ns}
    fv = {n: f(n) for n in ns}
    for n in ns:
        for m in ns:
            if (fl[n] <= m) != (n <= fv[m]):
                return False
            if (fv[n] <= m) != (n <= fr[m]):
                return False
    return True
