"""Free pregroup types and planar counit reduction search.

Compound types are sequences of basic grammar types decorated with an
integer adjoint exponent (``n^l`` is ``-1``, ``n^r`` is ``+1``, repeated
letters iterate).  A reduction from one compound type to another is a set
of non-crossing "cups", each cancelling an adjacent-after-inner-removal
pair ``x . x^r`` or ``x^l . x``.  The search first counts the reductions
of each span (the counting semiring over cubic pregroup spans), then
generates them in canonical order, entering no span that holds none.

>>> src = parse_type_expr("n n^r s n^l n")
>>> [d.sorted_cups for d in enumerate_reductions(src, parse_type_expr("s"))]
[((0, 1), (3, 4))]
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

__all__ = [
    "BasicType",
    "SimpleType",
    "CompoundType",
    "Cup",
    "ReductionDiagram",
    "TypeSyntaxError",
    "parse_type_expr",
    "adjoint_of",
    "can_contract",
    "enumerate_reductions",
    "residual_of",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class TypeSyntaxError(ValueError):
    """Malformed type expression.  ``position`` is a 0-based offset into
    the original text."""

    def __init__(self, message, text, position):
        super().__init__(f"{message} at position {position}")
        self.text = text
        self.position = position


@dataclass(frozen=True, order=True)
class BasicType:
    """A generator of the free pregroup, e.g. ``n`` (noun) or ``s`` (sentence)."""

    name: str

    def __post_init__(self):
        if not self.name or not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid basic type name: {self.name!r}")

    def __str__(self):
        return self.name


@dataclass(frozen=True, order=True)
class SimpleType:
    """A basic type with an iterated adjoint: exponent 0 is the plain type,
    -1 the left dual, +1 the right dual, +-k their iterates.

    >>> t = SimpleType(BasicType("n"), -1)
    >>> print(t)
    n^l
    >>> adjoint_of(t, "right") == SimpleType(BasicType("n"))
    True
    """

    base: BasicType
    adjoint: int = 0

    def __str__(self):
        z = self.adjoint
        if z == 0:
            return self.base.name
        return self.base.name + "^" + ("l" * -z if z < 0 else "r" * z)


def adjoint_of(t: SimpleType, side: str) -> SimpleType:
    """Left or right dual of a simple type; the two are mutually inverse."""
    if side == "left":
        return SimpleType(t.base, t.adjoint - 1)
    if side == "right":
        return SimpleType(t.base, t.adjoint + 1)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def can_contract(a: SimpleType, b: SimpleType) -> bool:
    """True iff the adjacent pair ``a b`` is a counit redex.

    Covers both counits at once: ``x^l x`` (left) and ``x x^r`` (right)
    are the cases ``b.adjoint == a.adjoint + 1`` over the same base.
    """
    return a.base == b.base and b.adjoint == a.adjoint + 1


class CompoundType:
    """An element of the free pregroup: an ordered sequence of simple types.
    The empty sequence is the monoid unit.

    >>> t = parse_type_expr("n^r s n^l")
    >>> len(t), str(t)
    (3, 'n^r s n^l')
    >>> str(CompoundType() + t) == str(t)
    True
    """

    __slots__ = ("simples",)

    def __init__(self, simples: Iterable[SimpleType] = ()):
        simples = tuple(simples)
        for t in simples:
            if not isinstance(t, SimpleType):
                raise TypeError(f"expected SimpleType, got {t!r}")
        object.__setattr__(self, "simples", simples)

    def __len__(self):
        return len(self.simples)

    def __iter__(self) -> Iterator[SimpleType]:
        return iter(self.simples)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return CompoundType(self.simples[key])
        return self.simples[key]

    def __add__(self, other: "CompoundType") -> "CompoundType":
        return CompoundType(self.simples + other.simples)

    def __eq__(self, other):
        return isinstance(other, CompoundType) and self.simples == other.simples

    def __hash__(self):
        return hash(self.simples)

    def __bool__(self):
        return bool(self.simples)

    def __str__(self):
        return " ".join(str(t) for t in self.simples)

    def __repr__(self):
        return f"CompoundType({str(self)!r})"


def parse_type_expr(text: str) -> CompoundType:
    """Parse the concrete syntax ``NAME('^'('l'|'r')+)?`` separated by
    whitespace; empty text is the unit.  Repeated adjoint letters iterate,
    net exponent = (#r - #l).

    >>> parse_type_expr("n n^l")
    CompoundType('n n^l')
    >>> parse_type_expr("n^ll")[0].adjoint
    -2

    Raises :class:`TypeSyntaxError` with a position on malformed input.
    """
    simples = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _NAME_RE.match(text, pos)
        if m is None:
            raise TypeSyntaxError(
                f"expected type name, found {text[pos]!r}", text, pos)
        name = m.group(0)
        pos = m.end()
        z = 0
        if pos < n and text[pos] == "^":
            caret = pos
            pos += 1
            if pos >= n or text[pos].isspace():
                raise TypeSyntaxError("dangling '^' expects 'l' or 'r'", text, caret)
            while pos < n and not text[pos].isspace():
                if text[pos] == "l":
                    z -= 1
                elif text[pos] == "r":
                    z += 1
                else:
                    raise TypeSyntaxError(
                        f"bad adjoint letter {text[pos]!r}", text, pos)
                pos += 1
        elif pos < n and not text[pos].isspace():
            raise TypeSyntaxError(
                f"unexpected character {text[pos]!r} after type name", text, pos)
        simples.append(SimpleType(BasicType(name), z))
    return CompoundType(simples)


@dataclass(frozen=True, order=True)
class Cup:
    """One counit application pairing positions ``left_pos < right_pos``
    of a compound type."""

    left_pos: int
    right_pos: int

    def __post_init__(self):
        if not 0 <= self.left_pos < self.right_pos:
            raise ValueError(
                f"cup positions must satisfy 0 <= i < j, got "
                f"({self.left_pos}, {self.right_pos})")

    def as_pair(self) -> tuple[int, int]:
        return (self.left_pos, self.right_pos)


@dataclass(frozen=True)
class ReductionDiagram:
    """A planar set of cups over ``source`` witnessing a reduction to the
    residual of unmatched wires.

    Validity means: cups pairwise disjoint, non-crossing, every wire under
    a cup is itself matched by a nested cup, and each cup is a counit
    redex against ``source``.
    """

    source: CompoundType
    cups: frozenset[Cup] = field(default_factory=frozenset)

    def __post_init__(self):
        cups = frozenset(
            c if isinstance(c, Cup) else Cup(*c) for c in self.cups)
        object.__setattr__(self, "cups", cups)
        simples = self.source.simples
        n = len(simples)
        partner = {}
        for c in cups:
            i, j = c.left_pos, c.right_pos
            if j >= n:
                raise ValueError(f"cup {(i, j)} out of range for length {n}")
            if i in partner or j in partner:
                raise ValueError(f"cup positions overlap at {(i, j)}")
            partner[i], partner[j] = j, i
            if not can_contract(simples[i], simples[j]):
                raise ValueError(
                    f"cup {(i, j)} is not a counit redex: "
                    f"{simples[i]} . {simples[j]}")
        # one pass left to right; ``around``: left ends of the cups over p
        around = []
        for p in range(n):
            q = partner.get(p)
            if q is None:
                if around:
                    raise ValueError(f"wire {p} is trapped under cup "
                                     f"({around[-1]}, {partner[around[-1]]})")
            elif q > p:
                around.append(p)
            else:
                i = around.pop()
                if i != q:
                    raise ValueError(
                        f"cups ({q}, {p}) and ({i}, {partner[i]}) cross")

    @property
    def sorted_cups(self) -> tuple[tuple[int, int], ...]:
        """Cups as sorted (i, j) pairs; the canonical ordering key."""
        return tuple(sorted(c.as_pair() for c in self.cups))

    @property
    def residual(self) -> CompoundType:
        return residual_of(self)

    def __str__(self):
        cups = ", ".join(f"({i}, {j})" for i, j in self.sorted_cups) or "none"
        return f"{self.source} --[{cups}]--> {self.residual}"


def residual_of(d: ReductionDiagram) -> CompoundType:
    """Unmatched positions of the source, in original order."""
    matched = {p for c in d.cups for p in c.as_pair()}
    return CompoundType(
        t for p, t in enumerate(d.source) if p not in matched)


def enumerate_reductions(source: CompoundType,
                         target: CompoundType,
                         limit: int | None = None) -> list[ReductionDiagram]:
    """All planar reductions of ``source`` whose residual equals ``target``,
    sorted lexicographically by their sorted cup pairs.

    The search is exhaustive; an unreducible pair yields ``[]``.  Memoised
    span counts steer it past every branch that holds no reduction, and
    reductions come out in that order, never sorted, so ``limit`` (>= 1
    when given) costs ``limit`` paths plus the chart of counts.

    >>> one = enumerate_reductions(parse_type_expr("n n^l n"), parse_type_expr("n"))
    >>> [d.sorted_cups for d in one]
    [((1, 2),)]
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    n, m = len(source), len(target)
    if (n - m) % 2 != 0 or n < m:
        return []
    src = [(t.base.name, t.adjoint) for t in source]
    tgt = [(t.base.name, t.adjoint) for t in target]

    # Redex table: for each p, ascending, the q > p an odd distance away
    # (so the wires between can pair off) that :func:`can_contract` with p.
    at = {}
    for q, (name, z) in enumerate(src):
        at.setdefault((name, z, q % 2), []).append(q)
    partners = []
    for p, (name, z) in enumerate(src):
        qs = at.get((name, z + 1, 1 - p % 2), [])
        partners.append(qs[bisect_right(qs, p):])

    closed_memo, suffix_memo = {}, {}  # keyed lo * (n + 1) + hi

    def closed(lo: int, hi: int) -> int:
        """Number of complete matchings of ``src[lo:hi]``."""
        if lo == hi:
            return 1
        key = lo * (n + 1) + hi
        count = closed_memo.get(key)
        if count is None:
            count = 0
            for q in partners[lo]:
                if q >= hi:
                    break
                inner = closed(lo + 1, q)
                count += inner and inner * closed(q + 1, hi)
            closed_memo[key] = count
        return count

    def suffix(pos: int, t: int) -> int:
        """Number of reductions of ``src[pos:]`` to ``tgt[t:]``."""
        room = (n - pos) - (m - t)  # source simples left for cups
        if room <= 0:
            return int(room == 0 and src[pos:] == tgt[t:])
        key = pos * (n + 1) + t
        count = suffix_memo.get(key)
        if count is None:
            count = (suffix(pos + 1, t + 1)
                     if t < m and src[pos] == tgt[t] else 0)
            for q in partners[pos]:
                inner = closed(pos + 1, q)
                count += inner and inner * suffix(q + 1, t)
            suffix_memo[key] = count
        return count

    cups: list[tuple[int, int]] = []

    def span(lo: int, hi: int):
        """Fill ``src[lo:hi]`` with cups, once per complete matching."""
        if lo == hi:
            yield
            return
        for q in partners[lo]:
            if q >= hi:
                break
            if closed(lo + 1, q) and closed(q + 1, hi):
                cups.append((lo, q))
                for _ in span(lo + 1, q):
                    yield from span(q + 1, hi)
                cups.pop()

    def walk(pos: int, t: int):
        """Yield ``cups`` plus each reduction of ``src[pos:]`` to ``tgt[t:]``;
        a cup at ``pos`` sorts before leaving ``pos`` a residual wire."""
        while n - pos > m - t:
            for q in partners[pos]:
                if closed(pos + 1, q) and suffix(q + 1, t):
                    cups.append((pos, q))
                    for _ in span(pos + 1, q):
                        yield from walk(q + 1, t)
                    cups.pop()
            if not (t < m and src[pos] == tgt[t] and suffix(pos + 1, t + 1)):
                return
            pos, t = pos + 1, t + 1  # pos is a residual wire
        if src[pos:] == tgt[t:]:  # no room for a cup: the rest is residual
            yield tuple(cups)

    return [ReductionDiagram(source, found)
            for found in islice(walk(0, 0), limit)]
