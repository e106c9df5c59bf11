"""Free pregroup types and planar counit reduction search.

Compound types are sequences of basic grammar types decorated with an
integer adjoint exponent (``n^l`` is ``-1``, ``n^r`` is ``+1``, repeated
letters iterate).  The parser keeps each token it has parsed, with its
simple type and its ``(base name, adjoint)`` pair, in a bounded private
table, so a text of known tokens costs one lookup per token.  A compound
type is immutable and keeps its text and its key, those pairs, once
computed; the key is what a search's chart is kept by.
A reduction from one compound type to another is a sorted tuple of
non-crossing "cups", ``(i, j)`` position pairs, each cancelling an
adjacent-after-inner-removal pair ``x . x^r`` or ``x^l . x``.
The search fills two tables of counts (the counting semiring over
pregroup spans) in one loop over the source, right to left: for each
position, the spans from it that reduce to the unit, and its number of
reductions to each suffix of the target with the moves that lead to one.
The tables depend only on the types, so they are filled once per
(simples, target) and kept in a bounded private table.
One loop with an explicit stack then walks those tables depth first in
canonical order, only reading them.
:func:`iter_reductions` yields the reductions lazily;
:func:`enumerate_reductions` lists a prefix of them.
Public constructors validate everything; search-built diagrams are
trusted, and are re-checked by tests and by :mod:`gramsem.oracle`.

>>> src = parse_type_expr("n n^r s n^l n")
>>> [d.cups for d in enumerate_reductions(src, parse_type_expr("s"))]
[((0, 1), (3, 4))]
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

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
    "iter_reductions",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_TOKEN_RE = re.compile(r"\S+")
_SIMPLE_RE = re.compile(rf"({_NAME_RE.pattern})(\^[lr]*)?")


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
    """An element of the free pregroup: an immutable sequence of simple
    types.  The empty sequence is the monoid unit.

    >>> t = parse_type_expr("n^r s n^l")
    >>> len(t), str(t), t.key
    (3, 'n^r s n^l', (('n', 1), ('s', 0), ('n', -1)))
    >>> str(CompoundType() + t) == str(t)
    True
    """

    # the text and the key are None until first used, unless the parser
    # gave the key
    __slots__ = ("simples", "_text", "_key")

    def __init__(self, simples: Iterable[SimpleType] = ()):
        simples = tuple(simples)
        for t in simples:
            if not isinstance(t, SimpleType):
                raise TypeError(f"expected SimpleType, got {t!r}")
        self._init(simples, None)

    def _init(self, simples, key):
        object.__setattr__(self, "simples", simples)
        object.__setattr__(self, "_text", None)
        object.__setattr__(self, "_key", key)

    @classmethod
    def _trusted(cls, simples, key=None) -> "CompoundType":
        """Unchecked: ``simples`` a tuple of SimpleType, ``key`` their
        :attr:`key` or None."""
        ct = object.__new__(cls)
        ct._init(simples, key)
        return ct

    def __setattr__(self, name, value):
        raise AttributeError("CompoundType is immutable")

    def __reduce__(self):
        return CompoundType, (self.simples,)

    @property
    def key(self) -> tuple[tuple[str, int], ...]:
        """The simples as ``(base name, adjoint)`` pairs: a search's chart key."""
        if self._key is None:
            object.__setattr__(self, "_key", tuple([
                (t.base.name, t.adjoint) for t in self.simples]))
        return self._key

    def __len__(self):
        return len(self.simples)

    def __iter__(self) -> Iterator[SimpleType]:
        return iter(self.simples)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return CompoundType._trusted(self.simples[key])
        return self.simples[key]

    def __add__(self, other: "CompoundType") -> "CompoundType":
        return CompoundType._trusted(self.simples + other.simples)

    def __eq__(self, other):
        return isinstance(other, CompoundType) and self.simples == other.simples

    def __hash__(self):
        return hash(self.simples)

    def __bool__(self):
        return bool(self.simples)

    def __str__(self):
        if self._text is None:
            object.__setattr__(self, "_text", " ".join([
                str(t) for t in self.simples]))
        return self._text

    def __repr__(self):
        return f"CompoundType({str(self)!r})"


# Each token parsed so far, as its SimpleType and its (base name, adjoint)
# pair.  Only tokens that parse are kept.  The table holds at most
# _TOKEN_BOUND characters of tokens; an insert that would pass it clears
# the table, and a longer token is not kept.
_TOKEN_BOUND = 2 ** 12
_tokens = {}
_token_chars = 0


def _token(text, match):
    """The ``(SimpleType, (name, adjoint))`` of the token ``match`` of
    ``text``: from the table when kept, else parsed and kept."""
    global _token_chars
    word = match.group()
    parsed = _tokens.get(word)
    if parsed is not None:
        return parsed
    m = _SIMPLE_RE.match(word)
    if m is None:
        raise TypeSyntaxError(
            f"expected type name, found {word[0]!r}", text, match.start())
    name, adjoint = m.group(1), m.group(2) or ""
    stop = match.start() + m.end()
    if stop < match.end():
        raise TypeSyntaxError(
            f"bad adjoint letter {text[stop]!r}" if adjoint else
            f"unexpected character {text[stop]!r} after type name",
            text, stop)
    if adjoint == "^":
        raise TypeSyntaxError("dangling '^' expects 'l' or 'r'", text, stop - 1)
    z = adjoint.count("r") - adjoint.count("l")
    parsed = SimpleType(BasicType(name), z), (name, z)
    if len(word) <= _TOKEN_BOUND:
        if _token_chars + len(word) > _TOKEN_BOUND:
            _tokens.clear()
            _token_chars = 0
        _tokens[word] = parsed
        _token_chars += len(word)
    return parsed


def parse_type_expr(text: str) -> CompoundType:
    """Parse the concrete syntax ``NAME('^'('l'|'r')+)?`` separated by
    whitespace (any character for which ``str.isspace()`` is true); outer
    whitespace is ignored and blank text is the unit.  Repeated adjoint
    letters iterate, net exponent = (#r - #l).

    >>> parse_type_expr("n n^l")
    CompoundType('n n^l')
    >>> parse_type_expr("n^ll")[0].adjoint
    -2

    Raises :class:`TypeSyntaxError` with a 0-based position on malformed input.

    Each token that parsed is kept in a bounded private table with its
    simple type and key pair, so a text made of kept tokens costs one
    lookup per token.  A text with a new token is checked token by token,
    in order.  Whole texts are not kept.
    """
    try:
        parsed = [_tokens[word] for word in text.split()]
    except (KeyError, AttributeError):  # a new token, or text is not a str
        parsed = [_token(text, m) for m in _TOKEN_RE.finditer(text)]
    return CompoundType._trusted(tuple([p[0] for p in parsed]),
                                 tuple([p[1] for p in parsed]))


class Cup(NamedTuple):
    """One counit application pairing positions ``left_pos < right_pos``
    of a compound type; it prints and compares as the pair ``(i, j)``."""

    left_pos: int
    right_pos: int

    __repr__ = tuple.__repr__


def check_planar(n: int, partner: dict[int, int]) -> None:
    """Raise ``ValueError`` unless the pairs over ``range(n)``, each end
    mapped to the other in ``partner``, cross nowhere and leave no wire
    under a pair unpaired: the rule for diagram cups and plan pairs alike."""
    around = []  # one pass left to right: left ends of the pairs over p
    for p in range(n):
        q = partner.get(p, p)
        if q > p:
            around.append(p)
        elif q < p:
            i = around.pop()
            if i != q:
                raise ValueError(f"cups ({q}, {p}) and ({i}, {partner[i]}) cross")
        elif around:
            raise ValueError(f"wire {p} is trapped under cup "
                             f"({around[-1]}, {partner[around[-1]]})")


@dataclass(frozen=True)
class ReductionDiagram:
    """A planar set of cups over ``source`` witnessing a reduction to the
    residual of unmatched wires.  ``cups`` may be given as any iterable of
    ``(i, j)`` pairs and is kept as their sorted tuple of :class:`Cup`.

    Validity means: cups lie in range with ``i < j``, are pairwise
    disjoint and non-crossing, every wire under a cup is itself matched by
    a nested cup, and each cup is a counit redex against ``source``.
    """

    source: CompoundType
    cups: tuple[Cup, ...] = ()

    def __post_init__(self):
        cups = tuple(sorted(map(Cup._make, self.cups)))
        object.__setattr__(self, "cups", cups)
        simples = self.source.simples
        n = len(simples)
        partner = {}
        for i, j in cups:
            if not 0 <= i < j < n:
                raise ValueError(f"cup {(i, j)} out of range for length {n}")
            if i in partner or j in partner:
                raise ValueError(f"cup positions overlap at {(i, j)}")
            partner[i], partner[j] = j, i
            if not can_contract(simples[i], simples[j]):
                raise ValueError(
                    f"cup {(i, j)} is not a counit redex: "
                    f"{simples[i]} . {simples[j]}")
        check_planar(n, partner)

    @classmethod
    def _trusted(cls, source, cups) -> "ReductionDiagram":
        """Unchecked: ``cups`` already a sorted tuple of planar redex Cups."""
        d = object.__new__(cls)
        d.__dict__.update(source=source, cups=cups)
        return d

    @property
    def residual(self) -> CompoundType:
        """Unmatched positions of the source, in original order."""
        matched = {p for c in self.cups for p in c}
        return CompoundType(
            t for p, t in enumerate(self.source) if p not in matched)

    def __str__(self):
        cups = ", ".join(f"({i}, {j})" for i, j in self.cups) or "none"
        return f"{self.source} --[{cups}]--> {self.residual}"


# Filled charts by (simples, target) key: a chart depends only on the
# types, so a repeated search skips the fill.  The table holds at most
# _CHART_BOUND entries of closed and reach (about 60 B each); an insert
# that would pass it clears the table, and a larger chart is not kept.
# A live walk holds its own chart, so clearing never disturbs it.
_CHART_BOUND = 2 ** 16
_charts = {}
_chart_entries = 0


def _chart(src_key, tgt_key):
    """The tables of a search from the simples ``src_key`` to ``tgt_key``,
    each a tuple of ``(base name, adjoint)``: ``(closed, reach, steps,
    redexes_at, listed)``, from the table when kept, else filled."""
    global _chart_entries
    chart = _charts.get((src_key, tgt_key))
    if chart is not None:
        return chart
    n, m = len(src_key), len(tgt_key)
    src = src_key + (None,)  # a sentinel: closed[lo + 1] may end at n
    tgt = tgt_key
    closed = [None] * n + [{n: 1}]  # the empty span closes once
    reach = [None] * n + [(0,) * m + (1,)]
    # steps[lo][t]: reach[lo][t]'s moves with a reduction after them, in
    # order: cups (lo, q) as plain tuples, then None if lo stays a residual
    # wire
    steps = [None] * n
    # redexes_at[lo]: ascending, (q, count) for each cup (lo, q) whose
    # inside closes
    redexes_at = [None] * n
    partner_of = [(name, z + 1) for name, z in src_key]
    for lo in range(n - 1, -1, -1):
        spans = closed[lo] = {lo: 1}
        redexes = []
        for q, c in closed[lo + 1].items():
            if src[q] == partner_of[lo]:
                redexes.append((q, c))
                for hi, d in closed[q + 1].items():
                    spans[hi] = spans.get(hi, 0) + c * d
        redexes.sort()
        counts = [0] * (m + 1)
        counts[m] = spans.get(n, 0)
        row = [None] * m
        # the t with tgt[t:] no longer than src[lo:], an even difference, and
        # no more target wires than lo has passed
        for t in range(lo + m - n if lo + m > n else lo % 2,
                       lo + 1 if lo < m else m, 2):
            moves = []
            total = 0
            for q, c in redexes:
                d = reach[q + 1][t]
                if d:
                    total += c * d
                    moves.append((lo, q))
            if src[lo] == tgt[t]:
                d = reach[lo + 1][t + 1]
                if d:
                    total += d
                    moves.append(None)
            counts[t] = total
            row[t] = tuple(moves)
        # rows are kept as tuples of ints (a Cup would stay tracked), which
        # the cyclic GC stops tracking
        redexes_at[lo], reach[lo], steps[lo] = (
            tuple(redexes), tuple(counts), tuple(row))
    # listed[(lo, hi)]: a closed span's cups, plain tuples too, listed on a
    # walk's first visit
    chart = (closed, reach, steps, redexes_at, {})
    entries = sum(map(len, closed)) + (n + 1) * (m + 1)
    if entries <= _CHART_BOUND:
        if _chart_entries + entries > _CHART_BOUND:
            _charts.clear()
            _chart_entries = 0
        _charts[src_key, tgt_key] = chart
        _chart_entries += entries
    return chart


def iter_reductions(source: CompoundType,
                    target: CompoundType) -> Iterator[ReductionDiagram]:
    """Yield the planar reductions of ``source`` whose residual equals
    ``target`` one at a time, lexicographically by their cups.

    The search is exhaustive; an unreducible pair yields nothing.  One
    loop over the source, right to left, fills two tables of counts:
    ``closed[lo]`` maps each ``hi`` with a reduction of ``src[lo:hi]``
    to the unit to their number, and ``reach[lo][t]`` counts the
    reductions of ``src[lo:]`` to ``tgt[t:]``, listing the moves that
    lead to one.  No other span occurs: a residual wire keeps the span's
    end, and only a cup's inside, a closed span, changes it.  Each
    entry's parts start right of ``lo``, so nothing recurses.  The tables
    depend only on the simples and the target, so they are filled once
    per (simples, target) and kept in a bounded private table; a chart
    larger than the whole bound is filled afresh on every call.  One loop
    then walks the tables depth first in the canonical order and only
    reads them: each span takes its first move and keeps a choice point
    on an explicit stack when it has another.  Reductions are never
    sorted, so the first ``k`` cost ``k`` paths plus the tables, and a
    caller that stops early stops the walk.
    """
    n, m = len(source), len(target)
    if (n - m) % 2 != 0 or n < m:
        return
    closed, reach, steps, redexes_at, listed = _chart(source.key, target.key)
    if not reach[0][0]:
        return
    cups: list[Cup] = []  # the preorder walk appends them in sorted order
    made = {}  # (lo, q) -> its Cup, built once per walk
    # choice points, latest last: (moves, index of the next one, lo, hi, t,
    # rest, len(cups))
    choices = []
    span = (0, n, 0, None)  # spans left to fill: (lo, hi, t, rest), linked
    while True:
        if span is not None:  # take the span's first move
            lo, hi, t, rest = span
            if hi - lo <= m - t:  # no room for a cup: all residual
                span = rest
                continue
            moves = steps[lo][t] if t < m else listed.get((lo, hi))
            if moves is None:
                moves = listed[lo, hi] = tuple([
                    (lo, q) for q, _ in redexes_at[lo]
                    if q < hi and hi in closed[q + 1]])
            move = moves[0]
            if len(moves) > 1:
                choices.append((moves, 1, lo, hi, t, rest, len(cups)))
        else:  # every span filled: one reduction; backtrack for the next
            yield ReductionDiagram._trusted(source, tuple(cups))
            if not choices:
                return
            moves, i, lo, hi, t, rest, k = choices.pop()
            if i + 1 < len(moves):
                choices.append((moves, i + 1, lo, hi, t, rest, k))
            del cups[k:]
            move = moves[i]
        if move is None:  # lo is a residual wire
            span = (lo + 1, hi, t + 1, rest)
        else:  # a cup
            cup = made.get(move)
            if cup is None:
                cup = made[move] = Cup(*move)
            cups.append(cup)
            q = move[1]
            span = (q + 1, hi, t, rest)
            if q > lo + 1:
                span = (lo + 1, q, m, span)


def enumerate_reductions(source: CompoundType,
                         target: CompoundType,
                         limit: int | None = None) -> list[ReductionDiagram]:
    """The first ``limit`` (>= 1 when given, else all) reductions of
    :func:`iter_reductions`, as a list.

    >>> src = parse_type_expr("n n^l n n^l n")
    >>> [d.cups for d in enumerate_reductions(src, src[2:], limit=1)]
    [((1, 2),)]
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return list(islice(iter_reductions(source, target), limit))
