"""The strong monoidal functor from grammar types to tensor spaces.

Basic types map to spaces, duals collapse onto the same space, compound
types map to tensor products, and a reduction diagram maps to the
contraction plan that pairs exactly its cup positions.  Composing the two
sides gives the sentence-meaning pipeline: the word states' tensor
product contracted along a chosen reduction.  It is evaluated word by
word (:func:`gramsem.linalg.contract_states`), so the full product of the
word states is never built; the residual tensor is read off at the end.
Both entry points read one lazy stream of parses.

An assignment, the object part, is any mapping from basic type name to
space; :func:`spaces_of` is the only map from types to spaces.  It is
checked against the word states once, where they are contracted: a plan
whose spaces differ from the states' raises ``ValueError`` there.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .linalg import ContractionPlan, Tensor, VectorSpace, contract_states
from .pregroup import (CompoundType, ReductionDiagram, iter_reductions,
                       parse_type_expr)

__all__ = [
    "LexiconEntry",
    "SentenceAnalysis",
    "UnassignedTypeError",
    "UnknownWordError",
    "NoParseError",
    "spaces_of",
    "lift_reduction",
    "identity_verb",
    "enumerate_analyses",
    "sentence_meaning",
    "preller_obstruction",
    "PrellerWitness",
]


class UnassignedTypeError(KeyError):
    """A basic type has no space assigned."""

    def __init__(self, name):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return f"no space assigned to basic type {self.name!r}"


class UnknownWordError(KeyError):
    """A sentence word is missing from the lexicon."""

    def __init__(self, word):
        super().__init__(word)
        self.word = word

    def __str__(self):
        return f"unknown word {self.word!r}"


class NoParseError(ValueError):
    """No reduction from the concatenated word types to the target."""


def spaces_of(assignment: Mapping[str, VectorSpace],
              ct: CompoundType) -> tuple[VectorSpace, ...]:
    """Image of a compound type: one space per simple, in order.  The
    adjoint exponent is ignored because the fixed basis identifies each
    space with its dual."""
    # a list, not a generator: this runs for every entry of a loaded
    # lexicon, and a generator per call raised the load's peak RSS
    try:
        return tuple([assignment[t.base.name] for t in ct])
    except KeyError as exc:
        raise UnassignedTypeError(exc.args[0]) from None


def lift_reduction(assignment: Mapping[str, VectorSpace],
                   d: ReductionDiagram) -> ContractionPlan:
    """The plan contracting a diagram's cups (unchecked: a cup's two ends
    share a space); counits become index sums, identity wires free indices."""
    return ContractionPlan._trusted(spaces_of(assignment, d.source),
                                    frozenset(d.cups))


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    """One reading of a word: its grammar type plus a state whose indices
    follow the type's simples left to right."""

    word: str
    gtype: CompoundType
    state: Tensor

    def __post_init__(self):
        if self.state.rank != len(self.gtype):
            raise ValueError(
                f"word {self.word!r}: state rank {self.state.rank} != "
                f"type length {len(self.gtype)}")

    @classmethod
    def _trusted(cls, word, gtype, state) -> "LexiconEntry":
        """Unchecked: ``state`` built over ``spaces_of(..., gtype)``."""
        e = object.__new__(cls)
        object.__setattr__(e, "word", word)
        object.__setattr__(e, "gtype", gtype)
        object.__setattr__(e, "state", state)
        return e


@dataclass(frozen=True)
class SentenceAnalysis:
    """One fully resolved parse: the chosen readings, the chosen reduction
    of their concatenated type, and the contracted meaning tensor."""

    words: tuple[LexiconEntry, ...]
    chosen: ReductionDiagram
    meaning: Tensor

    @property
    def concat_type(self) -> CompoundType:
        return self.chosen.source  # the readings' types, concatenated


# a target given as text is parsed once; a bad text raises on every call,
# as lru_cache keeps no exception
_parse_target = lru_cache(maxsize=64)(parse_type_expr)


def _parses(words, lexicon, target: CompoundType):
    """The sentence's (reading combination, reduction) pairs, lazily, in
    the parse order :func:`enumerate_analyses` documents."""
    readings = []
    for w in words:
        entries = lexicon.entries_for(w)
        if not entries:
            raise UnknownWordError(w)
        readings.append(entries)
    for combo in product(*readings):
        concat = CompoundType._trusted(
            tuple([t for e in combo for t in e.gtype.simples]),
            tuple([k for e in combo for k in e.gtype.key]))
        for diagram in iter_reductions(concat, target):
            yield combo, diagram


def _analyse(combo, diagram, assignment) -> SentenceAnalysis:
    meaning = contract_states([e.state for e in combo],
                              lift_reduction(assignment, diagram))
    return SentenceAnalysis(combo, diagram, meaning)


def enumerate_analyses(words, lexicon, assignment: Mapping[str, VectorSpace],
                       target: CompoundType | str = "s") -> list[SentenceAnalysis]:
    """Every parse of the sentence, contracted, in parse order: reading
    combinations vary in lexicon entry order (rightmost word fastest),
    reductions in canonical cup order within each combination.

    Raises :class:`UnknownWordError` for a missing word, and
    ``ValueError`` when ``assignment`` gives a parse other spaces than its
    word states have.  An unparseable sentence yields ``[]``.
    """
    if isinstance(target, str):
        target = _parse_target(target)
    return [_analyse(combo, d, assignment)
            for combo, d in _parses(words, lexicon, target)]


def sentence_meaning(words, lexicon, assignment: Mapping[str, VectorSpace],
                     parse_index: int = 0,
                     target: CompoundType | str = "s") -> SentenceAnalysis:
    """Meaning of a sentence under one chosen parse.

    ``parse_index`` picks from :func:`enumerate_analyses`; sentences with
    homonyms or several reductions expose every alternative there.  The
    parse stream stops at the chosen parse, the only one contracted;
    reductions and reading combinations after it are never searched.

    Raises :class:`UnknownWordError`, :class:`NoParseError`,
    :class:`IndexError` when the parse index exceeds the parse count, or
    ``ValueError`` when ``assignment`` disagrees with the chosen parse's
    word states.
    """
    if isinstance(target, str):
        target = _parse_target(target)
    if parse_index < 0:
        raise IndexError(f"parse_index must be >= 0, got {parse_index}")
    total = 0
    for combo, d in _parses(words, lexicon, target):
        if total == parse_index:
            return _analyse(combo, d, assignment)
        total += 1
    if not total:
        raise NoParseError(
            f"no reduction from the types of {' '.join(words)!r} to "
            f"{str(target) or '1'!r}")
    raise IndexError(
        f"parse_index {parse_index} out of range: sentence has "
        f"{total} parse(s)")


def identity_verb(noun_space: VectorSpace, sentence_space: VectorSpace) -> Tensor:
    """Copula state in N (x) S (x) N with coefficients c_ij = delta_ij;
    the sentence space must be one-dimensional."""
    if sentence_space.dim != 1:
        raise ValueError(
            f"identity verb needs a one-dimensional sentence space, got "
            f"dim {sentence_space.dim}")
    d = noun_space.dim
    return Tensor((noun_space, sentence_space, noun_space),
                  np.eye(d).reshape(d, 1, d))


@dataclass(frozen=True)
class PrellerWitness:
    """Outcome of lifting the poset identity on a a^r a to tensors."""

    dim: int
    is_identity: bool
    zero_witness: tuple[int, int, int] | None


def preller_obstruction(dim: int) -> PrellerWitness:
    """Lift the snake composite on A (x) A (x) A (counit on the first two
    slots, then unit appended) and test it against the identity matrix.

    In the free pregroup the corresponding arrow *is* the identity, but
    its lift annihilates e1 (x) e2 (x) e1 whenever dim >= 2, so only
    one-dimensional semantics can be faithful.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    space = VectorSpace("a", dim)
    eta = Tensor((space, space), np.eye(dim))
    size = dim ** 3
    # every basis state of A (x) A (x) A at once: three spare wires naming
    # the column, then the three wires the composite acts on
    inputs = Tensor((space,) * 6, np.eye(size))
    plan = ContractionPlan((space,) * 8, frozenset({(3, 4)}))
    lifted = contract_states((inputs, eta), plan).array.reshape(size, size).T
    is_identity = bool(np.array_equal(lifted, np.eye(size)))
    witness = None
    if dim >= 2:
        # column of e1 (x) e2 (x) e1, i.e. multi-index (0, 1, 0)
        col_idx = 0 * dim * dim + 1 * dim + 0
        if np.array_equal(lifted[:, col_idx], np.zeros(size)):
            witness = (0, 1, 0)
    return PrellerWitness(dim=dim, is_identity=is_identity, zero_witness=witness)
