"""Brute-force reference implementations used to cross-check the fast paths.

Everything here trades speed for obviousness: reductions are found by
enumerating *all* partial matchings of wire positions and filtering them
against the validity rules written out verbatim, and meanings are evaluated
by looping over every index assignment of the word-state product.  None
of these references calls the search code in :mod:`gramsem.pregroup` or
the contraction fold in :mod:`gramsem.linalg`; only the two comparison
functions do: :func:`reduction_disagreement` checks the reduction search
against the matchings, and :func:`contraction_disagreement` checks the
contraction engine and the meaning pipeline against the index sums.
"""

from __future__ import annotations

from itertools import product

from .functor import enumerate_analyses, lift_reduction
from .linalg import contract_states
from .pregroup import (BasicType, CompoundType, ReductionDiagram, SimpleType,
                       enumerate_reductions)

__all__ = [
    "all_partial_matchings",
    "matching_is_valid",
    "brute_force_contract",
    "reduction_disagreement",
    "contraction_disagreement",
]


def all_partial_matchings(n: int):
    """Yield every partial matching of ``range(n)`` as a sorted tuple of
    (i, j) pairs, i < j.  No structural filtering at all."""

    def rec(free: tuple[int, ...]):
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        # first stays unmatched
        for m in rec(rest):
            yield m
        # or pairs with any later free position
        for k, partner in enumerate(rest):
            for m in rec(rest[:k] + rest[k + 1:]):
                yield ((first, partner),) + m

    for m in rec(tuple(range(n))):
        yield tuple(sorted(m))


def matching_is_valid(source: CompoundType, pairs) -> bool:
    """Check the diagram rules one by one, straight from their statements."""
    # each pair is a counit redex: same base, right exponent = left + 1
    for i, j in pairs:
        if source[i].base != source[j].base:
            return False
        if source[j].adjoint != source[i].adjoint + 1:
            return False
    # planarity: no i < k < j < l
    for i, j in pairs:
        for k, l in pairs:
            if i < k < j < l:
                return False
    # nesting closure: everything strictly under a cup is matched,
    # and matched by a cup lying strictly inside it
    matched = {p for pr in pairs for p in pr}
    for i, j in pairs:
        for p in range(i + 1, j):
            if p not in matched:
                return False
            for k, l in pairs:
                if p in (k, l):
                    if not (i < k and l < j) and (k, l) != (i, j):
                        return False
    return True


def brute_force_contract(arrays, pairs):
    """Contract an ordered list of numpy arrays (one per word state) over
    the given global index pairs by summing explicit index assignments.

    Returns ``(out_shape, out_flat)`` where the output keeps unmatched
    indices in original order.  Quadratic-to-exponential and proud of it.
    """
    dims = []
    for a in arrays:
        dims.extend(a.shape)
    matched = {p for pr in pairs for p in pr}
    out_axes = [p for p in range(len(dims)) if p not in matched]
    out_shape = tuple(dims[p] for p in out_axes)
    size = 1
    for d in out_shape:
        size *= d
    out = [0.0] * max(size, 1)
    for assign in product(*(range(d) for d in dims)):
        if any(assign[i] != assign[j] for i, j in pairs):
            continue
        term = 1.0
        cursor = 0
        for a in arrays:
            k = len(a.shape)
            term *= float(a[assign[cursor:cursor + k]]) if k else float(a)
            cursor += k
        offset = 0
        for p in out_axes:
            offset = offset * dims[p] + assign[p]
        out[offset] += term
    return out_shape, out


def reduction_disagreement(source: CompoundType) -> str | None:
    """Compare :func:`gramsem.pregroup.enumerate_reductions` with every
    valid matching of ``source``, grouped by residual: each residual, and
    the target ``q`` (unreachable unless ``source`` holds a ``q``), must
    get exactly its matchings, in canonical order.

    Returns a description of the first disagreement, or ``None``.
    """
    groups: dict[CompoundType, list] = {}
    for pairs in all_partial_matchings(len(source)):
        if matching_is_valid(source, pairs):
            matched = {p for pr in pairs for p in pr}
            residual = CompoundType(
                t for p, t in enumerate(source) if p not in matched)
            groups.setdefault(residual, []).append(pairs)
    groups.setdefault(CompoundType((SimpleType(BasicType("q")),)), [])
    for target, expected in groups.items():
        got = [d.cups for d in enumerate_reductions(source, target)]
        if got != sorted(expected):
            return (f"enumerate_reductions from {source} to {target or '1'}: "
                    f"{got}, expected {sorted(expected)}")
    return None


def contraction_disagreement(lexicon, words) -> str | None:
    """Compare the meaning pipeline with :func:`brute_force_contract` on
    every reading combination of ``words`` and every valid matching of its
    simples, exactly: :func:`gramsem.linalg.contract_states` on each
    matching, and :func:`gramsem.functor.enumerate_analyses` for each
    residual, which must list those matchings in canonical order.

    Returns a description of the first disagreement, or ``None``.
    """
    assignment = lexicon.functor_assignment()
    expected: dict[CompoundType, list] = {}
    for combo in product(*(lexicon.entries_for(w) for w in words)):
        concat = CompoundType(t for e in combo for t in e.gtype)
        arrays = [e.state.array for e in combo]
        valid = sorted(pairs for pairs in all_partial_matchings(len(concat))
                       if matching_is_valid(concat, pairs))
        for pairs in valid:
            want = brute_force_contract(arrays, pairs)
            diagram = ReductionDiagram(concat, pairs)
            got = contract_states([e.state for e in combo],
                                  lift_reduction(assignment, diagram))
            if (got.dims, got.flat) != want:
                return (f"contract_states on {concat} cups {pairs}: "
                        f"{got.dims} {got.flat}, expected {want}")
            expected.setdefault(diagram.residual, []).append(
                (combo, pairs) + want)
    for target, cases in expected.items():
        got = [(a.words, a.chosen.cups, a.meaning.dims, a.meaning.flat)
               for a in enumerate_analyses(words, lexicon, assignment, target)]
        if got != cases:
            return f"enumerate_analyses to {target or '1'}: {got}, expected {cases}"
    return None
