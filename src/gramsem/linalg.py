"""Dense tensor kernel over labelled finite-dimensional real spaces.

Fixes the standard orthonormal basis once per space, so duals are
identified with the spaces themselves: the unit is the Kronecker-delta
state, the counit is plain index contraction, and bending a wire is a
reshape.  Data is row-major throughout (leftmost index slowest).
Contraction plans are planar, so states fold in by matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pregroup import check_planar

__all__ = [
    "VectorSpace",
    "Tensor",
    "ContractionPlan",
    "scalar",
    "make_eta",
    "apply_epsilon",
    "tensor_product",
    "contract",
    "contract_states",
    "yanking_check",
    "state_to_process",
    "process_to_state",
]


@dataclass(frozen=True)
class VectorSpace:
    """A labelled space of fixed dimension; basis labels are optional
    context-word names."""

    label: str
    dim: int
    basis_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.basis_labels is not None:
            labels = tuple(self.basis_labels)
            object.__setattr__(self, "basis_labels", labels)
            if len(labels) != self.dim:
                raise ValueError(
                    f"space {self.label!r}: {len(labels)} basis labels for "
                    f"dim {self.dim}")
            if len(set(labels)) != len(labels):
                raise ValueError(f"space {self.label!r}: duplicate basis labels")

    def __str__(self):
        return f"{self.label}({self.dim})"


class Tensor:
    """An immutable dense array with one labelled space per index.
    Rank 0 is a scalar.

    >>> v = Tensor([VectorSpace("n", 3)], [21, 9, 0])
    >>> v.array.tolist()
    [21.0, 9.0, 0.0]
    """

    __slots__ = ("spaces", "array")

    def __init__(self, spaces, data):
        spaces = tuple(spaces)
        shape = tuple(s.dim for s in spaces)
        # a C-ordered copy owned by this tensor, reshaped in place
        arr = np.array(data, dtype=np.float64, order="C")
        size = math.prod(shape)
        if arr.size != size:
            raise ValueError(
                f"data has {arr.size} entries, spaces {shape} need {size}")
        arr.shape = shape
        arr.setflags(write=False)
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "array", arr)

    @classmethod
    def _trusted(cls, spaces, array) -> "Tensor":
        """Unchecked: ``spaces`` a tuple, ``array`` a read-only float64 array
        of their shape."""
        t = object.__new__(cls)
        object.__setattr__(t, "spaces", spaces)
        object.__setattr__(t, "array", array)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the checks
        return Tensor, (self.spaces, self.array)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)

    @property
    def rank(self) -> int:
        return len(self.spaces)

    @property
    def flat(self) -> list[float]:
        """Row-major data as a plain list (the serialised layout)."""
        return self.array.reshape(-1).tolist()

    def item(self) -> float:
        if self.rank != 0 and self.array.size != 1:
            raise ValueError(f"tensor of shape {self.dims} is not a scalar")
        return float(self.array.reshape(-1)[0])

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.spaces == other.spaces
                and np.array_equal(self.array, other.array))

    def __hash__(self):
        return hash((self.spaces, self.array.tobytes()))

    def __repr__(self):
        names = ", ".join(str(s) for s in self.spaces)
        return f"Tensor([{names}], {self.array.reshape(-1).tolist()})"


def scalar(value: float) -> Tensor:
    """A rank-0 tensor; the monoidal unit carrier."""
    return Tensor((), [value])


@dataclass(frozen=True)
class ContractionPlan:
    """Which index pairs of an input tensor get summed; the cups of a
    diagram, lifted, and planar like them.  Remaining indices keep their
    original order."""

    input_spaces: tuple[VectorSpace, ...]
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "input_spaces", tuple(self.input_spaces))
        pairs = frozenset(tuple(sorted(p)) for p in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        n = len(self.input_spaces)
        partner = {}
        for i, j in pairs:
            if not 0 <= i < j < n:
                raise ValueError(f"pair ({i}, {j}) out of range for {n} indices")
            if i in partner or j in partner:
                raise ValueError(f"pair ({i}, {j}) reuses an index")
            partner[i], partner[j] = j, i
            if self.input_spaces[i].dim != self.input_spaces[j].dim:
                raise ValueError(
                    f"paired spaces {self.input_spaces[i]} and "
                    f"{self.input_spaces[j]} have different dims")
        check_planar(n, partner)

    @classmethod
    def _trusted(cls, input_spaces, pairs) -> "ContractionPlan":
        """Unchecked: ``pairs`` already sorted, in range, disjoint, equal-dim, planar."""
        plan = object.__new__(cls)
        plan.__dict__.update(input_spaces=input_spaces, pairs=pairs)
        return plan

    @property
    def output_indices(self) -> tuple[int, ...]:
        matched = {p for pr in self.pairs for p in pr}
        return tuple(i for i in range(len(self.input_spaces)) if i not in matched)

    @property
    def output_spaces(self) -> tuple[VectorSpace, ...]:
        return tuple(self.input_spaces[i] for i in self.output_indices)


def make_eta(space: VectorSpace) -> Tensor:
    """The unit state in V (x) V: 1 on the diagonal, 0 elsewhere.

    >>> make_eta(VectorSpace("n", 3)).flat
    [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    """
    return Tensor((space, space), np.eye(space.dim))


def apply_epsilon(t: Tensor) -> float:
    """The counit on a two-index tensor: trace of the reshaped matrix."""
    if t.rank != 2:
        raise ValueError(f"counit needs exactly 2 indices, got {t.rank}")
    if t.dims[0] != t.dims[1]:
        raise ValueError(f"counit needs equal dims, got {t.dims}")
    return float(np.trace(t.array))


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Monoidal product of states: concatenated spaces, outer product data."""
    return Tensor(a.spaces + b.spaces,
                  np.tensordot(a.array, b.array, axes=0))


def contract(t: Tensor, plan: ContractionPlan) -> Tensor:
    """Sum every paired index pair over its shared range.

    With the orthonormal basis fixed this *is* applying the tensor product
    of counits (paired slots) and identities (free slots).
    """
    return contract_states((t,), plan)


# Fold schedules by (pairs, ranks): the fold's walk over the positions
# depends only on the plan's pairs and the states' ranks.  The table holds
# at most _SCHEDULE_BOUND entries (a word's step, a trace axis or an
# output index); an insert that would pass it clears the table, and a
# larger schedule is not kept.
_SCHEDULE_BOUND = 2 ** 16
_schedules = {}
_schedule_entries = 0


def _schedule(pairs, ranks):
    """The fold of states of ``ranks`` along ``pairs``: per state, the axes
    to trace out one after the other and the number of cups it closes;
    then the indices left open, in order."""
    global _schedule_entries
    schedule = _schedules.get((pairs, ranks))
    if schedule is not None:
        return schedule
    partner = {}
    for i, j in pairs:
        partner[i], partner[j] = j, i
    steps, start, entries = [], 0, 0
    for rank in ranks:
        traces, kept, closing = [], 0, 0
        for p in range(start, start + rank):
            q = partner.get(p, p)
            if start <= q < p:  # the state's own cup, on axes kept - 1, kept
                kept -= 1
                traces.append(kept)
            else:
                kept += 1
                closing += q < start
        steps.append((tuple(traces), closing))
        entries += 1 + len(traces)
        start += rank
    output = tuple([i for i in range(start) if i not in partner])
    # all tuples, so the cyclic GC stops tracking a kept schedule
    schedule = (tuple(steps), output)
    entries += len(output)
    if entries <= _SCHEDULE_BOUND:
        if _schedule_entries + entries > _SCHEDULE_BOUND:
            _schedules.clear()
            _schedule_entries = 0
        _schedules[pairs, ranks] = schedule
        _schedule_entries += entries
    return schedule


@np.errstate(over="ignore", invalid="ignore")  # meanings may overflow
def contract_states(states, plan: ContractionPlan) -> Tensor:
    """Contract the tensor product of ``states`` along ``plan`` without
    forming that product; ``plan`` indexes the states' concatenated spaces.

    The states are folded in left to right.  As the pairs are planar, the
    wires open at a cut are the residual wires, then the open cups,
    innermost last, and a state whose own cups are traced out starts with
    the cups it closes.  So each state costs one matrix product over them.
    Which axes each state traces and how many cups it closes depend only
    on the pairs and the states' ranks, so that schedule is computed once
    per (pairs, ranks) and kept in a bounded private table.

    >>> n = VectorSpace("n", 2)
    >>> a, b = Tensor((n,), [1, 2]), Tensor((n, n), [[3, 4], [5, 6]])
    >>> contract_states((a, b), ContractionPlan((n,) * 3, {(0, 1)})).flat
    [13.0, 16.0]
    """
    states = tuple(states)
    spaces = tuple(s for t in states for s in t.spaces)
    if plan.input_spaces != spaces:
        raise ValueError(
            f"plan expects spaces ({', '.join(map(str, plan.input_spaces))}), "
            f"tensor has ({', '.join(map(str, spaces))})")
    steps, output = _schedule(plan.pairs, tuple([t.rank for t in states]))
    acc = np.ones(())
    for t, (traces, closing) in zip(states, steps):
        word = t.array
        for axis in traces:
            word = np.trace(word, axis1=axis, axis2=axis + 1)
        if closing > 1:  # innermost cup first, as it is last in acc
            word = np.moveaxis(word, range(closing), range(closing)[::-1])
        size = math.prod(word.shape[:closing])
        acc = acc.reshape(-1, size) @ word.reshape(size, -1)
    return Tensor(tuple([spaces[i] for i in output]), acc)


def yanking_check(dim: int, tol: float = 0.0) -> bool:
    """Verify both snake composites act as the identity on V.

    One bends the wire to the right (state (x) eta, counit on the state
    and eta's first slot), the other to the left (eta (x) state, counit on
    eta's second slot and the state).  Each composite is lifted in one
    contraction whose input state is the identity matrix, every basis
    state at once: its spare wire stays on the outside, left for the right
    bend and right for the left bend, so each result is the composite's
    matrix.  Both are compared to the identity entrywise within ``tol``.
    """
    space = VectorSpace("v", dim)
    eta = make_eta(space)
    inputs = Tensor((space, space), np.eye(dim))
    plan = ContractionPlan((space,) * 4, frozenset({(1, 2)}))
    right_bend = contract_states((inputs, eta), plan).array
    left_bend = contract_states((eta, inputs), plan).array
    eye = np.eye(dim)
    return (np.max(np.abs(right_bend - eye)) <= tol
            and np.max(np.abs(left_bend - eye)) <= tol)


def state_to_process(t: Tensor) -> np.ndarray:
    """Read a two-index state as the matrix of a map between its spaces
    (rows indexed by the first space, columns by the second)."""
    if t.rank != 2:
        raise ValueError(f"state must have exactly 2 indices, got {t.rank}")
    return np.array(t.array)


def process_to_state(matrix, spaces) -> Tensor:
    """Inverse reshape of :func:`state_to_process`; exact round trip."""
    spaces = tuple(spaces)
    if len(spaces) != 2:
        raise ValueError(f"need exactly 2 spaces, got {len(spaces)}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"process must be a matrix, got ndim {matrix.ndim}")
    if matrix.shape != (spaces[0].dim, spaces[1].dim):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match spaces "
            f"({spaces[0]}, {spaces[1]})")
    return Tensor(spaces, matrix)
