"""The tensor kernel: units, counits, contraction, snakes, reshaping."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramsem import linalg
from gramsem.oracle import brute_force_contract
from gramsem.linalg import (ContractionPlan, Tensor, VectorSpace,
                            apply_epsilon, contract, make_eta,
                            process_to_state, scalar, state_to_process,
                            tensor_product, yanking_check)

N = VectorSpace("n", 3, ("sweet", "green", "furry"))
S = VectorSpace("s", 1)


class TestSpacesAndTensors:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            VectorSpace("v", 0)
        with pytest.raises(ValueError):
            VectorSpace("v", 2, ("a",))
        with pytest.raises(ValueError):
            VectorSpace("v", 2, ("a", "a"))

    def test_tensor_size_check(self):
        with pytest.raises(ValueError):
            Tensor((N,), [1, 2])

    def test_tensor_is_immutable(self):
        t = Tensor((N,), [1, 2, 3])
        with pytest.raises(AttributeError):
            t.array = None
        with pytest.raises(ValueError):
            t.array[0] = 9

    def test_tensor_owns_a_copy_of_its_data(self):
        a, b = VectorSpace("a", 2), VectorSpace("b", 3)
        source = np.arange(6.0)
        transposed = np.arange(6.0).reshape(2, 3).T  # Fortran-ordered view
        t = Tensor((a, b), source)
        u = Tensor((b, a), transposed)
        source[:] = -1
        transposed[:] = -1
        assert t.array.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert u.array.tolist() == [[0, 3], [1, 4], [2, 5]]
        for x in (t, u, Tensor((a, b), [0, 1, 2, 3, 4, 5]), scalar(2)):
            assert x.array.base is None and not x.array.flags.writeable

    def test_rank0_scalar(self):
        assert scalar(4.5).item() == 4.5
        assert scalar(1).dims == ()

    def test_row_major_layout(self):
        # entry (i, j, k) sits at offset i*dim_j*dim_k + j*dim_k + k
        a, b, c = VectorSpace("a", 2), VectorSpace("b", 3), VectorSpace("c", 4)
        data = np.arange(24.0)
        t = Tensor((a, b, c), data)
        strides = (12, 4, 1)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    offset = i * strides[0] + j * strides[1] + k * strides[2]
                    assert t.array[i, j, k] == data[offset]


class TestUnitCounit:
    def test_eta_dim3_layout(self):
        assert make_eta(N).flat == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_eta_dim1_and_dim2(self):
        assert make_eta(VectorSpace("v", 1)).flat == [1]
        assert make_eta(VectorSpace("v", 2)).flat == [1, 0, 0, 1]

    def test_epsilon_of_eta_is_dimension(self):
        for d in range(1, 65):
            sp = VectorSpace("v", d)
            assert apply_epsilon(make_eta(sp)) == d

    def test_epsilon_kills_off_diagonal_basis_pair(self):
        sp = VectorSpace("v", 4)
        e1_e2 = np.zeros((4, 4))
        e1_e2[0, 1] = 1.0
        assert apply_epsilon(Tensor((sp, sp), e1_e2)) == 0

    def test_epsilon_of_copula_state(self):
        # the 9-entry state with ones at offsets 0, 4, 8 is the identity
        # matrix reshaped; its counit is the trace, 3
        data = [0.0] * 9
        data[0] = data[4] = data[8] = 1.0
        assert apply_epsilon(Tensor((N, N), data)) == 3

    def test_epsilon_arity_and_dim_errors(self):
        with pytest.raises(ValueError):
            apply_epsilon(Tensor((N,), [1, 2, 3]))
        with pytest.raises(ValueError):
            apply_epsilon(Tensor((N, S), np.zeros((3, 1))))


class TestTensorProduct:
    def test_outer_product_entry(self):
        bananas = Tensor((N,), [21, 9, 0])
        fruit = Tensor((N,), [43, 19, 0])
        prod = tensor_product(bananas, fruit)
        assert prod.array[0, 0] == 903

    def test_unit_scalar(self):
        x = Tensor((N,), [5, -1, 2])
        assert tensor_product(x, scalar(1)) == Tensor((N,), [5, -1, 2])
        assert tensor_product(scalar(1), x) == x

    def test_shapes_concatenate(self):
        a = Tensor((VectorSpace("a", 2),), [1, 2])
        b = Tensor((VectorSpace("b", 3),), [1, 2, 3])
        prod = tensor_product(a, b)
        assert prod.dims == (2, 3) and prod.array.size == 6


class TestContract:
    def test_sentence_contraction(self, toy_lexicon):
        entries = {w: toy_lexicon.entries_for(w)[0]
                   for w in ("bananas", "are", "fruit")}
        state = tensor_product(
            tensor_product(entries["bananas"].state, entries["are"].state),
            entries["fruit"].state)
        plan = ContractionPlan(state.spaces, frozenset({(0, 1), (3, 4)}))
        out = contract(state, plan)
        assert out.dims == (1,) and out.item() == 1074

    def test_empty_plan_is_identity(self):
        t = Tensor((N,), [1, 2, 3])
        assert contract(t, ContractionPlan((N,), frozenset())) == t

    def test_contracting_eta_gives_dimension(self):
        for d in (1, 2, 5):
            sp = VectorSpace("v", d)
            out = contract(make_eta(sp),
                           ContractionPlan((sp, sp), frozenset({(0, 1)})))
            assert out.dims == () and out.item() == d

    def test_plan_validation(self):
        sp2, sp3 = VectorSpace("a", 2), VectorSpace("b", 3)
        with pytest.raises(ValueError, match="different dims"):
            ContractionPlan((sp2, sp3), frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="out of range"):
            ContractionPlan((sp2, sp2), frozenset({(0, 5)}))
        with pytest.raises(ValueError, match="reuses"):
            ContractionPlan((sp2,) * 3, frozenset({(0, 1), (1, 2)}))

    def test_plan_pairs_are_planar(self):
        sp2, sp3 = VectorSpace("a", 2), VectorSpace("b", 3)
        with pytest.raises(ValueError,
                           match=r"cups \(0, 2\) and \(1, 3\) cross"):
            ContractionPlan((sp2,) * 4, frozenset({(0, 2), (1, 3)}))
        with pytest.raises(ValueError,
                           match=r"wire 1 is trapped under cup \(0, 2\)"):
            ContractionPlan((sp2,) * 3, frozenset({(0, 2)}))
        # the range, reuse and dims checks come first
        with pytest.raises(ValueError, match="out of range"):
            ContractionPlan((sp2,) * 4, frozenset({(0, 2), (1, 3), (4, 5)}))
        with pytest.raises(ValueError, match="reuses"):
            ContractionPlan((sp2,) * 4, frozenset({(0, 2), (1, 3), (2, 3)}))
        with pytest.raises(ValueError, match="different dims"):
            ContractionPlan((sp2, sp2, sp2, sp3),
                            frozenset({(0, 2), (1, 3)}))
        # nested, adjacent and outer residual wires are planar
        ContractionPlan((sp2,) * 7, frozenset({(1, 4), (2, 3), (5, 6)}))

    def test_space_mismatch(self):
        t = Tensor((N,), [1, 2, 3])
        plan = ContractionPlan((VectorSpace("m", 3),), frozenset())
        with pytest.raises(ValueError, match="plan expects"):
            contract(t, plan)

    def test_rank_sixty_with_29_cups(self):
        # one state holding 29 cups of its own: positions 0 and 59 stay
        # free, cups (1, 2), (3, 4), ..., (57, 58); (1, 2) has dim 2
        two, one = VectorSpace("two", 2), VectorSpace("one", 1)
        spaces = (two, two, two) + (one,) * 56 + (two,)
        data = np.arange(16.0)
        plan = ContractionPlan(
            spaces, frozenset((2 * k + 1, 2 * k + 2) for k in range(29)))
        out = contract(Tensor(spaces, data), plan)
        assert out.spaces == (two, two)
        assert out.array.tolist() == np.einsum(
            "ikkj->ij", data.reshape(2, 2, 2, 2)).tolist()

    def test_one_sided_yanking_on_states(self):
        rng = np.random.default_rng(7)
        for dims in [(3,), (2, 3), (4, 2, 3)]:
            spaces = tuple(VectorSpace(f"v{k}", d) for k, d in enumerate(dims))
            x = Tensor(spaces, rng.integers(-5, 6, size=dims))
            eta = make_eta(spaces[-1])
            bent = tensor_product(x, eta)
            plan = ContractionPlan(
                bent.spaces, frozenset({(len(dims) - 1, len(dims))}))
            assert contract(bent, plan) == x


def empty_schedule_table(monkeypatch, bound=None):
    """Start the fold from an empty schedule table, with ``bound`` total
    entries when given; ``monkeypatch`` puts the old table back."""
    monkeypatch.setattr(linalg, "_schedules", {})
    monkeypatch.setattr(linalg, "_schedule_entries", 0)
    if bound is not None:
        monkeypatch.setattr(linalg, "_SCHEDULE_BOUND", bound)


def schedule_entries(schedule):
    """The entries a kept schedule counts against the bound."""
    steps, output = schedule
    return sum(1 + len(traces) for traces, _ in steps) + len(output)


def fold_cases():
    """(states, plan) pairs sharing pairs across ranks and ranks across
    pairs: ``n n^l`` + ``n`` against ``n`` + ``n^l n``, and one rank
    pattern under four plans."""
    v = VectorSpace("v", 2)
    rng = np.random.default_rng(5)

    def state(rank):
        return Tensor((v,) * rank, rng.integers(-3, 4, size=(2,) * rank))

    cases = [((state(2), state(1)), {(1, 2)}),
             ((state(1), state(2)), {(1, 2)})]
    x, m, y = state(1), state(2), state(1)
    for pairs in [set(), {(0, 1)}, {(2, 3)}, {(0, 1), (2, 3)}, {(0, 3), (1, 2)}]:
        cases.append(((x, m, y), pairs))
    cases.append(((state(4), state(3), state(1)),
                  {(0, 7), (1, 2), (3, 4), (5, 6)}))
    return [(states, ContractionPlan((v,) * sum(t.rank for t in states), pairs))
            for states, pairs in cases]


class TestScheduleTable:
    """Fold schedules are kept by (pairs, ranks) in a table bounded by its
    total entries; a kept schedule folds as a freshly computed one."""

    def test_key_holds_the_pairs_and_the_ranks(self, monkeypatch):
        cases = fold_cases()
        fresh = []
        for states, plan in cases:
            empty_schedule_table(monkeypatch)
            fresh.append(linalg.contract_states(states, plan))
        empty_schedule_table(monkeypatch)
        for _ in range(2):
            for (states, plan), expected in zip(cases, fresh):
                got = linalg.contract_states(states, plan)
                assert got.spaces == expected.spaces
                assert np.array_equal(got.array, expected.array)
                shape, flat = brute_force_contract(
                    [t.array for t in states], plan.pairs)
                assert got.dims == shape
                assert got.array.reshape(-1).tolist() == flat
        assert len(linalg._schedules) == len(cases)

    def test_eviction_keeps_the_table_within_its_bound(self, monkeypatch):
        cases = fold_cases()
        empty_schedule_table(monkeypatch)
        fresh = [linalg.contract_states(*case) for case in cases]
        bound = 20
        empty_schedule_table(monkeypatch, bound)
        kept_most = 0
        for _ in range(2):
            for case, expected in zip(cases, fresh):
                assert linalg.contract_states(*case) == expected
                kept = sum(map(schedule_entries, linalg._schedules.values()))
                assert kept == linalg._schedule_entries <= bound
                kept_most = max(kept_most, kept)
        assert kept_most > bound // 2  # the table was full before it cleared
        assert len(linalg._schedules) < len(cases)

    def test_a_kept_schedule_holds_nothing_the_gc_tracks(self, monkeypatch):
        empty_schedule_table(monkeypatch)
        linalg.contract_states(*fold_cases()[-1])
        for _ in range(4):  # a collection untracks one level of nesting
            gc.collect()
        schedule, = linalg._schedules.values()
        assert not gc.is_tracked(schedule)

    def test_a_schedule_larger_than_the_bound_is_not_kept(self, monkeypatch):
        empty_schedule_table(monkeypatch, 20)
        small = fold_cases()[0]
        linalg.contract_states(*small)
        before = dict(linalg._schedules)
        # one state holding 29 cups of its own: 1 + 29 + 2 entries
        two, one = VectorSpace("two", 2), VectorSpace("one", 1)
        spaces = (two, two, two) + (one,) * 56 + (two,)
        data = np.arange(16.0)
        plan = ContractionPlan(
            spaces, frozenset((2 * k + 1, 2 * k + 2) for k in range(29)))
        out = contract(Tensor(spaces, data), plan)
        assert out.array.tolist() == np.einsum(
            "ikkj->ij", data.reshape(2, 2, 2, 2)).tolist()
        assert linalg._schedules.keys() == before.keys()


class TestYanking:
    @pytest.mark.parametrize("dim", list(range(1, 17)))
    def test_snake_equations_exact(self, dim):
        assert yanking_check(dim, tol=0.0)

    def test_catches_a_wrong_contraction(self, monkeypatch):
        real = linalg.contract_states

        def plus_one(states, plan):
            t = real(states, plan)
            return Tensor(t.spaces, t.array + 1)

        monkeypatch.setattr("gramsem.linalg.contract_states", plus_one)
        assert not yanking_check(2)


class TestProcessStateDuality:
    def test_eta_reshapes_to_identity(self):
        assert np.array_equal(state_to_process(make_eta(N)), np.eye(3))

    def test_identity_matrix_to_copula_state(self):
        state = process_to_state(np.eye(3), (N, N))
        flat = state.flat
        assert [i for i, x in enumerate(flat) if x == 1] == [0, 4, 8]

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        v, w = VectorSpace("v", 2), VectorSpace("w", 3)
        t = Tensor((v, w), rng.standard_normal((2, 3)))
        assert process_to_state(state_to_process(t), (v, w)) == t

    def test_arity_errors(self):
        with pytest.raises(ValueError):
            state_to_process(Tensor((N,), [1, 2, 3]))
        with pytest.raises(ValueError):
            process_to_state(np.zeros((2, 2)), (N, N))
        with pytest.raises(ValueError):
            process_to_state(np.zeros(4), (N, N))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_reshape_round_trip_property(dv, dw, seed):
    rng = np.random.default_rng(seed)
    v, w = VectorSpace("v", dv), VectorSpace("w", dw)
    t = Tensor((v, w), rng.standard_normal((dv, dw)))
    assert process_to_state(state_to_process(t), (v, w)) == t
