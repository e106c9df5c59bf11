"""Grammar-to-tensor lifting and the sentence-meaning pipeline."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramsem import functor
from gramsem.corpus import Lexicon
from gramsem.functor import (NoParseError, UnassignedTypeError,
                             UnknownWordError, enumerate_analyses,
                             identity_verb, lift_reduction,
                             preller_obstruction, sentence_meaning, spaces_of)
from gramsem.linalg import Tensor, VectorSpace, contract, tensor_product
from gramsem.oracle import contraction_disagreement
from gramsem.pregroup import (CompoundType, Cup, ReductionDiagram, SimpleType,
                              TypeSyntaxError, parse_type_expr)

N = VectorSpace("n", 3, ("sweet", "green", "furry"))
S = VectorSpace("s", 1)
F = {"n": N, "s": S}


class TestSpaceAssignment:
    def test_plain_and_duals_share_a_space(self):
        n = parse_type_expr("n")[0]
        assert spaces_of(F, CompoundType([n])) == (N,)
        assert spaces_of(F, CompoundType([SimpleType(n.base, 1)])) == (N,)

    def test_dual_collapse_all_exponents(self):
        n = parse_type_expr("n")[0]
        for z in range(-3, 4):
            assert spaces_of(F, CompoundType([SimpleType(n.base, z)])) == (N,)

    def test_verb_type_maps_to_triple(self):
        assert spaces_of(F, parse_type_expr("n^r s n^l")) == (N, S, N)

    def test_unassigned_type(self):
        with pytest.raises(UnassignedTypeError, match="q"):
            spaces_of(F, parse_type_expr("q"))


class TestStrongMonoidal:
    def test_sample_pairs(self):
        samples = [
            (parse_type_expr("n"), parse_type_expr("n^l")),
            (CompoundType(), parse_type_expr("s")),
            (parse_type_expr("n^r s n^l"), parse_type_expr("n")),
        ]
        for a, b in samples:
            assert spaces_of(F, a + b) == spaces_of(F, a) + spaces_of(F, b)
        assert spaces_of(F, samples[2][0] + samples[2][1]) == (N, S, N, N)


class TestLiftReduction:
    def test_sentence_diagram_lifts_to_plan(self):
        src = parse_type_expr("n n^r s n^l n")
        d = ReductionDiagram(src, frozenset({Cup(0, 1), Cup(3, 4)}))
        plan = lift_reduction(F, d)
        assert plan.input_spaces == (N, N, S, N, N)
        assert plan.pairs == frozenset({(0, 1), (3, 4)})
        assert plan.output_spaces == (S,)

    def test_empty_diagram_lifts_to_identity_plan(self):
        d = ReductionDiagram(parse_type_expr("n"))
        plan = lift_reduction(F, d)
        assert plan.pairs == frozenset() and plan.output_spaces == (N,)

    def test_adjective_diagram(self):
        src = parse_type_expr("n n^l n")
        d = ReductionDiagram(src, frozenset({Cup(1, 2)}))
        plan = lift_reduction(F, d)
        assert plan.output_indices == (0,)

    def test_identity_lift_acts_as_identity_on_states(self):
        rng = np.random.default_rng(11)
        src = parse_type_expr("n s n")
        d = ReductionDiagram(src)
        plan = lift_reduction(F, d)
        for _ in range(5):
            t = Tensor((N, S, N), rng.standard_normal((3, 1, 3)))
            out = contract(t, plan)
            assert np.allclose(out.array, t.array, atol=1e-9)


class TestSentenceMeaning:
    def test_worked_example(self, toy_lexicon):
        a = sentence_meaning(["bananas", "are", "fruit"], toy_lexicon,
                             toy_lexicon.functor_assignment())
        assert a.meaning.item() == 1074
        assert a.chosen.cups == ((0, 1), (3, 4))
        assert a.concat_type == parse_type_expr("n n^r s n^l n")

    def test_identity_adjective_fixes_noun(self, toy_lexicon):
        a = sentence_meaning(["yellow", "banana"], toy_lexicon,
                             toy_lexicon.functor_assignment(), target="n")
        assert a.meaning.flat == [21, 9, 0]

    def test_single_noun_identity_reduction(self, toy_lexicon):
        a = sentence_meaning(["bananas"], toy_lexicon,
                             toy_lexicon.functor_assignment(), target="n")
        assert a.meaning.flat == [21, 9, 0]
        assert a.chosen.cups == ()

    def test_unknown_word_names_it(self, toy_lexicon):
        with pytest.raises(UnknownWordError, match="xylophone"):
            sentence_meaning(["bananas", "xylophone"], toy_lexicon,
                             toy_lexicon.functor_assignment())

    def test_no_parse(self, toy_lexicon):
        with pytest.raises(NoParseError):
            sentence_meaning(["bananas", "fruit"], toy_lexicon,
                             toy_lexicon.functor_assignment())

    @pytest.mark.parametrize("space, words, error, match", [
        (VectorSpace("n", 2), ["bananas", "are", "fruit"], ValueError,
         r"plan expects spaces \(n\(2\), n\(2\), s\(1\)"),
        (VectorSpace("m", 3), ["bananas", "are", "fruit"], ValueError,
         r"plan expects spaces \(m\(3\), m\(3\), s\(1\)"),
        (VectorSpace("n", 2), ["bananas", "bananas"], NoParseError,
         "no reduction"),
    ], ids=["narrower", "relabelled", "no-parse"])
    def test_assignment_disagreeing_with_the_states(self, toy_lexicon, space,
                                                    words, error, match):
        # the states are checked against the assignment where a parse is
        # contracted, so a sentence with no parse is just unparseable
        assignment = {"n": space, "s": S}
        with pytest.raises(error, match=match):
            sentence_meaning(words, toy_lexicon, assignment)

    def test_parse_index_out_of_range(self, toy_lexicon):
        with pytest.raises(IndexError, match="1 parse"):
            sentence_meaning(["bananas", "are", "fruit"], toy_lexicon,
                             toy_lexicon.functor_assignment(), parse_index=1)

    def test_target_text_parses_the_same_on_every_call(self, toy_lexicon):
        words, assignment = ["bananas"], toy_lexicon.functor_assignment()
        for fn in (sentence_meaning, enumerate_analyses):
            for _ in range(2):  # a bad text is never remembered as good
                with pytest.raises(TypeSyntaxError, match="position 2"):
                    fn(words, toy_lexicon, assignment, target="n^x")
                assert fn(words, toy_lexicon, assignment, target=" n") == \
                    fn(words, toy_lexicon, assignment,
                       target=parse_type_expr("n"))

    def test_identity_verb_builder(self, toy_lexicon):
        t = identity_verb(N, S)
        assert t.dims == (3, 1, 3)
        assert t.flat == toy_lexicon.entries_for("are")[0].state.flat
        with pytest.raises(ValueError):
            identity_verb(N, VectorSpace("s", 2))


class TestAmbiguity:
    def test_two_distinct_parses_match_oracle_output(
            self, ambiguous_lexicon, ambiguous_expected):
        words = ambiguous_expected["sentence"]
        assignment = ambiguous_lexicon.functor_assignment()
        analyses = enumerate_analyses(words, ambiguous_lexicon, assignment,
                                      ambiguous_expected["target"])
        assert len(analyses) == len(ambiguous_expected["parses"]) >= 2
        for analysis, expected in zip(analyses, ambiguous_expected["parses"]):
            assert [str(e.gtype) for e in analysis.words] == expected["types"]
            assert [list(c) for c in analysis.chosen.cups] == \
                expected["cups"]
            assert list(analysis.meaning.dims) == expected["meaning"]["dims"]
            assert analysis.meaning.flat == [
                float(x) for x in expected["meaning"]["data"]]
        meanings = {tuple(a.meaning.flat) for a in analyses}
        assert len(meanings) >= 2

    def test_parse_index_selects_readings(self, ambiguous_lexicon,
                                          ambiguous_expected):
        words = ambiguous_expected["sentence"]
        assignment = ambiguous_lexicon.functor_assignment()
        first = sentence_meaning(words, ambiguous_lexicon, assignment, 0)
        second = sentence_meaning(words, ambiguous_lexicon, assignment, 1)
        assert first.meaning != second.meaning


class TestLongSentences:
    """Sentences with more than 52 simples or open wires."""

    def test_fifty_three_simples(self):
        lex = Lexicon({"n": VectorSpace("n", 2), "s": S})
        lex.add("tom", "n", [1, 2])
        lex.add("chases", "n^r s n^l", [3, 0, 1, 5])
        lex.add("jerry", "n", [4, 1])
        lex.add("surely", "s^r s", [2])
        words = "tom chases jerry".split() + ["surely"] * 24
        a = sentence_meaning(words, lex, lex.functor_assignment())
        assert len(a.concat_type) == 53
        # tom . chases . jerry = 1*(3*4 + 0*1) + 2*(1*4 + 5*1) = 30
        assert a.meaning.dims == (1,) and a.meaning.item() == 30 * 2 ** 24

    def test_fifty_three_residual_wires(self):
        lex = Lexicon({"n": VectorSpace("n", 1)})
        for k in range(53):
            lex.add(f"w{k}", "n", [2])
        words = [f"w{k}" for k in range(53)]
        a = sentence_meaning(words, lex, lex.functor_assignment(),
                             target=" ".join(["n"] * 53))
        assert a.meaning.dims == (1,) * 53
        assert a.meaning.item() == 2.0 ** 53

    def test_sixty_adjectives_and_a_noun(self):
        # 121 simples and 61 distinct wires: 60 cups plus the free noun wire
        n = VectorSpace("n", 2)
        lex = Lexicon({"n": n})
        lex.add("big", "n n^l", [[1, 1], [0, 1]])
        lex.add("odd", "n n^l", [[0, 1], [1, 0]])
        lex.add("cat", "n", [1, 2])
        words = ["big", "odd"] * 30 + ["cat"]
        a = sentence_meaning(words, lex, lex.functor_assignment(), target="n")
        assert len(a.concat_type) == 121 and len(a.chosen.cups) == 60
        # big @ odd is the Fibonacci matrix [[F2, F1], [F1, F0]], so the
        # meaning is [[F31, F30], [F30, F29]] @ [1, 2]
        assert a.meaning.flat == [1346269 + 2 * 832040, 832040 + 2 * 514229]


class TestScaling:
    WORDS = ["moths", "saw", "men"] + ["with", "telescopes"] * 4

    def test_four_attachments_without_the_full_product(self,
                                                       ambiguous_lexicon):
        # the first reading combination's full product has 3^20 elements
        # (28 GB of float64)
        assignment = ambiguous_lexicon.functor_assignment()
        start = time.perf_counter()
        analyses = enumerate_analyses(self.WORDS, ambiguous_lexicon, assignment)
        elapsed = time.perf_counter() - start
        assert len(analyses) == 42
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        readings = [ambiguous_lexicon.entries_for(w) for w in self.WORDS]
        keys = [(tuple(r.index(e) for r, e in zip(readings, a.words)),
                 a.chosen.cups) for a in analyses]
        assert keys == sorted(set(keys))
        for a in analyses:
            label = list(range(len(a.concat_type)))
            for i, j in a.chosen.cups:
                label[j] = i
            matched = {p for cup in a.chosen.cups for p in cup}
            operands, start = [], 0
            for e in a.words:
                operands += [e.state.array, label[start:start + e.state.rank]]
                start += e.state.rank
            free = [p for p in range(len(label)) if p not in matched]
            want = np.einsum(*operands, free, optimize="greedy")
            assert a.meaning.dims == want.shape
            assert np.array_equal(a.meaning.array, want)

    def test_each_parse_index_matches_the_analyses(self, ambiguous_lexicon,
                                                   monkeypatch):
        assignment = ambiguous_lexicon.functor_assignment()
        analyses = enumerate_analyses(self.WORDS, ambiguous_lexicon, assignment)
        for k, want in enumerate(analyses):
            got = sentence_meaning(self.WORDS, ambiguous_lexicon, assignment,
                                   parse_index=k)
            assert got.words == want.words
            assert got.chosen.cups == want.chosen.cups
            assert got.meaning == want.meaning
        # the parse stream stops at the chosen parse: parse 0 pulls one
        # diagram, and an index past the end pulls every one of the 42
        pulled = []
        real = functor.iter_reductions

        def counting(source, target):
            for d in real(source, target):
                pulled.append(d)
                yield d

        monkeypatch.setattr(functor, "iter_reductions", counting)
        sentence_meaning(self.WORDS, ambiguous_lexicon, assignment)
        assert len(pulled) == 1
        pulled.clear()
        with pytest.raises(IndexError, match="has 42 parse"):
            sentence_meaning(self.WORDS, ambiguous_lexicon, assignment,
                             parse_index=42)
        assert len(pulled) == 42

    def test_peak_memory(self, ambiguous_lexicon):
        assignment = ambiguous_lexicon.functor_assignment()
        tracemalloc.start()
        try:
            enumerate_analyses(self.WORDS, ambiguous_lexicon, assignment)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pipeline_agrees_with_brute_force(data):
    """Random lexicons (dims 1..3, integer data 0..3, up to 5 words with
    one or two readings, at most 7 simples per reading combination): every
    reading combination and every valid matching contracts exactly as the
    brute-force oracle does."""
    dims = {b: data.draw(st.integers(1, 3), label=f"dim {b}") for b in "ab"}
    lexicon = Lexicon({b: VectorSpace(b, d) for b, d in dims.items()})
    simple = st.sampled_from([b + z for b in "ab" for z in ("", "^l", "^r")])
    length = data.draw(st.integers(1, 5), label="words")
    budget = 7
    for k in range(length):
        longest = data.draw(st.integers(0, min(3, budget)))
        budget -= longest
        for _ in range(data.draw(st.integers(1, 2))):
            simples = data.draw(st.lists(simple, max_size=longest))
            size = int(np.prod([dims[x[0]] for x in simples]))
            lexicon.add(f"w{k}", " ".join(simples), data.draw(
                st.lists(st.integers(0, 3), min_size=size, max_size=size)))
    words = [f"w{k}" for k in range(length)]
    assert contraction_disagreement(lexicon, words) is None


class TestPrellerObstruction:
    def test_dim1_lift_is_identity(self):
        w = preller_obstruction(1)
        assert w.is_identity and w.zero_witness is None

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_higher_dims_fail_injectivity(self, dim):
        w = preller_obstruction(dim)
        assert not w.is_identity
        assert w.zero_witness == (0, 1, 0)

    def test_dim3_image_of_e1e1e1(self):
        # composing by hand: the counit keeps e1, the unit appends the
        # diagonal pair, so e1*e1*e1 maps to sum_i e1*ei*ei
        space = VectorSpace("a", 3)
        from gramsem.linalg import ContractionPlan
        basis = np.zeros((3, 3, 3))
        basis[0, 0, 0] = 1.0
        bent = contract(Tensor((space,) * 3, basis),
                        ContractionPlan((space,) * 3, frozenset({(0, 1)})))
        image = tensor_product(bent, Tensor((space, space), np.eye(3)))
        expected = np.zeros((3, 3, 3))
        for i in range(3):
            expected[0, i, i] = 1.0
        assert np.array_equal(image.array, expected)

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            preller_obstruction(0)
