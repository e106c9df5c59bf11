"""Free pregroup types, the expression parser, and the reduction search."""

import gc
import itertools
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramsem import pregroup
from gramsem.functor import lift_reduction, spaces_of
from gramsem.linalg import ContractionPlan, VectorSpace
from gramsem.oracle import all_partial_matchings, matching_is_valid
from gramsem.pregroup import (BasicType, CompoundType, Cup, ReductionDiagram,
                              SimpleType, TypeSyntaxError, adjoint_of,
                              can_contract, enumerate_reductions,
                              iter_reductions,
                              parse_type_expr)

N = BasicType("n")
S = BasicType("s")


def ct(expr):
    return parse_type_expr(expr)


def empty_chart_table(monkeypatch, bound=None):
    """Start the search from an empty chart table, with ``bound`` total
    entries when given; ``monkeypatch`` puts the old table back."""
    monkeypatch.setattr(pregroup, "_charts", {})
    monkeypatch.setattr(pregroup, "_chart_entries", 0)
    if bound is not None:
        monkeypatch.setattr(pregroup, "_CHART_BOUND", bound)


def empty_token_table(monkeypatch, bound=None):
    """Start the parser from an empty token table, with ``bound`` total
    characters when given; ``monkeypatch`` puts the old table back."""
    monkeypatch.setattr(pregroup, "_tokens", {})
    monkeypatch.setattr(pregroup, "_token_chars", 0)
    if bound is not None:
        monkeypatch.setattr(pregroup, "_TOKEN_BOUND", bound)


def parse_outcome(text):
    """What parsing ``text`` gives: its simples and text, or its error."""
    try:
        t = parse_type_expr(text)
    except TypeSyntaxError as err:
        return "error", str(err), err.position, err.text
    return t, str(t), t.key


def chart_entries(chart):
    """The entries a kept chart counts against the bound."""
    closed, reach = chart[:2]
    return sum(map(len, closed)) + len(reach) * len(reach[-1])


class TestParser:
    def test_adjective_type(self):
        t = ct("n n^l")
        assert [(x.base.name, x.adjoint) for x in t] == [("n", 0), ("n", -1)]

    def test_empty_is_unit(self):
        assert ct("") == CompoundType()
        assert len(ct("   ")) == 0
        assert len(ct("\t\n\u3000")) == 0

    def test_transitive_verb_type(self):
        # any character for which str.isspace() is true separates simples
        for text in ["n^r s n^l", "n^r\u3000s\u2028n^l", "n^r\u0085s\u001cn^l"]:
            t = ct(text)
            assert [(x.base.name, x.adjoint) for x in t] == \
                [("n", 1), ("s", 0), ("n", -1)]

    def test_iterated_adjoints(self):
        assert ct("n^ll")[0].adjoint == -2
        assert ct("n^rrr")[0].adjoint == 3
        assert ct("n^lr")[0].adjoint == 0

    def test_round_trip_through_printer(self):
        for expr in ["", "n", "n^l", "n^r s n^l", "a1^ll b2^rr s"]:
            assert str(ct(expr)) == expr.strip() and ct(str(ct(expr))) == ct(expr)

    def test_dangling_caret(self):
        for text in ["n^", "n^\tl"]:
            with pytest.raises(TypeSyntaxError, match="dangling") as err:
                ct(text)
            assert err.value.position == 1

    def test_bad_adjoint_letter(self):
        for text, position in [("n^lx s", 3), ("n^^", 2), ("n^x", 2)]:
            with pytest.raises(TypeSyntaxError, match="bad adjoint") as err:
                ct(text)
            assert err.value.position == position

    def test_bad_name(self):
        for text, position in [("n 9bad", 2), ("^l", 0)]:
            with pytest.raises(TypeSyntaxError, match="expected type") as err:
                ct(text)
            assert err.value.position == position

    def test_unexpected_character(self):
        # U+200B ZERO WIDTH SPACE is not whitespace: str.isspace() is false
        for text in ["n* s", "n\u200bs"]:
            with pytest.raises(TypeSyntaxError, match="unexpected") as err:
                ct(text)
            assert err.value.position == 1

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from(list("nsab01^lr*é \t\n")
                                   + ["\u3000", "\u2028", "\u0085",
                                      "\u001c", "\u200b"]), max_size=12))
    def test_parses_and_round_trips_or_points_at_a_character(self, text):
        try:
            t = ct(text)
        except TypeSyntaxError as err:
            assert err.text == text
            assert 0 <= err.position < len(text)
            assert not text[err.position].isspace()
        else:
            assert ct(str(t)) == t


# type texts of valid and malformed tokens, split by assorted whitespace
TYPE_TEXTS = st.lists(st.sampled_from(
    ["n", "s", "np", "^", "l", "r", "x", "1", "*", "\u00e9", "\u200b",
     " ", "\t", "\n", "\u3000", "\u2028", "\u0085", "\u001c"]),
    max_size=16).map("".join)


class TestTokenTable:
    """The parser keeps each token that parsed in a table bounded by its
    total characters; a text whose tokens are all kept is parsed by
    ``str.split`` and one lookup per token, which must agree with the
    checked token-by-token parse."""

    def test_split_and_the_token_pattern_agree_on_every_code_point(self):
        # the fast path splits with str.split, the checked path with \S+;
        # each code point stands alone between two letters
        text = "a".join(map(chr, range(sys.maxunicode + 1)))
        assert text.split() == pregroup._TOKEN_RE.findall(text), [
            hex(c) for c in range(sys.maxunicode + 1)
            if ("a" + chr(c) + "b").split()
            != pregroup._TOKEN_RE.findall("a" + chr(c) + "b")]

    @settings(max_examples=300, deadline=None)
    @given(TYPE_TEXTS)
    def test_a_cold_and_a_warm_parse_agree(self, text):
        with pytest.MonkeyPatch.context() as mp:
            empty_token_table(mp)
            cold = parse_outcome(text)
            # keep each piece between other characters that parses, so that
            # a fast path that split a bad token would find its pieces kept
            for piece in re.split(r"[^A-Za-z0-9^]+", text):
                parse_outcome(piece)
            warm = parse_outcome(text)
        assert cold == warm
        if cold[0] != "error":
            assert cold[2] == tuple((t.base.name, t.adjoint) for t in cold[0])

    def test_the_key_is_given_by_the_parser_and_computed_elsewhere(self):
        t = ct("n^r s n^lr")
        built = CompoundType(t.simples)
        assert t._key is not None and built._key is None
        assert built.key == t.key == (("n", 1), ("s", 0), ("n", 0))
        assert str(built) == str(t) == "n^r s n"

    def test_bad_tokens_are_never_kept_and_the_bound_holds(self, monkeypatch):
        bound = 12
        empty_token_table(monkeypatch, bound)
        rng = random.Random(3)
        tokens = ["n", "s^l", "np^rr", "x9^l", "n^", "9n", "n*", "s^lx",
                  "a" * 13, "b" * 12, "n\u200bs"]
        for _ in range(400):
            text = " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 5)))
            outcome = parse_outcome(text)
            kept = pregroup._tokens
            assert sum(map(len, kept)) == pregroup._token_chars <= bound
            for word, (simple, key) in kept.items():
                assert len(word) <= bound
                assert key == (simple.base.name, simple.adjoint)
                assert pregroup._SIMPLE_RE.fullmatch(word)
            if outcome[0] != "error":
                assert [str(t) for t in outcome[0]] == \
                    [str(ct(w)) for w in text.split()]
        # every token was seen, and only the ones that parse were kept
        assert {"n^", "9n", "n*", "s^lx", "n\u200bs"}.isdisjoint(pregroup._tokens)
        assert ct("a" * 13 + " " + "a" * 13) == ct("a" * 13) + ct("a" * 13)
        assert "a" * 13 not in pregroup._tokens

    def test_a_compound_type_is_immutable(self):
        t = ct("n^r s n^l")
        for name in ("simples", "_text", "_key", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(t, name, ())


class TestTypes:
    def test_basic_type_rejects_junk(self):
        for bad in ["", "a b", "n^", "^"]:
            with pytest.raises(ValueError):
                BasicType(bad)

    def test_adjoints_shift_exponent(self):
        n0 = SimpleType(N)
        assert adjoint_of(n0, "left") == SimpleType(N, -1)
        assert adjoint_of(n0, "right") == SimpleType(N, 1)
        assert adjoint_of(adjoint_of(n0, "right"), "left") == n0
        assert adjoint_of(adjoint_of(n0, "left"), "right") == n0

    def test_adjoint_of_rejects_bad_side(self):
        with pytest.raises(ValueError):
            adjoint_of(SimpleType(N), "up")

    def test_concatenation_is_monoidal(self):
        a, b, c = ct("n"), ct("s n^l"), ct("n^r")
        unit = CompoundType()
        assert (a + b) + c == a + (b + c)
        assert unit + a == a == a + unit

    def test_can_contract(self):
        assert can_contract(SimpleType(N, -1), SimpleType(N, 0))
        assert can_contract(SimpleType(N, 0), SimpleType(N, 1))
        assert not can_contract(SimpleType(N, 0), SimpleType(N, 0))
        assert not can_contract(SimpleType(N, 0), SimpleType(S, 1))
        assert can_contract(SimpleType(N, 1), SimpleType(N, 2))


class TestDiagramInvariants:
    def test_cup_orientation(self):
        src = ct("n n^r n^rr n n^r")
        with pytest.raises(ValueError, match="range"):
            ReductionDiagram(src, [(3, 3)])
        with pytest.raises(ValueError, match="range"):
            ReductionDiagram(src, [(4, 1)])

    def test_rejects_crossing(self):
        src = ct("n n n^r n^r")
        with pytest.raises(ValueError, match="cross"):
            ReductionDiagram(src, frozenset({Cup(0, 2), Cup(1, 3)}))

    def test_rejects_trapped_wire(self):
        src = ct("n s n^r")
        with pytest.raises(ValueError, match="trapped"):
            ReductionDiagram(src, frozenset({Cup(0, 2)}))

    def test_rejects_non_redex(self):
        src = ct("n n")
        with pytest.raises(ValueError, match="redex"):
            ReductionDiagram(src, frozenset({Cup(0, 1)}))

    def test_rejects_overlap_and_range(self):
        src = ct("n n^r n^rr")
        with pytest.raises(ValueError, match="overlap"):
            ReductionDiagram(src, frozenset({Cup(0, 1), Cup(1, 2)}))
        with pytest.raises(ValueError, match="range"):
            ReductionDiagram(src, frozenset({Cup(0, 7)}))

    def test_rejects_crossing_cups_given_in_any_order(self):
        src = ct("n n^l n s n^r s^r")
        with pytest.raises(ValueError, match=r"\(0, 4\) and \(3, 5\) cross"):
            ReductionDiagram(src, ((3, 5), (1, 2), (0, 4)))

    def test_rejects_wire_trapped_under_outer_cup(self):
        src = ct("n s n^l n n^r")
        with pytest.raises(ValueError,
                           match=r"wire 1 is trapped under cup \(0, 4\)"):
            ReductionDiagram(src, ((2, 3), (0, 4)))

    def test_residual(self):
        src = ct("n n^l n")
        d = ReductionDiagram(src, frozenset({Cup(1, 2)}))
        assert d.residual == ct("n")
        assert ReductionDiagram(src).residual == src

    def test_value_semantics(self):
        src = ct("n n^r s n^l n^l n n")
        pairs = [(4, 5), (0, 1), (3, 6)]
        forms = [pairs, set(pairs), tuple(reversed(pairs)),
                 tuple(Cup(i, j) for i, j in pairs)]
        diagrams = [ReductionDiagram(src, cups) for cups in forms]
        assert all(d == diagrams[0] for d in diagrams)
        assert len({hash(d) for d in diagrams}) == 1
        d = diagrams[0]
        assert d.cups == ((0, 1), (3, 6), (4, 5))
        assert type(d.cups) is tuple
        assert all(type(c) is Cup for c in d.cups)
        assert d.cups[1].left_pos == 3 and d.cups[1].right_pos == 6
        assert repr(d.cups) == "((0, 1), (3, 6), (4, 5))"
        assert str(d) == "n n^r s n^l n^l n n --[(0, 1), (3, 6), (4, 5)]--> s"
        assert enumerate_reductions(src, ct("s")) == [d]


class TestEnumerate:
    def test_adjective_reduces_to_noun(self):
        out = enumerate_reductions(ct("n n^l n"), ct("n"))
        assert [d.cups for d in out] == [((1, 2),)]
        assert out[0].residual == ct("n")

    def test_transitive_sentence_reduces_to_s(self):
        out = enumerate_reductions(ct("n n^r s n^l n"), ct("s"))
        assert [d.cups for d in out] == [((0, 1), (3, 4))]

    def test_unreducible_gives_empty_list(self):
        assert enumerate_reductions(ct("n"), ct("s")) == []
        assert enumerate_reductions(ct("n n"), ct("")) == []

    def test_identity_reduction(self):
        out = enumerate_reductions(ct("n^r s"), ct("n^r s"))
        assert len(out) == 1 and out[0].cups == ()

    def test_ambiguous_attachment_and_limit(self):
        # two cup sites for the same residual: attach either adjective slot
        src = ct("n n^l n n^l n")
        full = enumerate_reductions(src, ct("n n^l n"))
        assert [d.cups for d in full] == [((1, 2),), ((3, 4),)]
        assert enumerate_reductions(src, ct("n n^l n"), limit=1) == full[:1]
        with pytest.raises(ValueError):
            enumerate_reductions(src, ct("n n^l n"), limit=0)

    def test_deterministic_and_canonically_ordered(self):
        src = ct("n n^l n n^l n n^l n")
        target = ct("n n^l n n^l n")
        a = enumerate_reductions(src, target)
        b = enumerate_reductions(src, target)
        assert len(a) >= 3
        assert [d.cups for d in a] == [d.cups for d in b]
        assert [d.cups for d in a] == \
            sorted(d.cups for d in a)

    @pytest.mark.parametrize("j", range(6))
    def test_limit_keeps_a_prefix(self, j):
        src = ct("n n^r s n^l n" + " n^r n n^l n" * j)
        full = enumerate_reductions(src, ct("s"))
        assert len(full) == [1, 1, 2, 5, 14, 42][j]
        for k in range(1, len(full) + 1):
            assert enumerate_reductions(src, ct("s"), limit=k) == full[:k]
        assert list(iter_reductions(src, ct("s"))) == full

    def test_limit_stops_early_on_a_long_chain(self, monkeypatch):
        # 6.6 * 10^9 reductions: only the chart of counts and one path; the
        # cold run fills the chart, the warm one reads it from the table
        src = ct("n n^r s n^l n" + " n^r n n^l n" * 20)
        empty_chart_table(monkeypatch)
        for table in ("cold", "warm"):
            start = time.perf_counter()
            out = enumerate_reductions(src, ct("s"), limit=1)
            elapsed = time.perf_counter() - start
            assert len(out) == 1 and out[0].residual == ct("s")
            assert elapsed < 1.0, f"{table}: took {elapsed:.3f}s"

    def test_long_adjective_chain(self):
        src = ct("n n^r s n^l" + " n n^l" * 498 + " n")
        assert len(src) == 1001
        start = time.perf_counter()
        out = enumerate_reductions(src, ct("s"))
        elapsed = time.perf_counter() - start
        assert [d.cups for d in out] == \
            [((0, 1),) + tuple((p, p + 1) for p in range(3, 1000, 2))]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    @pytest.mark.parametrize("source, target, cups", [
        (" ".join(["n^l"] * 1000 + ["n"] * 1000), "",
         [(i, 1999 - i) for i in range(1000)]),
        ("n n^r s" + " s^r s" * 1000, "s",
         [(p, p + 1) for p in range(0, 2002, 2)]),
        ("n n^r s n^l" + " n n^l" * 998 + " n", "s",
         [(0, 1)] + [(p, p + 1) for p in range(3, 2000, 2)]),
    ], ids=["nested-2000", "flat-clause-2003", "adjective-chain-2001"])
    def test_deep_and_long_inputs_at_the_default_recursion_limit(
            self, source, target, cups):
        # the tables are filled by one loop, so neither nesting depth nor
        # the number of sibling cups meets the interpreter's stack limit
        out = iter_reductions(ct(source), ct(target))
        assert next(out).cups == tuple(cups)
        assert next(out, None) is None

    @pytest.mark.parametrize("z", range(-2, 3))
    def test_yanking_rewrites_hold_per_exponent(self, z):
        p = SimpleType(N, z)
        pl = SimpleType(N, z - 1)
        pr = SimpleType(N, z + 1)

        def cups_of(simples, residual):
            return [d.cups for d in
                    enumerate_reductions(CompoundType(simples),
                                         CompoundType(residual))]

        assert cups_of([p, pr, p], [p]) == [((0, 1),)]
        assert cups_of([p, pl, p], [p]) == [((1, 2),)]
        assert cups_of([pr, p, pr], [pr]) == [((1, 2),)]
        assert cups_of([pl, p, pl], [pl]) == [((0, 1),)]


PP_CHAIN = "n n^r s n^l n"  # + " n^r n n^l n" * j: Catalan(j) reductions to s


class TestWalk:
    """The explicit-stack walk: its state belongs to one iterator, and it
    lists every reduction, as the public constructor builds it.  Iterators
    over one key share the kept chart: each test runs from an empty table,
    where the first iterator fills it, and again from the filled one."""

    def test_interleaved_iterators_match_a_single_one(self, monkeypatch):
        for src, target in [(ct(PP_CHAIN + " n^r n n^l n" * 5), ct("s")),
                            (ct("n n^l n n^l n n^l n"), ct("n n^l n"))]:
            single = list(iter_reductions(src, target))
            for table in ("cold", "warm"):
                if table == "cold":
                    empty_chart_table(monkeypatch)
                a = iter_reductions(src, target)
                b = iter_reductions(src, target)
                got_a, got_b = [], []
                for d in a:  # two steps of a for each step of b
                    got_a.append(d)
                    if len(got_a) % 2 == 0:
                        got_b.append(next(b))
                got_b.extend(b)
                assert len(single) > 2
                assert got_a == single and got_b == single

    def test_an_abandoned_iterator_leaves_fresh_ones_alone(self, monkeypatch):
        src, target = ct(PP_CHAIN + " n^r n n^l n" * 6), ct("s")
        full = list(iter_reductions(src, target))
        for table in ("cold", "warm"):
            if table == "cold":
                empty_chart_table(monkeypatch)
            abandoned = iter_reductions(src, target)
            head = list(itertools.islice(abandoned, 50))
            assert head == full[:50]
            assert list(iter_reductions(src, target)) == full
            assert list(abandoned) == full[50:]

    @pytest.mark.parametrize("j", range(9))
    def test_pp_chains_give_catalan_counts(self, j):
        src = ct(PP_CHAIN + " n^r n n^l n" * j)
        out = list(iter_reductions(src, ct("s")))
        assert len(out) == [1, 1, 2, 5, 14, 42, 132, 429, 1430][j]
        assert [d.cups for d in out] == sorted({d.cups for d in out})
        for d in out:
            assert d == ReductionDiagram(src, d.cups)
            assert all(type(c) is Cup for c in d.cups)


class TestChartTable:
    """Charts are kept by (simples, target) in a table bounded by its total
    entries; a kept chart gives what a freshly filled one gives."""

    def test_key_holds_the_simples_and_the_target(self, monkeypatch):
        src = ct("n n^l n n^l n")
        pairs = [(src, ct("n")), (src, ct("n n^l n")),
                 (ct("n n^l") + ct("n"), ct("n")),
                 (ct("n") + ct("n^l n"), ct("n"))]
        fresh = []
        for source, target in pairs:
            empty_chart_table(monkeypatch)
            fresh.append(list(iter_reductions(source, target)))
        empty_chart_table(monkeypatch)
        for (source, target), expected in zip(pairs, fresh):
            got = list(iter_reductions(source, target))
            assert got == expected
            assert [d.cups for d in got] == \
                sorted(oracle_groups(source).get(target, []))
            assert all(d.source is source for d in got)
        assert len(pregroup._charts) == 3  # the two splits share one key

    def test_eviction_keeps_the_table_within_its_bound(self, monkeypatch):
        searches = [(ct(PP_CHAIN + " n^r n n^l n" * j), ct("s"))
                    for j in range(7)]
        searches += [(ct("n n^l n n^l n n^l n"), ct(target))
                     for target in ("n", "n n^l n", "n n^l n n^l n")]
        empty_chart_table(monkeypatch)
        fresh = [list(iter_reductions(s, t)) for s, t in searches]
        bound = 200
        empty_chart_table(monkeypatch, bound)
        kept_most = 0
        for _ in range(2):
            for (source, target), expected in zip(searches, fresh):
                assert list(iter_reductions(source, target)) == expected
                kept = sum(map(chart_entries, pregroup._charts.values()))
                assert kept == pregroup._chart_entries <= bound
                kept_most = max(kept_most, kept)
        assert kept_most > bound // 2  # the table was full before it cleared
        assert len(pregroup._charts) < len(searches)

    def test_a_kept_chart_holds_nothing_the_gc_tracks(self, monkeypatch):
        # rows of ints, not Cups: the cyclic GC stops tracking them, so the
        # charts a table keeps add nothing to later collections' work
        empty_chart_table(monkeypatch)
        src = ct(PP_CHAIN + " n^r n n^l n" * 3)
        assert len(list(iter_reductions(src, ct("s")))) == 5
        for _ in range(4):  # a collection untracks one level of nesting
            gc.collect()
        (closed, reach, steps, redexes_at, listed), = pregroup._charts.values()
        rows = closed + reach + steps + redexes_at + list(listed.values())
        assert listed and not any(map(gc.is_tracked, rows))

    def test_a_chart_larger_than_the_bound_is_not_kept(self, monkeypatch):
        empty_chart_table(monkeypatch)
        list(iter_reductions(ct("n n^l n"), ct("n")))
        before = dict(pregroup._charts)
        # a flat clause of 1,603 simples: about 320,000 entries in closed
        flat = ct("n n^r s" + " s^r s" * 800)
        out = list(iter_reductions(flat, ct("s")))
        assert [d.cups for d in out] == [tuple((p, p + 1)
                                                for p in range(0, 1602, 2))]
        # neither kept nor clearing the table; keys only, as a failing
        # comparison of the charts themselves would print all 320,000 entries
        assert pregroup._charts.keys() == before.keys()


def replay_innermost_first(d):
    """Apply the cups one at a time, shortest span first, insisting the two
    ends are adjacent once inner cups are gone."""
    alive = list(range(len(d.source)))
    for i, j in sorted(d.cups, key=lambda c: c[1] - c[0]):
        ii = alive.index(i)
        assert alive[ii + 1] == j, f"cup ({i}, {j}) not adjacent after inner removal"
        assert can_contract(d.source[i], d.source[j])
        del alive[ii:ii + 2]
    return CompoundType(d.source[p] for p in alive)


def oracle_groups(source):
    """Brute-force valid matchings grouped by residual type."""
    groups = {}
    for pairs in all_partial_matchings(len(source)):
        if matching_is_valid(source, pairs):
            matched = {p for pr in pairs for p in pr}
            residual = CompoundType(
                t for p, t in enumerate(source) if p not in matched)
            groups.setdefault(residual, []).append(pairs)
    return groups


class TestAgainstBruteForce:
    def test_exhaustive_small_lengths(self):
        simples = [SimpleType(b, z)
                   for b in (BasicType("a"), BasicType("b"))
                   for z in (-1, 0, 1)]
        for length in range(0, 5):
            for combo in itertools.product(simples, repeat=length):
                source = CompoundType(combo)
                groups = oracle_groups(source)
                for residual, expected in groups.items():
                    got = [d.cups
                           for d in enumerate_reductions(source, residual)]
                    assert got == sorted(expected), str(source)
                absent = CompoundType((SimpleType(BasicType("zz")),))
                assert enumerate_reductions(source, absent) == []


    def test_seeded_sources_with_interleaved_residual_wires(self):
        # redex pairs and lone wires inserted at random places: residual
        # wires land between, under and beside cups, at lengths 9 to 11
        alphabet = [SimpleType(b, z) for b in (BasicType("a"), BasicType("b"))
                    for z in (-1, 0, 1)]
        interleaved = 0
        for seed in range(12):
            rng = random.Random(seed)
            length, simples = 9 + seed % 3, []
            while len(simples) < length:
                x, at = rng.choice(alphabet), rng.randint(0, len(simples))
                if length - len(simples) >= 2 and rng.random() < 0.7:
                    simples[at:at] = [x, adjoint_of(x, "right")]
                else:
                    simples.insert(at, x)
            source = CompoundType(simples)
            for residual, expected in oracle_groups(source).items():
                got = [d.cups for d in iter_reductions(source, residual)]
                assert got == sorted(expected), str(source)
                for cups in filter(None, got):  # a residual wire between cups?
                    matched = {p for c in cups for p in c}
                    interleaved += any(
                        p not in matched and cups[0][0] < p < cups[-1][0]
                        for p in range(length))
        assert interleaved >= 12


simple_types = st.builds(
    SimpleType,
    st.sampled_from([BasicType("a"), BasicType("b")]),
    st.integers(min_value=-1, max_value=1))
compound_types = st.builds(CompoundType, st.lists(simple_types, max_size=7))


@settings(max_examples=60, deadline=None)
@given(compound_types)
def test_enumeration_matches_oracle_and_replays(source):
    groups = oracle_groups(source)
    for residual, expected in groups.items():
        diagrams = enumerate_reductions(source, residual)
        assert [d.cups for d in diagrams] == sorted(expected)
        for k in range(1, len(diagrams) + 1):
            assert enumerate_reductions(source, residual, limit=k) == \
                diagrams[:k]
        assert list(iter_reductions(source, residual)) == diagrams
        for d in diagrams:
            assert replay_innermost_first(d) == residual
            # the search builds its diagrams unchecked: each must be the
            # one the checking public constructor builds
            checked = ReductionDiagram(d.source, d.cups)
            assert d == checked and hash(d) == hash(checked)
            assert type(d.cups) is tuple
            assert all(type(c) is Cup for c in d.cups)
            assert all(a < b for a, b in zip(d.cups, d.cups[1:]))


@settings(max_examples=60, deadline=None)
@given(compound_types)
def test_lifted_plans_match_the_checked_plan(source):
    # one dim per basic type: the checked plan rejects a cup across spaces
    assignment = {"a": VectorSpace("a", 2), "b": VectorSpace("b", 3)}
    for residual in oracle_groups(source):
        for d in iter_reductions(source, residual):
            assert lift_reduction(assignment, d) == ContractionPlan(
                spaces_of(assignment, d.source), d.cups)
