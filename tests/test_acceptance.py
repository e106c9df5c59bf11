"""Acceptance gate: the shipped behaviour every release must reproduce.

Each test covers one numbered criterion, checks it at its stated tolerance
(exact integer arithmetic unless noted), and prints one PASS/FAIL line.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.
"""

import functools
import itertools
import json
import random
import time

import numpy as np
import pytest

from gramsem.cli import main as cli_main
from gramsem.corpus import LexiconFormatError, load_lexicon, save_lexicon
from gramsem.functor import (enumerate_analyses, preller_obstruction,
                             sentence_meaning)
from gramsem.linalg import (Tensor, VectorSpace, make_eta, process_to_state,
                            state_to_process, yanking_check)
from gramsem.monotone import (MonotoneMap, galois_check, monotone_left_dual,
                              monotone_right_dual)
from gramsem.oracle import reduction_disagreement
from gramsem.pregroup import (BasicType, CompoundType, SimpleType,
                              enumerate_reductions, parse_type_expr)


def report(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {description}")
                raise
            print(f"[criterion {number}] PASS  {description}")
        return wrapper
    return decorate


@report(1, "golden worked example: bananas are fruit -> exactly 1074, < 1 s")
def test_c1_golden_worked_example(capsys):
    start = time.perf_counter()
    code = cli_main(["meaning", "bananas", "are", "fruit", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        doc = json.loads(out)
        assert doc["meaning"]["dims"] == [1]
        assert doc["meaning"]["data"] == [1074]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


@report(2, "grammar fixtures: exact reduction diagrams")
def test_c2_grammar_fixtures():
    adjective = enumerate_reductions(parse_type_expr("n n^l n"),
                                     parse_type_expr("n"))
    assert [d.cups for d in adjective] == [((1, 2),)]
    sentence = enumerate_reductions(parse_type_expr("n n^r s n^l n"),
                                    parse_type_expr("s"))
    assert [d.cups for d in sentence] == [((0, 1), (3, 4))]


@report(3, "yanking suite: dims 1..16 exact (tolerance 0), < 1 s")
def test_c3_yanking_suite():
    start = time.perf_counter()
    for dim in range(1, 17):
        assert yanking_check(dim, tol=0.0), f"dim {dim}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@report(4, "preller obstruction: dims 2..8 non-identity with zero witness; "
           "dim 1 identity")
def test_c4_preller_obstruction():
    for dim in range(2, 9):
        w = preller_obstruction(dim)
        assert not w.is_identity, f"dim {dim}"
        assert w.zero_witness == (0, 1, 0), f"dim {dim}"
    assert preller_obstruction(1).is_identity


@report(5, "reduction search equals brute force: all lengths <= 5, "
           ">= 10^4 seeded lengths 6..8, < 60 s")
def test_c5_oracle_equivalence():
    start = time.perf_counter()
    alphabet = [SimpleType(b, z)
                for b in (BasicType("a"), BasicType("b"))
                for z in (-1, 0, 1)]

    for length in range(0, 6):
        for combo in itertools.product(alphabet, repeat=length):
            assert reduction_disagreement(CompoundType(combo)) is None

    rng = random.Random(0)
    sampled = 0
    for length in (6, 7, 8):
        for _ in range(3500):
            source = CompoundType(rng.choice(alphabet) for _ in range(length))
            assert reduction_disagreement(source) is None
            sampled += 1
    assert sampled >= 10 ** 4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@report(6, "galois suite: doubling closed forms and biconditionals on "
           "[-100, 100]; 5 seeded maps")
def test_c6_galois_suite():
    double = MonotoneMap(lambda m: 2 * m, name="double")
    for n in range(-100, 101):
        assert monotone_left_dual(double, n) == (n + 1) // 2
        assert monotone_right_dual(double, n) == n // 2
    assert galois_check(double, (-100, 100))
    rng = random.Random(0)
    for _ in range(5):
        a, d, b = rng.randint(1, 5), rng.randint(1, 4), rng.randint(-20, 20)
        f = MonotoneMap(lambda m, a=a, b=b, d=d: a * (m // d) + b,
                        name=f"stair({a},{d},{b})")
        assert galois_check(f, (-100, 100)), f.name


@report(7, "process-state duality: exact reshape round trips on every "
           "shipped tensor; eta(3) is the 3x3 identity")
def test_c7_process_state_duality(toy_lexicon, ambiguous_lexicon):
    assert np.array_equal(state_to_process(make_eta(VectorSpace("n", 3))),
                          np.eye(3))
    for lexicon in (toy_lexicon, ambiguous_lexicon):
        for entry in lexicon.all_entries():
            t = entry.state
            if t.rank == 2:
                again = process_to_state(state_to_process(t), t.spaces)
                assert again == t, entry.word
            # any state is also a matrix after grouping trailing indices
            rows = t.dims[0] if t.rank else 1
            cols = max(int(np.prod(t.dims[1:])), 1) if t.rank else 1
            v = VectorSpace("rows", rows)
            w = VectorSpace("cols", cols)
            grouped = Tensor((v, w), t.array.reshape(rows, cols))
            again = process_to_state(state_to_process(grouped), (v, w))
            assert again == grouped, entry.word
            assert again.flat == t.flat, entry.word


@report(8, "ambiguity fixture: >= 2 distinct parses, exact match with the "
           "committed brute-force meanings")
def test_c8_ambiguity_fixture(ambiguous_lexicon, ambiguous_expected):
    words = ambiguous_expected["sentence"]
    analyses = enumerate_analyses(words, ambiguous_lexicon,
                                  ambiguous_lexicon.functor_assignment(),
                                  ambiguous_expected["target"])
    expected = ambiguous_expected["parses"]
    assert len(analyses) == len(expected) and len(analyses) >= 2
    for analysis, exp in zip(analyses, expected):
        assert [str(e.gtype) for e in analysis.words] == exp["types"]
        assert [list(c) for c in analysis.chosen.cups] == exp["cups"]
        assert list(analysis.meaning.dims) == exp["meaning"]["dims"]
        assert analysis.meaning.flat == [float(x) for x in exp["meaning"]["data"]]
    assert len({tuple(a.meaning.flat) for a in analyses}) >= 2
    first = sentence_meaning(words, ambiguous_lexicon,
                             ambiguous_lexicon.functor_assignment(), 0)
    second = sentence_meaning(words, ambiguous_lexicon,
                              ambiguous_lexicon.functor_assignment(), 1)
    assert first.meaning != second.meaning


@report(9, "persistence: lossless round trips for shipped lexicons; "
           "malformed files name the bad field")
def test_c9_persistence(toy_lexicon, ambiguous_lexicon, tmp_path):
    for k, lexicon in enumerate((toy_lexicon, ambiguous_lexicon)):
        path = tmp_path / f"lex{k}.json"
        save_lexicon(lexicon, path)
        assert load_lexicon(path) == lexicon
    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    with pytest.raises(LexiconFormatError):
        load_lexicon(broken)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "spaces": {"n": {"dim": 3}},
        "entries": [{"word": "cat", "type": "n",
                     "tensor": {"dims": [2], "data": [1, 2]}}],
    }), encoding="utf-8")
    with pytest.raises(LexiconFormatError) as err:
        load_lexicon(bad)
    assert err.value.path == "entries[0].tensor.dims"
    assert "cat" in str(err.value)
