"""Command-line behaviour: output shapes, exit codes, JSON round trips."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramsem.cli import default_lexicon_path, main, render_reduction
from gramsem import linalg, pregroup
from gramsem.linalg import Tensor, VectorSpace
from gramsem.oracle import reduction_disagreement
from gramsem.pregroup import Cup, ReductionDiagram, parse_type_expr

AMBIG = default_lexicon_path().replace("toy_lexicon", "ambiguous_lexicon")

DEMO_OUTPUT = """\
A worked example: the meaning of 'bananas are fruit'

step 1 - grammar types from the lexicon:
  bananas  :: n
  are      :: n^r s n^l
  fruit    :: n

step 2 - spaces assigned to the basic types:
  n -> dim 3 basis=['sweet', 'green', 'furry']
  s -> dim 1

step 3 - word states:
  bananas  dims [3] data [21.0, 9.0, 0.0]
  are      dims [3, 1, 3] data [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
  fruit    dims [3] data [43.0, 19.0, 0.0]

step 4 - type reductions of 'n n^r s n^l n' to 's': 1 found
n n^r s n^l n
|__|  |  |__|

step 5 - contract the word states along the cups: 1074
self-check passed: 21*43 + 9*19 + 0*0 = 1074
"""

MOTHS = ["moths", "saw", "men", "with", "telescopes"]

REDUCE_SENTENCE = """\
reduction 0: cups (0,1), (3,4)
n n^r s n^l n
|__|  |  |__|
"""

REDUCE_ADJECTIVE_JSON = """\
{
  "source": "n n^l n n^l n",
  "target": "n n^l n",
  "reductions": [
    {
      "cups": [
        [
          1,
          2
        ]
      ],
      "residual": "n n^l n"
    },
    {
      "cups": [
        [
          3,
          4
        ]
      ],
      "residual": "n n^l n"
    }
  ]
}
"""

MOTHS_PARSES = """\
parse 0: types [n . n^r s n^l . n . n^r n n^l . n] \
cups [(0,1), (3,6), (4,5), (7,8)] meaning [1627.0]
parse 1: types [n . n^r s n^l . n . s^r s n^l . n] \
cups [(0,1), (2,5), (3,4), (7,8)] meaning [3135.0]
"""

MOTHS_PARSE_1_JSON = """\
{
  "parse": [
    [
      0,
      1
    ],
    [
      2,
      5
    ],
    [
      3,
      4
    ],
    [
      7,
      8
    ]
  ],
  "meaning": {
    "dims": [
      1
    ],
    "data": [
      3135
    ]
  }
}
"""


@pytest.mark.parametrize("argv, code, out, err", [
    (["reduce", "n n^r s n^l n", "s"], 0, REDUCE_SENTENCE, ""),
    (["reduce", "n n^l n n^l n", "n n^l n", "--json"], 0,
     REDUCE_ADJECTIVE_JSON, ""),
    (["meaning", *MOTHS, "--lexicon", AMBIG, "--list-parses"], 0,
     MOTHS_PARSES, ""),
    (["meaning", *MOTHS, "--lexicon", AMBIG, "--parse-index", "1", "--json"],
     0, MOTHS_PARSE_1_JSON, ""),
    (["meaning", *MOTHS, "--lexicon", AMBIG, "--parse-index", "9"], 1, "",
     "parse_index 9 out of range: sentence has 2 parse(s)\n"),
    # the unit prints as '1' on either side
    (["reduce", "", "s"], 1, "no reduction from '1' to 's'\n", ""),
    (["reduce", "n", ""], 1, "no reduction from 'n' to '1'\n", ""),
    (["reduce", "", "s", "--json"], 1,
     '{\n  "source": "",\n  "target": "s",\n  "reductions": []\n}\n', ""),
], ids=["reduce", "reduce-json", "list-parses", "parse-index-json",
        "parse-index-out-of-range", "reduce-empty-source", "reduce-empty-target",
        "reduce-empty-source-json"])
def test_exact_output(capsys, argv, code, out, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


class TestReduce:
    def test_sentence(self, capsys):
        assert main(["reduce", "n n^r s n^l n", "s"]) == 0
        out = capsys.readouterr().out
        assert "cups (0,1), (3,4)" in out
        assert "n n^r s n^l n" in out

    def test_adjective(self, capsys):
        assert main(["reduce", "n n^l n", "n"]) == 0
        assert "cups (1,2)" in capsys.readouterr().out

    def test_no_parse_exits_1(self, capsys):
        assert main(["reduce", "n", "s"]) == 1
        assert "no reduction" in capsys.readouterr().out

    def test_syntax_error_exits_2_with_caret(self, capsys):
        for source in ["n n^x", "n\tn^x", "n\nn^x"]:
            assert main(["reduce", source, "s"]) == 2
            err = capsys.readouterr().err
            assert "syntax error" in err
            lines = err.splitlines()
            caret_line = lines[-1]
            assert caret_line.strip() == "^"
            assert caret_line.index("^") - 2 == 4  # offset of the bad letter
            # whitespace echoes as one space, so the caret sits under the letter
            assert lines[-2] == "  n n^x"

    def test_json_output(self, capsys):
        assert main(["reduce", "n n^r s n^l n", "s", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reductions"][0]["cups"] == [[0, 1], [3, 4]]
        assert doc["reductions"][0]["residual"] == "s"

    def test_identical_invocations_identical_output(self, capsys):
        main(["reduce", "n n^l n n^l n", "n n^l n", "--json"])
        first = capsys.readouterr().out
        main(["reduce", "n n^l n n^l n", "n n^l n", "--json"])
        assert capsys.readouterr().out == first

    def test_deep_nesting_reduces_under_a_low_recursion_limit(self, capsys):
        nested = " ".join(["n^l"] * 300 + ["n"] * 300)
        # flat, with 301 sibling cups
        adverbs = "n n^r s" + " s^r s" * 300
        expected = (
            (nested, "", [(i, 599 - i) for i in range(300)]),
            (adverbs, "s", [(p, p + 1) for p in range(0, 602, 2)]),
        )
        for source, target, cups in expected:
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(200)
            try:
                code = main(["reduce", source, target])
            finally:
                sys.setrecursionlimit(limit)
            captured = capsys.readouterr()
            assert code == 0
            assert captured.err == ""
            found = [line for line in captured.out.splitlines()
                     if line.startswith("reduction ")]
            assert found == ["reduction 0: cups "
                             + ", ".join(f"({i},{j})" for i, j in cups)]


class TestRenderReduction:
    def test_nested_cups_stack(self):
        src = parse_type_expr("a a a^r a^r")
        d = ReductionDiagram(src, frozenset({Cup(1, 2), Cup(0, 3)}))
        art = render_reduction(d)
        assert art.splitlines() == [
            "a a a^r a^r",
            "| |__|   |",
            "|________|",
        ]

    def test_residual_wire_passes_through(self):
        src = parse_type_expr("n n^r s n^l n")
        d = ReductionDiagram(src, frozenset({Cup(0, 1), Cup(3, 4)}))
        assert render_reduction(d).splitlines() == [
            "n n^r s n^l n",
            "|__|  |  |__|",
        ]


class TestMeaning:
    def test_worked_example(self, capsys):
        assert main(["meaning", "bananas", "are", "fruit"]) == 0
        assert "1074" in capsys.readouterr().out

    def test_object_swap(self, capsys):
        assert main(["meaning", "bananas", "are", "puppies"]) == 0
        assert "177" in capsys.readouterr().out

    def test_unknown_word_exits_1(self, capsys):
        assert main(["meaning", "bananas", "xylophone", "fruit"]) == 1
        assert "xylophone" in capsys.readouterr().err

    def test_no_parse_exits_1(self, capsys):
        assert main(["meaning", "bananas", "fruit"]) == 1
        assert "no reduction" in capsys.readouterr().err

    def test_bad_lexicon_exits_2(self, capsys, tmp_path):
        # nesting too deep for the JSON decoder is bad JSON
        deep = ('{"spaces": {}, "entries": ' + "[" * 100000 + "]" * 100000
                + "}")
        path = tmp_path / "broken.json"
        for text, message in [("[]", "$: top level must be an object"),
                              (deep, "$: not valid JSON: ")]:
            path.write_text(text, encoding="utf-8")
            assert main(["meaning", "x", "--lexicon", str(path)]) == 2
            assert capsys.readouterr().err.startswith(
                f"bad lexicon: {message}")

    def test_json_round_trips_tensor_literal(self, capsys):
        assert main(["meaning", "bananas", "are", "fruit", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parse"] == [[0, 1], [3, 4]]
        lit = doc["meaning"]
        t = Tensor((VectorSpace("s", lit["dims"][0]),), lit["data"])
        assert t.item() == 1074

    def test_parse_index_and_listing(self, capsys):
        words = ["moths", "saw", "men", "with", "telescopes"]
        assert main(["meaning", *words, "--lexicon", AMBIG, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["meaning", *words, "--lexicon", AMBIG, "--json",
                     "--parse-index", "1"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["meaning"] != second["meaning"]
        assert main(["meaning", *words, "--lexicon", AMBIG,
                     "--list-parses"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("parse 0")

    def test_parse_index_out_of_range_exits_1(self, capsys):
        assert main(["meaning", "bananas", "are", "fruit",
                     "--parse-index", "5"]) == 1

    def test_list_parses_with_json_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["meaning", "bananas", "are", "fruit", "--list-parses",
                  "--json"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and ("argument --json: not allowed with "
                                       "argument --list-parses") in captured.err

    def test_negative_parse_index_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["meaning", "bananas", "are", "fruit", "--parse-index", "-1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >= 0, got -1" in captured.err

    def test_noun_target(self, capsys):
        assert main(["meaning", "yellow", "banana", "--target", "n"]) == 0
        assert "[21.0, 9.0, 0.0]" in capsys.readouterr().out

    def test_nan_lexicon_exits_2_with_field_path(self, capsys, tmp_path):
        with open(default_lexicon_path(), encoding="utf-8") as fh:
            text = fh.read().replace("[21, 9, 0]", "[21, NaN, 0]", 1)
        path = tmp_path / "nan.json"
        path.write_text(text, encoding="utf-8")
        for flags in ([], ["--json"], ["--list-parses"]):
            assert main(["meaning", "bananas", "are", "fruit",
                         "--lexicon", str(path), *flags]) == 2
            captured = capsys.readouterr()
            assert "entries[0].tensor.data" in captured.err
            assert "NaN" not in captured.out + captured.err

    def test_json_never_prints_non_finite(self, capsys, tmp_path):
        # finite data whose meaning overflows to inf
        with open(default_lexicon_path(), encoding="utf-8") as fh:
            doc = json.load(fh)
        for entry in doc["entries"]:
            if entry["word"] in ("bananas", "fruit"):
                entry["tensor"]["data"] = [1e200, 0, 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["meaning", "bananas", "are", "fruit", "--json",
                     "--lexicon", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not JSON compliant" in captured.err

    def test_out_of_memory_exits_1_without_traceback(self, capsys,
                                                     monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.66 GiB for an array")

        monkeypatch.setattr("gramsem.functor.sentence_meaning", exhausted)
        assert main(["meaning", "bananas", "are", "fruit"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "out of memory: Unable to allocate 8.66 GiB for an array\n")


class TestVectors:
    def test_hand_counted_rows(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("sweet banana sweet", encoding="utf-8")
        contexts = tmp_path / "ctx.txt"
        contexts.write_text("sweet\n", encoding="utf-8")
        assert main(["vectors", str(corpus), "--contexts", str(contexts),
                     "--window", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "word\tsweet", "banana\t2", "sweet\t0"]

    def test_empty_corpus_header_only(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("", encoding="utf-8")
        contexts = tmp_path / "ctx.txt"
        contexts.write_text("sweet\ngreen\n", encoding="utf-8")
        assert main(["vectors", str(corpus), "--contexts", str(contexts)]) == 0
        assert capsys.readouterr().out == "word\tsweet\tgreen\n"

    def test_duplicate_contexts_exit_2(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b", encoding="utf-8")
        contexts = tmp_path / "ctx.txt"
        contexts.write_text("a\na\n", encoding="utf-8")
        assert main(["vectors", str(corpus), "--contexts", str(contexts)]) == 2
        assert capsys.readouterr().err == "duplicate context words: a\n"

    def test_empty_contexts_exit_2(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b", encoding="utf-8")
        contexts = tmp_path / "ctx.txt"
        contexts.write_text("\n", encoding="utf-8")
        assert main(["vectors", str(corpus), "--contexts", str(contexts)]) == 2
        assert capsys.readouterr().err == "context_words must be nonempty\n"

    def test_missing_corpus_exits_1(self, capsys, tmp_path):
        contexts = tmp_path / "ctx.txt"
        contexts.write_text("a\n", encoding="utf-8")
        assert main(["vectors", str(tmp_path / "nope.txt"),
                     "--contexts", str(contexts)]) == 1

    @pytest.mark.parametrize("bad, message", [
        ("corpus", "cannot read corpus: "),
        ("contexts", "cannot read context file: ")],
        ids=["corpus", "contexts"])
    def test_non_utf8_input_exits_1(self, capsys, tmp_path, bad, message):
        paths = {}
        for name in ("corpus", "contexts"):
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_bytes(b"caf\xe9 cat\n" if name == bad
                                    else b"cat\n")
        assert main(["vectors", str(paths["corpus"]),
                     "--contexts", str(paths["contexts"])]) == 1
        assert capsys.readouterr().err.startswith(
            message + "'utf-8' codec can't decode byte 0xe9")


class TestVerifyAndDemo:
    def test_verify_yanking(self, capsys):
        assert main(["verify", "yanking", "--dims", "1..4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_verify_preller(self, capsys):
        assert main(["verify", "preller", "--dims", "1..3"]) == 0

    def test_verify_galois(self, capsys):
        assert main(["verify", "galois", "--window=-15..15", "--seed", "3"]) == 0

    def test_verify_oracle_small(self, capsys):
        assert main(["verify", "oracle", "--max-len", "5"]) == 0

    def test_verify_contract(self, capsys):
        assert main(["verify", "contract", "--seed", "3",
                     "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "(20 seeded lexicons)" in out

    def test_verify_contract_catches_a_wrong_fold(self, capsys, monkeypatch):
        real = linalg.contract_states

        def off_by_one(states, plan):
            t = real(states, plan)
            return Tensor(t.spaces, t.array + (len(plan.pairs) > 1))

        monkeypatch.setattr("gramsem.oracle.contract_states", off_by_one)
        assert main(["verify", "contract", "--samples", "20"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("fault", ["drops the last", "reaches q"])
    def test_verify_oracle_catches_a_wrong_search(self, capsys, monkeypatch,
                                                  fault):
        real = pregroup.enumerate_reductions

        def wrong(source, target):
            if fault == "drops the last":
                return real(source, target)[:-1]
            return real(source, source if str(target) == "q" else target)

        monkeypatch.setattr("gramsem.oracle.enumerate_reductions", wrong)
        assert reduction_disagreement(parse_type_expr("n n^r s n^l n"))
        assert main(["verify", "oracle", "--max-len", "4"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["contract", "--samples", "-1"], "--samples: must be >= 1, got -1"),
        (["oracle", "--max-len", "-1"], "--max-len: must be >= 0, got -1"),
        (["yanking", "--dims", "5..3"], "empty range '5..3'"),
        (["galois", "--window=5..-5"], "empty range '5..-5'"),
        (["oracle", "--max-len", "7", "--samples", "0"],
         "--samples: must be >= 1, got 0"),
    ])
    def test_verify_refuses_to_check_nothing(self, capsys, argv, message):
        try:
            code = main(["verify", *argv])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_demo_self_checks(self, capsys):
        assert main(["demo"]) == 0
        assert capsys.readouterr().out == DEMO_OUTPUT

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["reduce"])
        assert err.value.code == 2


# The exit-code contract over generated arguments: type texts with
# malformed tokens, words the lexicon lacks, and corrupted lexicons.
GOOD_TOKENS = ["n", "s", "n^l", "n^r", "s^l", "s^r", "n^ll", "n^lr", "x"]
BAD_TOKENS = ["n^", "n^x", "9", "n*", "^l", "n\u200bs"]
FUZZ_WORDS = ["moths", "saw", "men", "with", "telescopes", "cats"]
SENTENCES = [["moths", "saw", "men"],
             ["moths", "saw", "men", "with", "telescopes"],
             ["men", "saw", "moths", "with", "men", "with", "moths"]]
JUNK = [None, -1, 0, 2.5, True, "x", "n^x", "s n", [], [0], [3, 3], [1, "a"],
        {}]
# three texts in four hold only tokens that parse
type_texts = st.lists(st.sampled_from(GOOD_TOKENS), max_size=7).map(" ".join)
type_texts = type_texts | type_texts | type_texts | st.lists(
    st.sampled_from(GOOD_TOKENS + BAD_TOKENS), max_size=7).map(" ".join)


def corrupted(data, text):
    """``text``, a lexicon file, with one character, its tail or one JSON
    field spoiled."""
    kind = data.draw(st.sampled_from(["char", "cut", "entry", "space"]))
    if kind == "char":
        i = data.draw(st.integers(0, len(text) - 1))
        return (text[:i] + data.draw(st.sampled_from('{}[]",:-.019enrs^ '))
                + text[i + 1:])
    if kind == "cut":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    value = data.draw(st.sampled_from(JUNK))
    if kind == "space":
        doc["spaces"][data.draw(st.sampled_from(["n", "s"]))]["dim"] = value
    else:
        entry = data.draw(st.sampled_from(doc["entries"]))
        field = data.draw(st.sampled_from(["word", "type", "tensor", "dims",
                                           "data"]))
        (entry["tensor"] if field in ("dims", "data") else entry)[field] = value
    return json.dumps(doc)


@pytest.fixture(scope="module")
def fuzz_lexicon(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "lexicon.json"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduce_and_meaning_exit_0_1_or_2(fuzz_lexicon, data):
    if data.draw(st.booleans()):
        argv = ["reduce", data.draw(type_texts), data.draw(type_texts)]
        argv += data.draw(st.sampled_from([[], ["--json"]]))
    else:
        sentences = st.sampled_from(SENTENCES)
        words = data.draw(sentences | sentences | st.lists(
            st.sampled_from(FUZZ_WORDS), min_size=1, max_size=6))
        argv = ["meaning", *words, "--lexicon", AMBIG]
        if data.draw(st.booleans()):
            with open(AMBIG, encoding="utf-8") as fh:
                fuzz_lexicon.write_text(corrupted(data, fh.read()),
                                        encoding="utf-8")
            argv[-1] = str(fuzz_lexicon)
        if data.draw(st.integers(0, 3)) == 0:
            argv += ["--target", data.draw(type_texts)]
        index = st.sampled_from([0, 0, 0, 1, 2, 4, -1])
        argv += ["--parse-index", str(data.draw(index))]
        argv += data.draw(st.sampled_from([[], ["--json"], ["--list-parses"]]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 0 and "--json" in argv:
        json.loads(out.getvalue())
