"""Tokenisation, co-occurrence counting, and lexicon persistence."""

import copy
import io
import json
import math
import pickle
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramsem.cli import default_lexicon_path
from gramsem.corpus import (ContextConfig, Lexicon, LexiconFormatError,
                            build_noun_vector, count_cooccurrence,
                            export_vectors_tsv, load_lexicon, save_lexicon,
                            tensor_literal, tokenize)
from gramsem.functor import LexiconEntry, UnassignedTypeError
from gramsem.linalg import Tensor, VectorSpace
from gramsem.pregroup import parse_type_expr

CFG = ContextConfig(("sweet", "green", "furry"), window=1)


def naive_tokenize(text, cfg):
    """The per-token reference: strip the edges, then lowercase ASCII."""
    out = []
    for token in text.split():
        if cfg.strip_punct:
            token = re.sub(r"^[^A-Za-z0-9']+|[^A-Za-z0-9']+$", "", token)
        if cfg.lowercase:
            token = token.translate(str.maketrans(string.ascii_uppercase,
                                                  string.ascii_lowercase))
        if token:
            out.append(token)
    return out


def naive_counts(tokens, cfg):
    """The window rule as a double loop over positions (p, q)."""
    counts = {}
    for p, target in enumerate(tokens):
        for q, ctx in enumerate(tokens):
            if 0 < abs(p - q) <= cfg.window and ctx in cfg.index_of:
                key = (target, cfg.index_of[ctx])
                counts[key] = counts.get(key, 0) + 1
    return counts


class TestConfig:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            ContextConfig(())
        with pytest.raises(ValueError, match="duplicate"):
            ContextConfig(("a", "b", "a"))
        with pytest.raises(ValueError):
            ContextConfig(("a",), window=0)


class TestTokenize:
    def test_strips_and_lowers(self):
        assert tokenize("Bananas are fruit.", CFG) == ["bananas", "are", "fruit"]

    def test_empty(self):
        assert tokenize("", CFG) == []
        assert tokenize("  ...  !! ", CFG) == []

    def test_keeps_inner_apostrophe(self):
        assert tokenize("don't  stop", CFG) == ["don't", "stop"]

    def test_switches_off(self):
        raw = ContextConfig(("x",), lowercase=False, strip_punct=False)
        assert tokenize("Stop! Now", raw) == ["Stop!", "Now"]

    # Unicode spaces, punctuation and letters whose case maps outside ASCII
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from(list(
               "aZz09'-.!,;\"() \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000"
               "é\u00c9\u0130\u212a\u00df\u2014\u2026\u00bf\U0001f600"))
           | st.characters(), max_size=40),
           st.booleans(), st.booleans())
    def test_matches_per_token_reference(self, text, lowercase, strip_punct):
        cfg = ContextConfig(("x",), lowercase=lowercase, strip_punct=strip_punct)
        assert tokenize(text, cfg) == naive_tokenize(text, cfg)


class TestCounting:
    def test_window_rule_hand_count(self):
        cfg = ContextConfig(("sweet",), window=1)
        counts = count_cooccurrence(["sweet", "banana", "sweet"], cfg)
        assert counts.get("banana", 0) == 2
        assert counts.get("sweet", 0) == 0

    def test_empty_tokens(self):
        counts = count_cooccurrence([], CFG)
        assert counts.counts == {}

    def test_oversized_window_is_full_text(self):
        cfg = ContextConfig(("alpha",), window=10)
        counts = count_cooccurrence(["alpha", "beta", "alpha"], cfg)
        # hand count: beta sees both alphas; each alpha sees the other
        assert counts.get("beta", 0) == 2
        assert counts.get("alpha", 0) == 2

    def test_twenty_token_stream_hand_count(self):
        # alternating sweet/banana then green/banana; window 1 means each
        # banana sees its two neighbours, so by hand:
        #   banana-sweet: 2+2+2+2+1       = 9
        #   banana-green: 1+2+2+2+2+1     = 10
        tokens = (["sweet", "banana"] * 5 + ["green", "banana"] * 5)
        cfg = ContextConfig(("sweet", "green"), window=1)
        counts = count_cooccurrence(tokens, cfg)
        assert counts.get("banana", 0) == 9
        assert counts.get("banana", 1) == 10
        assert counts.get("sweet", 0) == 0
        vec = build_noun_vector("banana", counts, cfg)
        assert vec.flat == [9, 10]

    def test_symmetry_when_contexts_are_targets(self):
        cfg = ContextConfig(("a", "b"), window=2)
        tokens = "a b a a b b a".split()
        counts = count_cooccurrence(tokens, cfg)
        assert counts.get("a", 1) == counts.get("b", 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=15),
           st.integers(1, 4))
    def test_symmetry_property(self, tokens, window):
        cfg = ContextConfig(("a", "b", "c"), window=window)
        counts = count_cooccurrence(tokens, cfg)
        idx = cfg.index_of
        for u in ("a", "b", "c"):
            for v in ("a", "b", "c"):
                assert counts.get(u, idx[v]) == counts.get(v, idx[u])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from("abcde"), max_size=16),
           st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4,
                    unique=True),
           st.integers(1, 5))
    def test_matches_naive_double_loop(self, tokens, contexts, window):
        # small alphabets make targets double as context words; windows
        # reach past short texts
        cfg = ContextConfig(tuple(contexts), window=window)
        for seq in (tokens, tuple(tokens)):
            counts = count_cooccurrence(seq, cfg).counts
            assert type(counts) is dict
            assert counts == naive_counts(tokens, cfg)

    def test_merge_adds(self):
        cfg = ContextConfig(("a",), window=1)
        c1 = count_cooccurrence("a b".split(), cfg)
        c2 = count_cooccurrence("b a".split(), cfg)
        merged = c1.merge(c2)
        assert merged.get("b", 0) == c1.get("b", 0) + c2.get("b", 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=12),
       st.lists(st.sampled_from(["a", "b", "c"]), max_size=6),
       st.integers(1, 4))
def test_appending_text_never_decreases_counts(base, extra, window):
    cfg = ContextConfig(("a", "b"), window=window)
    before = count_cooccurrence(base, cfg)
    after = count_cooccurrence(base + extra, cfg)
    for (word, idx), v in before.counts.items():
        assert after.get(word, idx) >= v


class TestVectors:
    def test_unseen_word_is_zero(self):
        counts = count_cooccurrence(["x", "y"], CFG)
        assert build_noun_vector("zebra", counts, CFG).flat == [0, 0, 0]

    def test_space_mismatch(self):
        counts = count_cooccurrence([], CFG)
        with pytest.raises(ValueError):
            build_noun_vector("x", counts, CFG, VectorSpace("n", 2))

    def test_tsv_export(self):
        cfg = ContextConfig(("sweet",), window=1)
        out = io.StringIO()
        export_vectors_tsv(["sweet", "banana", "sweet"], cfg, out)
        assert out.getvalue().splitlines() == [
            "word\tsweet", "banana\t2", "sweet\t0"]

    def test_tsv_empty_corpus_header_only(self):
        out = io.StringIO()
        export_vectors_tsv([], CFG, out)
        assert out.getvalue() == "word\tsweet\tgreen\tfurry\n"


class TestPersistence:
    def test_round_trip_toy_lexicon(self, toy_lexicon, tmp_path):
        path = tmp_path / "lex.json"
        save_lexicon(toy_lexicon, path)
        assert load_lexicon(path) == toy_lexicon

    def test_round_trip_ambiguous_lexicon(self, ambiguous_lexicon, tmp_path):
        path = tmp_path / "lex.json"
        save_lexicon(ambiguous_lexicon, path)
        assert load_lexicon(path) == ambiguous_lexicon

    def test_round_trip_programmatic(self, tmp_path):
        lex = Lexicon({"n": VectorSpace("n", 2, ("hot", "cold"))})
        lex.add("sun", "n", [9, 1])
        lex.add("ice", "n", [0, 7])
        path = tmp_path / "small.json"
        save_lexicon(lex, path)
        assert load_lexicon(path) == lex

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(LexiconFormatError, match="not valid JSON"):
            load_lexicon(path)

    def test_dims_inconsistent_with_type_names_word(self, tmp_path):
        doc = {
            "spaces": {"n": {"dim": 3}},
            "entries": [{"word": "cat", "type": "n",
                         "tensor": {"dims": [2], "data": [1, 2]}}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(LexiconFormatError, match="'cat'") as err:
            load_lexicon(path)
        assert "entries[0].tensor.dims" in str(err.value)

    def test_error_paths_name_fields(self, tmp_path):
        cases = [
            ({"spaces": [], "entries": []}, "spaces"),
            ({"spaces": {"n": {"dim": 0}}, "entries": []}, "spaces.n.dim"),
            ({"spaces": {"n": {"dim": 2, "basis": ["a"]}}, "entries": []},
             "spaces.n.basis"),
            ({"spaces": {"n": {"dim": 1}},
              "entries": [{"word": "", "type": "n",
                           "tensor": {"dims": [1], "data": [1]}}]},
             "entries[0].word"),
            ({"spaces": {"n": {"dim": 1}},
              "entries": [{"word": "w", "type": "n^",
                           "tensor": {"dims": [1], "data": [1]}}]},
             "entries[0].type"),
            ({"spaces": {"n": {"dim": 1}},
              "entries": [{"word": "w", "type": "n",
                           "tensor": {"dims": [1], "data": [1, 2]}}]},
             "entries[0].tensor.data"),
            ({"spaces": {"n": {"dim": 1}},
              "entries": [{"word": "w", "type": "q",
                           "tensor": {"dims": [1], "data": [1]}}]},
             "entries[0].type"),
            ({"spaces": {"n": {"dim": True}}, "entries": []}, "spaces.n.dim"),
            ({"spaces": {"n": {"dim": 1}},
              "entries": [{"word": "w", "type": "n n",
                           "tensor": {"dims": [True, 1], "data": [1]}}]},
             "entries[0].tensor.dims"),
            ({"spaces": {"n": {"dim": 1}},
              "entries": [{"word": "w", "type": "n",
                           "tensor": {"dims": [1], "data": [10 ** 400]}}]},
             "entries[0].tensor.data"),
            (b'{"spaces": {"\xff": {"dim": 1}}, "entries": []}', "$"),
            # nesting too deep for the decoder's stack
            (b'{"spaces": {}, "entries": ' + b"[" * 100000 + b"]" * 100000
             + b"}", "$"),
        ]
        for doc, expected_path in cases:
            path = tmp_path / "case.json"
            path.write_bytes(doc if isinstance(doc, bytes)
                             else json.dumps(doc).encode("utf-8"))
            with pytest.raises(LexiconFormatError) as err:
                load_lexicon(path)
            assert err.value.path == expected_path, expected_path

    @pytest.mark.parametrize("literal",
                             ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    def test_non_finite_data_names_the_field(self, tmp_path, literal):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"spaces": {"n": {"dim": 2}}, "entries": ['
            '{"word": "ok", "type": "n", "tensor": {"dims": [2], "data": [1, 2]}},'
            '{"word": "w", "type": "n", "tensor": {"dims": [2], "data": [1, '
            + literal + ']}}]}', encoding="utf-8")
        with pytest.raises(LexiconFormatError,
                           match="must be a list of finite numbers") as err:
            load_lexicon(path)
        assert err.value.path == "entries[1].tensor.data"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), float("1e999")])
    def test_add_rejects_non_finite_data(self, value):
        lex = Lexicon({"n": VectorSpace("n", 2)})
        with pytest.raises(ValueError, match="finite numbers"):
            lex.add("w", "n", [1, value])
        assert "w" not in lex
        # the check is on lexicon input, not on tensors: results may overflow
        state = Tensor((VectorSpace("n", 2),), [1, value])
        assert not math.isfinite(state.flat[1])

    def test_add_needs_a_space_for_every_basic_type(self):
        lex = Lexicon({"n": VectorSpace("n", 2)})
        with pytest.raises(UnassignedTypeError, match="'s'"):
            lex.add("w", "n^r s", [1, 2])
        assert "w" not in lex

    def test_save_writes_one_line_per_entry(self, ambiguous_lexicon, tmp_path):
        path = tmp_path / "lex.json"
        save_lexicon(ambiguous_lexicon, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        entries = ambiguous_lexicon.all_entries()
        assert len(lines) == len(entries) + 3
        assert lines[0].startswith('{"spaces": {"n": ')
        assert lines[1] == '"entries": [' and lines[-1] == "]}"
        records = [json.loads(line.removesuffix(",")) for line in lines[2:-1]]
        assert [(r["word"], r["type"]) for r in records] == [
            (e.word, str(e.gtype)) for e in entries]

    def test_save_empty_lexicon(self, tmp_path):
        lex = Lexicon({"n": VectorSpace("n", 2)})
        path = tmp_path / "empty.json"
        save_lexicon(lex, path)
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "spaces": {"n": {"dim": 2}}, "entries": []}
        assert load_lexicon(path) == lex

    def test_round_trip_exact_numbers_and_readings(self, tmp_path):
        lex = Lexicon({"n": VectorSpace("n", 2), "s": VectorSpace("s", 1)})
        lex.add("w", "n", [0.1, 1 / 3])
        lex.add("w", "n^r s", [-0.0, 2.0 ** 53])
        lex.add("v", "n", [-(2 ** 53), 1e-300])
        lex.add("w", "n", [2.5e300, -7])
        path = tmp_path / "exact.json"
        save_lexicon(lex, path)
        loaded = load_lexicon(path)
        assert loaded == lex
        assert [e.state.flat for e in loaded.entries_for("w")] == [
            [0.1, 1 / 3], [0.0, 2.0 ** 53], [2.5e300, -7.0]]
        # integral values are written as ints
        records = json.loads(path.read_text(encoding="utf-8"))["entries"]
        assert records[1]["tensor"]["data"] == [0, 9007199254740992]
        assert all(type(x) is int for x in records[1]["tensor"]["data"])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=2))
    def test_round_trip_any_finite_floats(self, tmp_path_factory, data):
        lex = Lexicon({"n": VectorSpace("n", 2)})
        lex.add("w", "n", data)
        path = tmp_path_factory.mktemp("floats") / "lex.json"
        save_lexicon(lex, path)
        assert load_lexicon(path) == lex

    @staticmethod
    def check_tensor_literal(data):
        """tensor_literal equals the per-element form in values and types."""
        t = Tensor((VectorSpace("n", len(data)),), data)
        want = [int(x) if x.is_integer() else x for x in t.flat]
        got = tensor_literal(t)
        assert got["dims"] == [len(data)]
        assert [(type(x), repr(x)) for x in got["data"]] == \
            [(type(x), repr(x)) for x in want]

    # meaning --json can hand tensor_literal a non-finite value before its
    # own guard, so NaN and inf are covered too
    @pytest.mark.parametrize("data", [
        [3, -0.0, 2.0 ** 53], [1, 0.5], [2.0 ** 63, 1], [-(2.0 ** 63), 1],
        [2.0 ** 63 - 1024, 1], [1e19, 0], [math.inf, 1], [-math.inf, 1],
        [math.nan, 1]])
    def test_tensor_literal_edge_values(self, data):
        self.check_tensor_literal(data)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-(2 ** 64), 2 ** 64).map(float),
        st.floats(),
        st.sampled_from([-0.0, 2.0 ** 53, 2.0 ** 63, -(2.0 ** 63), 1e19])),
        min_size=1, max_size=6))
    def test_tensor_literal_matches_per_element_form(self, data):
        self.check_tensor_literal(data)

    @pytest.mark.parametrize("literal", ["true", "false", "null", '"1"', "[1]",
                                         "{}"])
    def test_non_numbers_in_data_name_the_field(self, tmp_path, literal):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"spaces": {"n": {"dim": 2}}, "entries": ['
            '{"word": "ok", "type": "n", "tensor": {"dims": [2], "data": [1, 2.5]}},'
            '{"word": "w", "type": "n", "tensor": {"dims": [2], "data": [1, '
            + literal + ']}}]}', encoding="utf-8")
        with pytest.raises(LexiconFormatError,
                           match="must be a list of finite numbers") as err:
            load_lexicon(path)
        assert err.value.path == "entries[1].tensor.data"

    def test_type_errors_name_each_entry(self, tmp_path):
        # a type text seen before is not re-parsed, but still checked per entry
        ok = {"word": "ok", "type": "n q", "tensor": {"dims": [1, 1], "data": [1]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "spaces": {"n": {"dim": 1}},
            "entries": [dict(ok, tensor=[]), ok]}), encoding="utf-8")
        with pytest.raises(LexiconFormatError) as err:
            load_lexicon(path)
        assert err.value.path == "entries[0].tensor"
        path.write_text(json.dumps({
            "spaces": {"n": {"dim": 1}, "q": {"dim": 1}},
            "entries": [ok, dict(ok, tensor={"dims": [1], "data": [1]})]}),
            encoding="utf-8")
        with pytest.raises(LexiconFormatError, match="declares dims") as err:
            load_lexicon(path)
        assert err.value.path == "entries[1].tensor.dims"

    def test_save_is_deterministic(self, toy_lexicon, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_lexicon(toy_lexicon, p1)
        save_lexicon(toy_lexicon, p2)
        assert p1.read_text() == p2.read_text()


def added_in_file_order(path):
    """The lexicon a file describes, built by public ``Lexicon.add`` calls
    one entry at a time, in file order."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    lex = Lexicon({name: VectorSpace(name, rec["dim"], rec.get("basis"))
                   for name, rec in doc["spaces"].items()})
    for rec in doc["entries"]:
        lex.add(rec["word"], rec["type"], rec["tensor"]["data"])
    return lex


class TestLoadByTypeGroup:
    """The loader checks each type text's entries together; what it builds
    and what it reports are what adding the entries one at a time gives."""

    @staticmethod
    def write(tmp_path, *entries):
        """A file over spaces n (dim 2) and s (dim 1); each entry is
        (word, type, dims, the data list's JSON text)."""
        records = ",".join(
            f'{{"word": "{w}", "type": "{t}", '
            f'"tensor": {{"dims": {d}, "data": [{data}]}}}}'
            for w, t, d, data in entries)
        path = tmp_path / "lex.json"
        path.write_text('{"spaces": {"n": {"dim": 2}, "s": {"dim": 1}}, '
                        f'"entries": [{records}]}}', encoding="utf-8")
        return path

    def error(self, tmp_path, *entries):
        with pytest.raises(LexiconFormatError) as err:
            load_lexicon(self.write(tmp_path, *entries))
        return str(err.value)

    def test_data_error_wins_over_a_later_schema_error(self, tmp_path):
        assert self.error(
            tmp_path, ("a", "n", [2], "1, 2"), ("b", "n", [2], "1, NaN"),
            ("c", "n", [3], "1, 2")) == (
                "entries[1].tensor.data: word 'b': "
                "data must be a list of finite numbers")

    def test_first_data_error_in_the_file_wins_across_types(self, tmp_path):
        # the n group is listed first, but its bad entry comes later
        assert self.error(
            tmp_path, ("a", "n", [2], "1, 2"), ("b", "s", [1], "1e999"),
            ("c", "n", [2], "Infinity, 1")).startswith(
                "entries[1].tensor.data: word 'b': ")

    def test_huge_int_and_short_row_report_in_file_order(self, tmp_path):
        huge = "1" + "0" * 400
        assert self.error(
            tmp_path, ("a", "n", [2], f"1, {huge}"), ("b", "n", [2], "1")) == (
                "entries[0].tensor.data: word 'a': "
                "int too large to convert to float")
        assert self.error(
            tmp_path, ("a", "n", [2], "1"), ("b", "n", [2], f"1, {huge}")) == (
                "entries[0].tensor.data: word 'a': "
                "data has 1 entries, spaces (2,) need 2")

    def test_readings_of_different_types_keep_file_order(self, tmp_path):
        path = self.write(
            tmp_path, ("w", "n", [2], "1, 2"), ("x", "s", [1], "3"),
            ("w", "n^r s", [2, 1], "4, 5"), ("x", "n", [2], "6, 7"),
            ("w", "n", [2], "8, 9"))
        lex = load_lexicon(path)
        assert lex.words() == ["w", "x"]
        assert [(str(e.gtype), e.state.flat) for e in lex.entries_for("w")] == [
            ("n", [1.0, 2.0]), ("n^r s", [4.0, 5.0]), ("n", [8.0, 9.0])]
        assert [str(e.gtype) for e in lex.entries_for("x")] == ["s", "n"]

    def test_loaded_states_are_read_only(self, toy_lexicon, ambiguous_lexicon):
        for lex in (toy_lexicon, ambiguous_lexicon):
            for e in lex.all_entries():
                assert not e.state.array.flags.writeable
                with pytest.raises(ValueError):
                    e.state.array[(0,) * e.state.rank] = 1.0

    @pytest.mark.parametrize("name", ["toy_lexicon", "ambiguous_lexicon"])
    def test_shipped_lexicons_equal_one_add_at_a_time(self, name):
        path = Path(default_lexicon_path()).with_name(f"{name}.json")
        loaded, added = load_lexicon(path), added_in_file_order(path)
        assert loaded == added
        assert loaded.words() == added.words()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.lists(st.tuples(
        st.sampled_from("uvw"), st.sampled_from(["n", "s", "n^r s", "n n^l"]),
        st.lists(st.one_of(st.integers(-(2 ** 60), 2 ** 60),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=9, max_size=9)), max_size=12))
    def test_load_equals_one_add_at_a_time(self, tmp_path_factory, n, s,
                                           entries):
        dims = {"n": n, "s": s}
        records = []
        for word, gtype, data in entries:
            shape = [dims[t.split("^")[0]] for t in gtype.split()]
            records.append({"word": word, "type": gtype, "tensor": {
                "dims": shape, "data": data[:math.prod(shape)]}})
        path = tmp_path_factory.mktemp("lex") / "lex.json"
        path.write_text(json.dumps({
            "spaces": {k: {"dim": d} for k, d in dims.items()},
            "entries": records}), encoding="utf-8")
        loaded, added = load_lexicon(path), added_in_file_order(path)
        assert loaded == added
        assert loaded.words() == added.words()

    # a valid file over spaces n (dim 2) and s (dim 1), one record a row
    VALID = [("a", "n", [2], [1, 2]), ("b", "s", [1], [3]),
             ("a", "n^r s", [2, 1], [4, 5.5]), ("c", "n n^l", [2, 2], [1, 2, 3, 4]),
             ("b", "n", [2], [6, 7]), ("d", "s n^l", [1, 2], [8, 9])]

    @staticmethod
    def corruption(kind, rec, at):
        """``rec`` with one field corrupted by ``kind`` (data item ``at``
        where one is picked), with the path under ``entries[k]`` and the
        message the loader must report."""
        word, gtype, tensor = rec["word"], rec["type"], rec["tensor"]
        dims, data = tensor["dims"], tensor["data"]
        at %= len(data)
        schema = {"word": (".word", "must be a nonempty string"),
                  "type": (".type", "must be a string"),
                  "tensor": (".tensor", "must be an object"),
                  "dims": (".tensor.dims", "must be a list of positive integers"),
                  "data": (".tensor.data", "must be a list of finite numbers")}
        if kind.startswith("drop "):
            field = kind.removeprefix("drop ")
            del (tensor if field in ("dims", "data") else rec)[field]
            return rec, *schema[field]
        if kind == "record not an object":
            return [word, gtype], "", "must be an object"
        if kind.startswith("wrong JSON type "):
            field = kind.removeprefix("wrong JSON type ")
            wrong = {"word": 7, "type": [gtype], "tensor": [dims, data],
                     "dims": "2", "data": {"0": data[0]}}[field]
            (tensor if field in ("dims", "data") else rec)[field] = wrong
            return rec, *schema[field]
        if kind == "bool in dims":
            tensor["dims"] = [True] * len(dims)
            return rec, *schema["dims"]
        if kind in ("bool in data", "string in data"):
            data[at] = True if kind == "bool in data" else str(data[at])
            return rec, *schema["data"]
        if kind in ("NaN in data", "huge int in data"):
            data[at] = math.nan if kind == "NaN in data" else 10 ** 400
            return rec, ".tensor.data", f"word {word!r}: " + (
                "data must be a list of finite numbers" if kind == "NaN in data"
                else "int too large to convert to float")
        if kind == "dims disagree":
            tensor["dims"] = dims + [2]
            return rec, ".tensor.dims", (
                f"word {word!r} declares dims {dims + [2]} but type "
                f"{gtype!r} needs {dims}")
        if kind == "basic type with no space":
            rec["type"] = gtype + " q"
            return rec, ".type", (
                f"word {word!r} uses basic type 'q' with no space record")
        assert kind == "bad type text"
        rec["type"] = gtype + " n^x"
        return rec, ".type", f"bad adjoint letter 'x' at position {len(gtype) + 3}"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 3), st.sampled_from([
        "drop word", "drop type", "drop tensor", "drop dims", "drop data",
        "record not an object", "wrong JSON type word", "wrong JSON type type",
        "wrong JSON type tensor", "wrong JSON type dims",
        "wrong JSON type data", "bool in dims", "bool in data",
        "string in data", "NaN in data", "huge int in data", "dims disagree",
        "basic type with no space", "bad type text"]))
    def test_one_corrupted_field_names_its_path_and_message(
            self, tmp_path_factory, k, at, kind):
        records = [{"word": w, "type": t,
                    "tensor": {"dims": list(d), "data": list(x)}}
                   for w, t, d, x in self.VALID]
        records[k], field, message = self.corruption(kind, records[k], at)
        path = tmp_path_factory.mktemp("lex") / "lex.json"
        path.write_text(json.dumps({
            "spaces": {"n": {"dim": 2}, "s": {"dim": 1}},
            "entries": records}), encoding="utf-8")
        with pytest.raises(LexiconFormatError) as err:
            load_lexicon(path)
        assert err.value.path == f"entries[{k}]{field}"
        assert str(err.value) == f"entries[{k}]{field}: {message}"

    def test_entries_are_slotted_and_checked_only_in_public(self, toy_lexicon):
        # the loader and Lexicon.add build entries unchecked, with no
        # instance dict; each is the entry the checking constructor builds
        lex = Lexicon({"n": VectorSpace("n", 2)})
        added = lex.add("w", "n", [1, 2])
        for e in toy_lexicon.all_entries() + [added]:
            assert not hasattr(e, "__dict__")
            assert e == LexiconEntry(e.word, e.gtype, e.state)
            with pytest.raises(AttributeError):
                e.word = "x"
        with pytest.raises(ValueError, match="state rank 1 != type length 2"):
            LexiconEntry("w", parse_type_expr("n n^l"), added.state)


def test_pickle_and_deepcopy_round_trip(ambiguous_lexicon):
    # a Tensor rebuilds through its constructor, so a restored array is
    # read-only again; the four types that hold one, and a CompoundType
    from gramsem.functor import SentenceAnalysis, sentence_meaning

    def states(obj):
        if isinstance(obj, Tensor):
            return [obj]
        if isinstance(obj, LexiconEntry):
            return [obj.state]
        if isinstance(obj, Lexicon):
            return [e.state for e in obj.all_entries()]
        if isinstance(obj, SentenceAnalysis):
            return [obj.meaning] + [e.state for e in obj.words]
        return []

    lex = ambiguous_lexicon
    analysis = sentence_meaning(["moths", "saw", "men", "with", "telescopes"],
                                lex, lex.functor_assignment(), parse_index=1)
    entry = lex.entries_for("with")[1]
    for obj in [analysis.meaning, entry, lex, analysis, entry.gtype]:
        for back in [pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)]:
            assert type(back) is type(obj) and back == obj
            assert len(states(back)) == len(states(obj))
            assert not any(s.array.flags.writeable for s in states(back))
