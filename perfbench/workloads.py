"""The benchmark's four workloads.

Each workload generates its inputs from the seed when it is built (not
timed), then offers ``setup()`` (the program's own set-up, timed and
repeated), ``batch`` (one round of operations), ``run(op)`` (one timed
operation) and ``check(op, out)``, which compares the output with
:mod:`reference` and returns False only for the one failure the benchmark
expects.  Program functions are looked up on their modules at call time,
so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gramsem import cli, corpus, functor, pregroup

import reference as ref
from reference import expect

TARGET = [("s", 0)]
POS_TYPES = {
    "N": ("n",),
    "A": ("n n^l",),
    "V": ("n^r s n^l",),
    "I": ("n^r s",),
    "P": ("n^r n n^l", "s^r s n^l"),  # noun attachment, then sentence attachment
    "R": ("s^r s",),
}
# generated words per part of speech: about 12,000, so that one load takes
# about half a second and its timing averages over the host's speed swings
LEXICON_SIZES = {"N": 6000, "A": 2400, "V": 2000, "I": 1200, "P": 240, "R": 320}
# words with seed-independent data, used by the clauses that fail today
FIXED_WORDS = {"tom": "N", "jerry": "N", "spike": "N", "chases": "V",
               "sleeps": "I", "surely": "R"}
SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def make_words(rng, count, taken):
    out = []
    while len(out) < count:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def shape_of(type_str, dims):
    return tuple(dims[base] for base, _ in ref.parse_types(type_str))


def make_table(seed, dims, sizes):
    """``{word: [(type, int array), ...]}`` in lexicon order, and the words
    of each part of speech.  Readings keep the order of POS_TYPES."""
    rng = random.Random(seed)
    data = np.random.default_rng(seed)
    fixed = np.random.default_rng(0)
    taken = set(FIXED_WORDS)
    table, by_pos = {}, {}
    for pos, count in sizes.items():
        by_pos[pos] = make_words(rng, count, taken)
        for word in by_pos[pos]:
            table[word] = [(t, data.integers(0, 4, size=shape_of(t, dims)))
                           for t in POS_TYPES[pos]]
    for word, pos in FIXED_WORDS.items():
        table[word] = [(t, fixed.integers(0, 4, size=shape_of(t, dims)))
                       for t in POS_TYPES[pos]]
    return table, by_pos


def write_lexicon(path, spaces, table):
    """The lexicon JSON format, one entry per line, written without gramsem."""
    lines = [json.dumps({"word": w, "type": t,
                         "tensor": {"dims": list(a.shape),
                                    "data": a.reshape(-1).tolist()}})
             for w, readings in table.items() for t, a in readings]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"spaces": ' + json.dumps(spaces) + ',\n"entries": [\n'
                 + ",\n".join(lines) + "\n]}\n")


def simples_of(table, words, readings):
    return [s for w, r in zip(words, readings)
            for s in ref.parse_types(table[w][r][0])]


@dataclass(frozen=True)
class Sentence:
    words: tuple
    parse_index: int
    parses: tuple  # ((reading per word), cups) in the program's parse order


def sentence_parses(table, words):
    """Every (reading combination, reduction) pair: combinations in lexicon
    entry order with the rightmost word fastest, reductions sorted."""
    out = []
    for combo in itertools.product(*(range(len(table[w])) for w in words)):
        for cups in ref.list_reductions(simples_of(table, words, combo), TARGET):
            out.append((combo, cups))
    return tuple(out)


def expected_meaning(table, words, combo, cups):
    arrays = [table[w][r][1] for w, r in zip(words, combo)]
    return ref.meaning(arrays, [a.ndim for a in arrays], cups)


def parse_rank(table, words, combo):
    return sum(table[w][r][1].ndim for w, r in zip(words, combo))


class Sentences:
    """In-process ``sentence_meaning`` at a seeded parse index."""

    name = "sentences"
    DIM_N = 5
    CAP = 10 ** 7  # largest word-state product of any parse, in elements
    # (skeleton, copies per round); N noun, A adjective, V transitive verb,
    # I intransitive verb, P two-reading preposition, R sentence adverb.  A
    # parse with m noun wires builds d^m elements: m <= 6 is tiny, m = 8 takes
    # about 1 ms and m = 10 about 70 ms, so most of the mix is m = 10 and the
    # median operation is one of those.
    MIX = [
        ("N I", 1), ("N V N R", 1), ("A N V N", 1), ("N I P N", 1),
        ("A N V A N", 2), ("A A N V N", 1), ("N V A A N R", 1),
        ("N V N P N", 2), ("A N V A N R R", 1), ("N I P N P N", 2),
        ("A A A N I", 1),
        ("A A N V A N", 4), ("A N V A A N", 4), ("A A A N V N", 3),
        ("A N V N P N", 3), ("N V A N P N", 3), ("A A N V A N R", 3),
        ("A A N V A N R R", 3),
    ]
    # grammatical clauses of rank > 52 that fail today in linalg.contract
    FAILING = [("tom chases jerry" + " surely" * 24).split(),
               ("spike sleeps" + " surely" * 25).split(),
               ("jerry chases spike" + " surely" * 26).split()]

    def __init__(self, seed, workdir):
        dims = {"n": self.DIM_N, "s": 1}
        self.table, by_pos = make_table(seed, dims, LEXICON_SIZES)
        self.path = os.path.join(workdir, "sentences_lexicon.json")
        write_lexicon(self.path, {k: {"dim": d} for k, d in dims.items()},
                      self.table)
        rng = random.Random(seed)
        word_lists = [[rng.choice(by_pos[p]) for p in skeleton.split()]
                      for skeleton, copies in self.MIX for _ in range(copies)]
        self.batch = []
        for words in word_lists + self.FAILING:
            parses = sentence_parses(self.table, words)
            for combo, _ in parses:
                size = np.prod([self.table[w][r][1].size
                                for w, r in zip(words, combo)])
                if size > self.CAP:
                    raise RuntimeError(f"{words} exceeds the product cap")
            self.batch.append(Sentence(tuple(words), rng.randrange(len(parses)),
                                       parses))
        rng.shuffle(self.batch)
        self._meanings = {}

    def setup(self):
        self.lexicon = corpus.load_lexicon(self.path)
        self.assignment = self.lexicon.functor_assignment()

    def run(self, op):
        return functor.sentence_meaning(list(op.words), self.lexicon,
                                        self.assignment,
                                        parse_index=op.parse_index)

    def _rank_failure(self, op, out):
        """True if ``out`` is the rank-limit error the first parse of rank
        > 52 raises today (any such parse stops the whole enumeration)."""
        ranks = [parse_rank(self.table, op.words, c) for c, _ in op.parses]
        big = [r for r in ranks if r > 52]
        return (isinstance(out, ValueError) and bool(big)
                and str(out) == f"rank {big[0]} exceeds contraction limit")

    def check(self, op, out):
        if isinstance(out, Exception):
            expect(self._rank_failure(op, out),
                   f"{' '.join(op.words)!r} raised {out!r}")
            return False
        combo, cups = op.parses[op.parse_index]
        expect([e.word for e in out.words] == list(op.words),
               f"words {[e.word for e in out.words]}")
        expect([str(e.gtype) for e in out.words]
               == [self.table[w][r][0] for w, r in zip(op.words, combo)],
               f"readings of {op.words} are not combination {combo}")
        got = tuple(sorted((c.left_pos, c.right_pos) for c in out.chosen.cups))
        ref.check_reduction(simples_of(self.table, op.words, combo), TARGET, got)
        expect(got == cups, f"parse {op.parse_index} has cups {got}, expected {cups}")
        if op not in self._meanings:
            self._meanings[op] = expected_meaning(self.table, op.words, combo, cups)
        want = self._meanings[op]
        expect(out.meaning.array.shape == want.shape
               and np.array_equal(out.meaning.array, want),
               f"meaning of {' '.join(op.words)!r} is "
               f"{out.meaning.array.tolist()}, expected {want.tolist()}")
        return True

    def warmup_check(self, op):
        """The parse count: one index past the last parse is out of range."""
        count = len(op.parses)
        try:
            functor.sentence_meaning(list(op.words), self.lexicon,
                                     self.assignment, parse_index=count)
        except IndexError as exc:
            expect(f"sentence has {count} parse(s)" in str(exc),
                   f"parse count of {' '.join(op.words)!r}: {exc}")
        except ValueError as exc:
            expect(self._rank_failure(op, exc), f"count probe raised {exc!r}")
        else:
            raise ref.Mismatch(f"parse index {count} of {op.words} did not raise")


@dataclass(frozen=True)
class Derivation:
    words: tuple
    readings: tuple
    limit: int | None


class Grammar:
    """In-process ``parse_type_expr`` + ``enumerate_reductions`` on long
    concatenated types; no tensor is built."""

    name = "grammar"

    # (skeleton, limit); Pn / Ps are a preposition under its noun / sentence reading
    MIX = ([("N V" + " A" * k + " N", None)
            for k in (40, 45, 50, 55, 60, 65, 70, 80, 90, 100)]
           + [("N V N" + " Pn N" * k, None) for k in (5, 6, 6, 7, 7, 8)]
           + [("N V N" + " Pn N" * k, 1) for k in (6, 7, 8)]
           + [("N V" + " A" * 75 + " N", 1)]
           + [("N V N" + " R" * k, None) for k in (40, 60)]
           + [("N V N" + " Pn N Ps N" * 3, None)])

    def __init__(self, seed, workdir):
        dims = {"n": 1, "s": 1}
        self.table, by_pos = make_table(seed, dims, LEXICON_SIZES)
        self.path = os.path.join(workdir, "grammar_lexicon.json")
        write_lexicon(self.path, {k: {"dim": d} for k, d in dims.items()},
                      self.table)
        rng = random.Random(seed)
        self.batch = []
        for skeleton, limit in self.MIX:
            tags = skeleton.split()
            words = tuple(rng.choice(by_pos[t[0]]) for t in tags)
            readings = tuple(1 if t == "Ps" else 0 for t in tags)
            self.batch.append(Derivation(words, readings, limit))
        rng.shuffle(self.batch)
        self._verified = {}  # op -> its reductions, once checked in full

    def setup(self):
        self.lexicon = corpus.load_lexicon(self.path)
        self.target = pregroup.parse_type_expr("s")

    def run(self, op):
        text = " ".join(str(self.lexicon.entries_for(w)[r].gtype)
                        for w, r in zip(op.words, op.readings))
        source = pregroup.parse_type_expr(text)
        return source, pregroup.enumerate_reductions(source, self.target, op.limit)

    def check(self, op, out):
        if isinstance(out, Exception):
            raise ref.Mismatch(f"raised {out!r}")
        source, diagrams = out
        simples = simples_of(self.table, op.words, op.readings)
        expect([(t.base.name, t.adjoint) for t in source] == simples,
               "parse_type_expr disagrees with the reference parse")
        found = []
        for d in diagrams:
            if [(t.base.name, t.adjoint) for t in d.residual] != TARGET:
                raise ref.Mismatch(f"residual {d.residual} is not the target")
            found.append(tuple(sorted((c.left_pos, c.right_pos) for c in d.cups)))
        # an output equal to one this run already verified is verified too;
        # the reference check below costs as much as the call it checks
        if self._verified.get(op) == found:
            return True
        count = ref.count_reductions(simples, TARGET)
        want = count if op.limit is None else min(count, op.limit)
        expect(len(found) == want,
               f"{len(found)} reductions of {len(simples)} simples, "
               f"expected {want} (limit {op.limit})")
        previous = None
        for cups in found:
            ref.check_reduction(simples, TARGET, cups)
            expect(previous is None or previous < cups,
                   "reductions are not sorted or repeat")
            previous = cups
        self._verified[op] = found
        return True


@dataclass(frozen=True)
class Document:
    text: str
    tokens: tuple
    nouns: tuple


def zipf_corpus(rng, vocab_size, lengths):
    """A Zipf vocabulary and documents decorated with capitals and edge
    punctuation; ``tokens`` is what tokenization must give back."""
    vocab = make_words(rng, vocab_size, set())
    for k in range(0, vocab_size, 29):  # internal apostrophes survive stripping
        vocab[k] = vocab[k][:2] + "'" + vocab[k][2:]
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(vocab_size)))
    docs = []
    for length in lengths:
        tokens = rng.choices(vocab, cum_weights=cum, k=length)
        pieces = []
        for k, tok in enumerate(tokens):
            r = rng.random()
            if r < 0.10:
                tok = tok.capitalize()
            elif r < 0.12:
                tok = tok.upper()
            if rng.random() < 0.12:
                tok += rng.choice((",", ".", "!", "?", ";", ":", ")", '"',
                                   ".)", "...", ',"'))
            if rng.random() < 0.04:
                tok = rng.choice(("(", '"', "[", "--")) + tok
            if rng.random() < 0.01:
                pieces.append(rng.choice(("--", "-", "—", "...")))
            pieces.append(tok)
            pieces.append("\n" if k % 15 == 14 else " ")
        docs.append(("".join(pieces), tuple(tokens)))
    return vocab, docs


class Corpus:
    """Per document: ``tokenize``, ``count_cooccurrence``,
    ``build_noun_vector`` for its nouns, ``save_lexicon``, ``load_lexicon``."""

    name = "corpus"
    VOCAB = 3000
    BASE_WORDS = 8000  # the base lexicon: the vocabulary plus background words
    CONTEXTS = 100
    WINDOW = 3
    DOC_LENGTHS = (2000, 3000, 4000, 5000, 6000, 7000, 8000)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        vocab, docs = zipf_corpus(rng, self.VOCAB, self.DOC_LENGTHS)
        nouns = set(rng.sample(vocab, self.VOCAB // 6))
        self.contexts = tuple(rng.sample(vocab[5:300], self.CONTEXTS))
        data = np.random.default_rng(seed)
        background = make_words(rng, self.BASE_WORDS - self.VOCAB, set(vocab))
        base = {w: [("n", data.integers(0, 10, size=self.CONTEXTS))]
                for w in vocab + background}
        self.base_path = os.path.join(workdir, "corpus_base.json")
        write_lexicon(self.base_path,
                      {"n": {"dim": self.CONTEXTS, "basis": list(self.contexts)}},
                      base)
        self.out_path = os.path.join(workdir, "corpus_doc.json")
        self.batch = [Document(text, tokens,
                               tuple(dict.fromkeys(t for t in tokens if t in nouns)))
                      for text, tokens in docs]
        rng.shuffle(self.batch)
        self._counts = {}  # doc -> reference counts and noun vector rows

    def setup(self):
        self.cfg = corpus.ContextConfig(self.contexts, window=self.WINDOW)
        self.base = corpus.load_lexicon(self.base_path)
        self.space = self.base.spaces["n"]
        self.noun_type = pregroup.parse_type_expr("n")

    def run(self, doc):
        tokens = corpus.tokenize(doc.text, self.cfg)
        counts = corpus.count_cooccurrence(tokens, self.cfg)
        lexicon = corpus.Lexicon(self.base.spaces)
        vectors = []
        for word in doc.nouns:
            vectors.append(corpus.build_noun_vector(word, counts, self.cfg, self.space))
            lexicon.add(word, self.noun_type, vectors[-1].array)
        corpus.save_lexicon(lexicon, self.out_path)
        return tokens, counts, vectors, lexicon, corpus.load_lexicon(self.out_path)

    def check(self, doc, out):
        if isinstance(out, Exception):
            raise ref.Mismatch(f"raised {out!r}")
        tokens, counts, vectors, lexicon, loaded = out
        expect(tuple(tokens) == doc.tokens, "tokenize lost or altered tokens")
        if doc not in self._counts:
            want = ref.window_counts(doc.tokens, self.contexts, self.WINDOW)
            rows = np.array([[want.get((word, k), 0) for k in range(self.CONTEXTS)]
                             for word in doc.nouns])
            self._counts[doc] = want, rows
        want, rows = self._counts[doc]
        expect(counts.counts == want, "co-occurrence counts differ")
        expect(len(vectors) == len(doc.nouns), "missing noun vectors")
        expect(loaded.words() == list(doc.nouns), "loaded lexicon words differ")
        entries = [loaded.entries_for(word) for word in doc.nouns]
        expect(all(len(e) == 1 and str(e[0].gtype) == "n" for e in entries),
               "a loaded entry is not one noun")
        for name, got in (("vector", [v.array for v in vectors]),
                          ("loaded entry", [e[0].state.array for e in entries])):
            got = np.array(got)
            if not (got.shape == rows.shape and np.array_equal(got, rows)):
                bad = next((w for w, g, r in zip(doc.nouns, got, rows)
                            if not np.array_equal(g, r)), None)
                raise ref.Mismatch(f"{name} of {bad!r} differs")
        space = loaded.spaces["n"]
        expect(space.dim == self.CONTEXTS and space.basis_labels == self.contexts,
               "loaded noun space differs")
        expect(loaded == lexicon, "load_lexicon(save_lexicon(x)) != x")
        return True


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple
    expected: object


# the console-script entry point, run in a fresh interpreter
LAUNCH = "import sys; from gramsem.cli import main; sys.exit(main())"
_LIST_LINE = re.compile(r"parse (\d+): types \[(.*)\] cups \[(.*)\] meaning \[(.*)\]")


def _pairs(text):
    return tuple((int(i), int(j)) for i, j in re.findall(r"\((\d+),\s*(\d+)\)", text))


class Cli:
    """A fixed cycle of light ``gramsem`` invocations, one process at a time.
    Traced, the same cycle runs in-process through ``cli.main``."""

    name = "cli"
    rusage = resource.RUSAGE_CHILDREN  # peak memory is the largest child's
    MEANING = ("A N V N", "N V A N R", "N I P N")
    LIST = ("N V N P N", "N I P N P N")
    REDUCE = ("N V N Pn N Pn N Pn N", "N V N Pn N Pn N Pn N Pn N", "N V" + " A" * 10 + " N")
    VECTORS_WINDOWS = (2, 3)

    def __init__(self, seed, workdir):
        self.traced = False
        dims = {"n": 3, "s": 1}
        table, by_pos = make_table(seed, dims, {"N": 12, "A": 4, "V": 4, "I": 3,
                                                "P": 2, "R": 2})
        lexicon = os.path.join(workdir, "cli_lexicon.json")
        write_lexicon(lexicon, {k: {"dim": d} for k, d in dims.items()}, table)
        rng = random.Random(seed)
        self.batch = []
        for skeleton in self.MEANING:
            words = [rng.choice(by_pos[p]) for p in skeleton.split()]
            parses = sentence_parses(table, words)
            k = rng.randrange(len(parses))
            combo, cups = parses[k]
            self.batch.append(Command(
                "meaning", ("meaning", *words, "--lexicon", lexicon, "--json",
                            "--parse-index", str(k)),
                (cups, expected_meaning(table, words, combo, cups))))
        for skeleton in self.LIST:
            words = [rng.choice(by_pos[p]) for p in skeleton.split()]
            rows = [(" . ".join(table[w][r][0] for w, r in zip(words, combo)),
                     cups, expected_meaning(table, words, combo, cups))
                    for combo, cups in sentence_parses(table, words)]
            self.batch.append(Command(
                "list", ("meaning", *words, "--lexicon", lexicon, "--list-parses"),
                rows))
        for skeleton in self.REDUCE:
            types = " ".join(POS_TYPES[t[0]][1 if t == "Ps" else 0]
                             for t in skeleton.split())
            self.batch.append(Command(
                "reduce", ("reduce", types, "s", "--json"),
                (types, ref.list_reductions(ref.parse_types(types), TARGET))))
        _, docs = zipf_corpus(rng, 400, (3000,))
        text, tokens = docs[0]
        contexts = rng.sample(sorted(set(tokens)), 20)
        corpus_path = os.path.join(workdir, "cli_corpus.txt")
        contexts_path = os.path.join(workdir, "cli_contexts.txt")
        Path(corpus_path).write_text(text, encoding="utf-8")
        Path(contexts_path).write_text("\n".join(contexts) + "\n", encoding="utf-8")
        for window in self.VECTORS_WINDOWS:
            counts = ref.window_counts(tokens, contexts, window)
            rows = ["word\t" + "\t".join(contexts)] + [
                word + "\t" + "\t".join(str(counts.get((word, k), 0))
                                        for k in range(len(contexts)))
                for word in sorted(set(tokens))]
            self.batch.append(Command(
                "vectors", ("vectors", corpus_path, "--contexts", contexts_path,
                            "--window", str(window)), rows))
        rng.shuffle(self.batch)

    @staticmethod
    def _python(*args):
        # capture_output makes the wait end at EOF; a bare timeout polls
        # with sleeps of up to 50 ms and quantises the timing
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, timeout=120)

    def setup(self):
        self._python("-c", "import gramsem.cli").check_returncode()

    def process_metrics(self, setup_s):
        """The traced run's process timings: a bare interpreter (median of
        7), and importing gramsem.cli (the set-up median) above that floor."""
        floor = []
        for _ in range(7):
            t0 = time.perf_counter()
            self._python("-c", "pass").check_returncode()
            floor.append(time.perf_counter() - t0)
        start = statistics.median(floor)
        return {"cli.interpreter_start_ms": start * 1e3,
                "cli.import_ms": (setup_s - start) * 1e3}

    def run(self, op):
        if self.traced:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(list(op.argv))
            return code, stdout.getvalue()
        proc = self._python("-c", LAUNCH, *op.argv)
        return proc.returncode, proc.stdout

    def check(self, op, out):
        if isinstance(out, Exception):
            raise ref.Mismatch(f"raised {out!r}")
        code, stdout = out
        expect(code == 0, f"{op.argv[0]} exited {code}")
        if op.kind == "meaning":
            cups, want = op.expected
            doc = json.loads(stdout)
            expect(tuple(map(tuple, doc["parse"])) == cups, f"parse {doc['parse']}")
            expect(doc["meaning"]["dims"] == list(want.shape)
                   and doc["meaning"]["data"] == want.reshape(-1).tolist(),
                   f"meaning {doc['meaning']}, expected {want.tolist()}")
        elif op.kind == "list":
            lines = stdout.splitlines()
            expect(len(lines) == len(op.expected),
                   f"{len(lines)} parses listed, expected {len(op.expected)}")
            for k, (line, (types, cups, want)) in enumerate(zip(lines, op.expected)):
                m = _LIST_LINE.fullmatch(line)
                expect(m is not None and int(m[1]) == k and m[2] == types
                       and _pairs(m[3]) == cups
                       and [float(x) for x in m[4].split(",")] == want.reshape(-1).tolist(),
                       f"listed parse {k} differs: {line!r}")
        elif op.kind == "reduce":
            types, reductions = op.expected
            doc = json.loads(stdout)
            expect(doc["source"] == types and doc["target"] == "s",
                   f"reduce echoed {doc['source']!r} -> {doc['target']!r}")
            expect([tuple(map(tuple, r["cups"])) for r in doc["reductions"]]
                   == reductions, "reductions differ")
            expect(all(r["residual"] == "s" for r in doc["reductions"]),
                   "a residual is not the target")
        else:
            expect(stdout.splitlines() == op.expected, "vectors TSV differs")
        return True


WORKLOADS = {w.name: w for w in (Sentences, Grammar, Corpus, Cli)}
