"""Fast tests that the benchmark's checks pass true outputs and reject
corrupted ones.  Run with ``python3 -m pytest perfbench/test_checks.py``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from gramsem.corpus import CooccurrenceCounts  # noqa: E402
from gramsem.linalg import Tensor  # noqa: E402


def attempt(workload, op):
    try:
        return workload.run(op)
    except ValueError as exc:
        return exc


def rejects(workload, op, out):
    with pytest.raises(ref.Mismatch):
        workload.check(op, out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("work"))


@pytest.fixture(scope="module")
def sentences(workdir):
    w = workloads.Sentences(3, workdir)
    w.setup()
    return w


@pytest.fixture(scope="module")
def grammar(workdir):
    w = workloads.Grammar(3, workdir)
    w.setup()
    return w


@pytest.fixture(scope="module")
def corpus_workload(workdir):
    w = workloads.Corpus(3, workdir)
    w.setup()
    return w


@pytest.fixture(scope="module")
def cli_workload(workdir):
    w = workloads.Cli(3, workdir)
    w.traced = True  # in-process main(), same outputs without process start-up
    return w


def test_reduction_counts_are_catalan_on_pp_chains():
    for k in range(6):
        types = "n n^r s n^l n" + " n^r n n^l n" * k
        simples = ref.parse_types(types)
        assert ref.count_reductions(simples, workloads.TARGET) == comb(2 * k, k) // (k + 1)
        assert len(ref.list_reductions(simples, workloads.TARGET)) == comb(2 * k, k) // (k + 1)


def test_check_reduction_rejects_bad_cups():
    simples = ref.parse_types("n n^r s n^l n")
    ref.check_reduction(simples, workloads.TARGET, ((0, 1), (3, 4)))
    for cups in [((0, 1),), ((0, 1), (2, 3)), ((0, 4), (1, 3)), ((0, 1), (0, 1), (3, 4))]:
        with pytest.raises(ref.Mismatch):
            ref.check_reduction(simples, workloads.TARGET, cups)
    crossing = ref.parse_types("n^l n^l n n")
    with pytest.raises(ref.Mismatch):
        ref.check_reduction(crossing, [], ((0, 2), (1, 3)))


def test_reference_meaning_matches_hand_computation():
    # bananas are fruit with the bundled toy data: 21*43 + 9*19 + 0*0
    noun, verb, obj = [21, 9, 0], [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]], [43, 19, 0]
    got = ref.meaning([noun, verb, obj], [1, 3, 1], ((0, 1), (3, 4)))
    assert got.tolist() == [1074.0]


def test_window_counts():
    counts = ref.window_counts(["a", "x", "b", "x"], ["x"], 1)
    assert counts == {("a", 0): 1, ("b", 0): 2}


def cheapest(workload):
    return min((op for op in workload.batch if not any(
        workloads.parse_rank(workload.table, op.words, c) > 52 for c, _ in op.parses)),
        key=lambda op: len(op.words))


def test_sentences_check(sentences):
    op = cheapest(sentences)
    out = sentences.run(op)
    assert sentences.check(op, out) is True
    bumped = Tensor(out.meaning.spaces, out.meaning.array + 1)
    rejects(sentences, op, dataclasses.replace(out, meaning=bumped))
    cups = sorted(out.chosen.cups)
    rejects(sentences, op, SimpleNamespace(
        words=out.words, chosen=SimpleNamespace(cups=cups[:-1]), meaning=out.meaning))
    rejects(sentences, op, SimpleNamespace(
        words=out.words[::-1], chosen=out.chosen, meaning=out.meaning))
    rejects(sentences, op, ValueError("rank 53 exceeds contraction limit"))


def test_sentences_rank_limit_is_the_only_accepted_failure(sentences):
    op = next(op for op in sentences.batch if op.words[0] in workloads.FIXED_WORDS)
    out = attempt(sentences, op)
    if isinstance(out, Exception):  # the rank limit still stands
        assert sentences.check(op, out) is False
        rejects(sentences, op, ValueError("rank 54 exceeds contraction limit"))
        rejects(sentences, op, IndexError(str(out)))
    else:
        assert sentences.check(op, out) is True


def test_sentences_parse_count_probe(sentences, monkeypatch):
    op = cheapest(sentences)
    sentences.warmup_check(op)
    real = workloads.functor.sentence_meaning

    def one_more(words, lexicon, assignment, parse_index=0, target="s"):
        if parse_index == len(op.parses):
            parse_index -= 1  # as if the program had one parse more
        return real(words, lexicon, assignment, parse_index=parse_index)

    monkeypatch.setattr(workloads.functor, "sentence_meaning", one_more)
    with pytest.raises(ref.Mismatch):
        sentences.warmup_check(op)


def test_grammar_check(grammar):
    ambiguous = next(o for o in grammar.batch if o.limit is None and len(o.words) == 13)
    source, diagrams = grammar.run(ambiguous)
    assert len(diagrams) > 2
    assert grammar.check(ambiguous, (source, diagrams)) is True
    rejects(grammar, ambiguous, (source, diagrams[:-1]))
    rejects(grammar, ambiguous, (source, diagrams[:-1] + diagrams[:1]))
    rejects(grammar, ambiguous, (source, diagrams[::-1]))
    rejects(grammar, ambiguous, (source[1:], diagrams))
    assert grammar.check(ambiguous, grammar.run(ambiguous)) is True  # a verified repeat
    limited = dataclasses.replace(ambiguous, limit=1)
    assert grammar.check(limited, (source, diagrams[:1])) is True
    rejects(grammar, limited, (source, diagrams[:2]))
    rejects(grammar, limited, (source, []))


def test_corpus_check(corpus_workload):
    doc = min(corpus_workload.batch, key=lambda d: len(d.tokens))
    tokens, counts, vectors, lexicon, loaded = out = corpus_workload.run(doc)
    assert corpus_workload.check(doc, out) is True
    key = next(iter(counts.counts))
    off = CooccurrenceCounts({**counts.counts, key: counts.counts[key] + 1})
    rejects(corpus_workload, doc, (tokens, off, vectors, lexicon, loaded))
    rejects(corpus_workload, doc, (tokens[:-1], counts, vectors, lexicon, loaded))
    rejects(corpus_workload, doc, (tokens, counts, vectors[:-1], lexicon, loaded))
    bumped = [Tensor(vectors[0].spaces, vectors[0].array + 1)] + vectors[1:]
    rejects(corpus_workload, doc, (tokens, counts, bumped, lexicon, loaded))
    other = corpus_workload.run(max(corpus_workload.batch, key=lambda d: len(d.tokens)))
    rejects(corpus_workload, doc, (tokens, counts, vectors, lexicon, other[4]))


def by_kind(w, kind):
    return next(op for op in w.batch if op.kind == kind)


def test_cli_meaning_and_exit_code(cli_workload):
    op = by_kind(cli_workload, "meaning")
    code, stdout = cli_workload.run(op)
    assert cli_workload.check(op, (code, stdout)) is True
    rejects(cli_workload, op, (1, stdout))
    doc = json.loads(stdout)
    doc["meaning"]["data"][0] += 1
    rejects(cli_workload, op, (0, json.dumps(doc)))


def test_cli_list_parses(cli_workload):
    op = by_kind(cli_workload, "list")
    code, stdout = cli_workload.run(op)
    assert cli_workload.check(op, (code, stdout)) is True
    rejects(cli_workload, op, (code, "\n".join(stdout.splitlines()[:-1])))
    rejects(cli_workload, op, (code, stdout.replace("meaning [", "meaning [1")))


def test_cli_reduce(cli_workload):
    op = by_kind(cli_workload, "reduce")
    code, stdout = cli_workload.run(op)
    assert cli_workload.check(op, (code, stdout)) is True
    doc = json.loads(stdout)
    doc["reductions"].pop()
    rejects(cli_workload, op, (0, json.dumps(doc)))


def test_cli_vectors(cli_workload):
    op = by_kind(cli_workload, "vectors")
    code, stdout = cli_workload.run(op)
    assert cli_workload.check(op, (code, stdout)) is True
    lines = stdout.splitlines()
    row = lines[1].split("\t")
    row[1] = str(int(row[1]) + 1)
    rejects(cli_workload, op, (0, "\n".join([lines[0], "\t".join(row)] + lines[2:])))


def test_cli_subprocess_matches(cli_workload, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))
    op = by_kind(cli_workload, "reduce")
    cli_workload.traced = False
    try:
        assert cli_workload.check(op, cli_workload.run(op)) is True
    finally:
        cli_workload.traced = True


def test_run_refuses_a_checkout_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grammar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
