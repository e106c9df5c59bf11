"""Command-line surface: reduce, meaning, vectors, verify, demo.

Exit codes are uniform across subcommands: 0 success, 1 domain failure
(no parse, unknown word, unreadable corpus), 2 usage or config error.
Stdout carries data only; diagnostics go to stderr.

Only the grammar half loads at import.  Each subcommand imports what it
uses, so ``reduce`` and ``vectors`` run without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .pregroup import (BasicType, CompoundType, ReductionDiagram, SimpleType,
                       TypeSyntaxError, enumerate_reductions, parse_type_expr)

if TYPE_CHECKING:
    import random

    from .corpus import Lexicon
    from .monotone import MonotoneMap

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def default_lexicon_path() -> str:
    from importlib import resources
    return str(resources.files("gramsem").joinpath("data/toy_lexicon.json"))


def render_reduction(d: ReductionDiagram) -> str:
    """Underbrace-style ASCII picture: cups as |___| brackets (nested cups
    stacked), residual wires as plain verticals."""
    tokens = [str(t) for t in d.source]
    if not tokens:
        return "(unit)"
    starts, col = [], 0
    for tok in tokens:
        starts.append(col)
        col += len(tok) + 1
    width = col - 1
    centers = [starts[p] + (len(tokens[p]) - 1) // 2 for p in range(len(tokens))]
    cups = list(d.cups)
    by_span = sorted(cups, key=lambda c: c[1] - c[0])
    depth = {}
    for c in by_span:
        inner = [depth[c2] for c2 in by_span
                 if c2 != c and c[0] < c2[0] and c2[1] < c[1]]
        depth[c] = max(inner, default=-1) + 1
    nrows = max(depth.values(), default=-1) + 1
    matched = {p for c in cups for p in c}
    grid = [[" "] * width for _ in range(nrows)]
    for (i, j), r in depth.items():
        for row in range(r + 1):
            grid[row][centers[i]] = grid[row][centers[j]] = "|"
        for cc in range(centers[i] + 1, centers[j]):
            if grid[r][cc] == " ":
                grid[r][cc] = "_"
    for p in range(len(tokens)):
        if p not in matched:
            for row in range(nrows):
                grid[row][centers[p]] = "|"
    lines = ["".join(row).rstrip() for row in grid]
    return "\n".join([" ".join(tokens)] + lines)


def _print_syntax_error(exc: TypeSyntaxError, stream):
    # whitespace echoes as one space each, so the caret lines up under the error
    print(f"syntax error: {exc}", file=stream)
    print("  " + "".join(" " if c.isspace() else c for c in exc.text),
          file=stream)
    print("  " + " " * exc.position + "^", file=stream)


def _parse_range(text: str) -> range:
    """'3' -> range(3, 4); '1..8' -> range(1, 9); an empty range is an
    error, so a suite never passes by checking nothing."""
    lo, dots, hi = text.partition("..")
    values = range(int(lo), int(hi if dots else lo) + 1)
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def cmd_reduce(args) -> int:
    source = parse_type_expr(args.type_expr)
    target = parse_type_expr(args.target)
    diagrams = enumerate_reductions(source, target)
    if args.json:
        doc = {
            "source": str(source),
            "target": str(target),
            "reductions": [
                {"cups": [list(c) for c in d.cups],
                 "residual": str(d.residual)}
                for d in diagrams
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        if not diagrams:
            print(f"no reduction from '{source or '1'}' to '{target or '1'}'")
        for k, d in enumerate(diagrams):
            cups = ", ".join(f"({i},{j})" for i, j in d.cups) or "(none)"
            print(f"reduction {k}: cups {cups}")
            print(render_reduction(d))
    return EXIT_OK if diagrams else EXIT_DOMAIN


def cmd_meaning(args) -> int:
    from .corpus import LexiconFormatError, load_lexicon, tensor_literal
    from .functor import (NoParseError, UnknownWordError, enumerate_analyses,
                          sentence_meaning)
    path = default_lexicon_path() if args.lexicon is None else args.lexicon
    try:
        lexicon = load_lexicon(path)
    except OSError as exc:
        print(f"cannot read lexicon: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LexiconFormatError as exc:
        print(f"bad lexicon: {exc}", file=sys.stderr)
        return EXIT_USAGE
    target = parse_type_expr(args.target)
    assignment = lexicon.functor_assignment()
    try:
        if args.list_parses:
            analyses = enumerate_analyses(args.words, lexicon, assignment, target)
            if not analyses:
                print(f"no parse of {' '.join(args.words)!r} as "
                      f"'{target or '1'}'", file=sys.stderr)
                return EXIT_DOMAIN
            for k, a in enumerate(analyses):
                types = " . ".join(str(e.gtype) for e in a.words)
                cups = ", ".join(f"({i},{j})" for i, j in a.chosen.cups)
                print(f"parse {k}: types [{types}] cups [{cups}] "
                      f"meaning {a.meaning.flat}")
            return EXIT_OK
        analysis = sentence_meaning(args.words, lexicon, assignment,
                                    parse_index=args.parse_index,
                                    target=target)
    except (UnknownWordError, NoParseError, IndexError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        doc = {"parse": [list(c) for c in analysis.chosen.cups],
               "meaning": tensor_literal(analysis.meaning)}
        print(json.dumps(doc, indent=2, allow_nan=False))
        return EXIT_OK
    print(render_reduction(analysis.chosen))
    meaning = analysis.meaning
    if meaning.rank == 1 and meaning.spaces[0].dim == 1:
        value = meaning.item()
        gloss = "true" if value > 0 else ("false" if value == 0 else "anti-true")
        print(f"meaning: {value:g} (scalar sentence space; reads {gloss}, "
              f"larger magnitude = stronger)")
    else:
        print(f"meaning: spaces ({', '.join(map(str, meaning.spaces))}) "
              f"data {meaning.flat}")
    return EXIT_OK


def cmd_vectors(args) -> int:
    from .counting import ContextConfig, export_vectors_tsv, tokenize
    try:
        with open(args.contexts, "r", encoding="utf-8") as fh:
            context_words = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read context file: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    cfg = ContextConfig(tuple(context_words), window=args.window)
    try:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    export_vectors_tsv(tokenize(text, cfg), cfg, sys.stdout)
    return EXIT_OK


def seeded_monotone_maps(count: int, seed: int) -> list[MonotoneMap]:
    """Reproducible monotone unbounded staircase maps m -> a*(m//d) + b."""
    import random

    from .monotone import MonotoneMap
    rng = random.Random(seed)
    maps = []
    for k in range(count):
        a = rng.randint(1, 5)
        d = rng.randint(1, 4)
        b = rng.randint(-20, 20)
        maps.append(MonotoneMap(
            lambda m, a=a, b=b, d=d: a * (m // d) + b,
            name=f"stair(a={a}, d={d}, b={b})"))
    return maps


def seeded_lexicon(rng: random.Random, length: int) -> tuple[Lexicon, list]:
    """A seeded lexicon of ``length`` words, one or two readings each, and
    the sentence of those words.  Basic types a and b get dims 1..3;
    readings are up to three simples with exponents -1..1, at most seven
    simples per reading combination; data is integers 0..3."""
    from .corpus import Lexicon
    from .linalg import VectorSpace
    spaces = {b: VectorSpace(b, rng.randint(1, 3)) for b in "ab"}
    lexicon = Lexicon(spaces)
    budget = 7
    for k in range(length):
        longest = rng.randint(0, min(3, budget))
        budget -= longest
        for _ in range(rng.randint(1, 2)):
            simples = [rng.choice("ab") + rng.choice(("", "^l", "^r"))
                       for _ in range(rng.randint(0, longest))]
            size = 1
            for simple in simples:
                size *= spaces[simple[0]].dim
            lexicon.add(f"w{k}", " ".join(simples),
                        [rng.randint(0, 3) for _ in range(size)])
    return lexicon, [f"w{k}" for k in range(length)]


def _report(rows) -> int:
    ok = True
    for label, passed in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed
    print("all checks passed" if ok else "some checks FAILED")
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_verify(args) -> int:
    import random
    from itertools import product

    # each suite imports its own modules: galois needs no numpy
    if args.suite == "yanking":
        from . import linalg
        dims = _parse_range(args.dims or "1..16")
        rows = [(f"yanking dim={d}", linalg.yanking_check(d, tol=0.0))
                for d in dims]
        return _report(rows)

    if args.suite == "preller":
        from .functor import preller_obstruction
        dims = _parse_range(args.dims or "1..8")
        rows = []
        for d in dims:
            w = preller_obstruction(d)
            if d == 1:
                rows.append((f"preller dim=1 lift is identity", w.is_identity))
            else:
                good = (not w.is_identity) and w.zero_witness == (0, 1, 0)
                rows.append(
                    (f"preller dim={d} lift non-identity, kills "
                     f"e1*e2*e1", good))
        return _report(rows)

    if args.suite == "galois":
        from . import monotone
        window = args.window_range or "-100..100"
        rng = _parse_range(window)
        win = (rng.start, rng.stop - 1)
        double = monotone.MonotoneMap(lambda m: 2 * m, name="double")
        rows = []
        closed = all(
            monotone.monotone_left_dual(double, n) == (n + 1) // 2
            and monotone.monotone_right_dual(double, n) == n // 2
            for n in range(win[0], win[1] + 1))
        rows.append(("double: duals match floor((n+1)/2), floor(n/2)", closed))
        rows.append(("double: adjunction biconditionals",
                     monotone.galois_check(double, win)))
        for f in seeded_monotone_maps(5, args.seed):
            rows.append((f"{f.name}: adjunction biconditionals",
                         monotone.galois_check(f, win)))
        return _report(rows)

    if args.suite == "contract":
        from . import oracle
        rng = random.Random(args.seed)
        samples = 100 if args.samples is None else args.samples
        rows = []
        for length in range(1, 6):
            ok = True
            for _ in range(samples):
                lexicon, words = seeded_lexicon(rng, length)
                ok = ok and oracle.contraction_disagreement(lexicon, words) is None
            rows.append((f"contract words={length} ({samples} seeded lexicons)",
                         ok))
        return _report(rows)

    if args.suite == "oracle":
        from . import oracle
        samples = 3500 if args.samples is None else args.samples
        rows = []
        bases = (BasicType("a"), BasicType("b"))
        alphabet = [SimpleType(b, z) for b in bases for z in (-1, 0, 1)]
        rng = random.Random(args.seed)
        full_max = min(5, args.max_len)
        for length in range(0, args.max_len + 1):
            if length <= full_max:
                sources = [CompoundType(s)
                           for s in product(alphabet, repeat=length)]
                label = f"oracle len={length} (all {len(sources)} sources)"
            else:
                sources = [
                    CompoundType(rng.choice(alphabet) for _ in range(length))
                    for _ in range(samples)]
                label = f"oracle len={length} ({len(sources)} seeded sources)"
            rows.append((label, all(oracle.reduction_disagreement(s) is None
                                    for s in sources)))
        return _report(rows)

    print(f"unknown suite {args.suite!r}", file=sys.stderr)
    return EXIT_USAGE


def cmd_demo(args) -> int:
    from .corpus import load_lexicon
    from .functor import enumerate_analyses
    lexicon = load_lexicon(default_lexicon_path())
    analyses = enumerate_analyses(["bananas", "are", "fruit"], lexicon,
                                  lexicon.functor_assignment())
    a = analyses[0]
    print("A worked example: the meaning of 'bananas are fruit'\n")

    print("step 1 - grammar types from the lexicon:")
    for e in a.words:
        print(f"  {e.word:8s} :: {e.gtype}")

    print("\nstep 2 - spaces assigned to the basic types:")
    for name, space in sorted(lexicon.spaces.items()):
        basis = f" basis={list(space.basis_labels)}" if space.basis_labels else ""
        print(f"  {name} -> dim {space.dim}{basis}")

    print("\nstep 3 - word states:")
    for e in a.words:
        print(f"  {e.word:8s} dims {list(e.state.dims)} data {e.state.flat}")

    print(f"\nstep 4 - type reductions of '{a.concat_type}' to 's': "
          f"{len(analyses)} found")
    print(render_reduction(a.chosen))

    value = a.meaning.item()
    print(f"\nstep 5 - contract the word states along the cups: {value:g}")
    if value != 1074.0:
        print("self-check FAILED: expected 1074", file=sys.stderr)
        return EXIT_DOMAIN
    print("self-check passed: 21*43 + 9*19 + 0*0 = 1074")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramsem",
        description="pregroup grammar reductions lifted to tensor contractions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="enumerate type reductions")
    p.add_argument("type_expr", help="source compound type, e.g. 'n n^r s n^l n'")
    p.add_argument("target", help="target compound type, e.g. 's'")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("meaning", help="compute a sentence meaning tensor")
    p.add_argument("words", nargs="+", help="sentence words, in order")
    p.add_argument("--lexicon",
                   help="lexicon JSON path (default: bundled toy lexicon)")
    p.add_argument("--target", default="s", help="target type (default: s)")
    p.add_argument("--parse-index", type=_at_least(0), default=0,
                   dest="parse_index",
                   help="which parse to use when several exist")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--list-parses", action="store_true",
                        help="list every (reading, reduction) pair with meanings")
    output.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p.set_defaults(func=cmd_meaning)

    p = sub.add_parser("vectors", help="co-occurrence count vectors as TSV")
    p.add_argument("corpus", help="text file to count over")
    p.add_argument("--contexts", required=True,
                   help="file with one context word per line")
    p.add_argument("--window", type=int, default=3,
                   help="co-occurrence window radius (default: 3)")
    p.set_defaults(func=cmd_vectors)

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("suite",
                   choices=["yanking", "preller", "galois", "oracle", "contract"])
    p.add_argument("--dims", help="dimension range, e.g. 1..16")
    p.add_argument("--window", dest="window_range",
                   help="integer window, e.g. -100..100 (galois)")
    p.add_argument("--max-len", type=_at_least(0), default=8,
                   dest="max_len",
                   help="max compound type length (oracle)")
    p.add_argument("--samples", type=_at_least(1),
                   help="seeded cases per row: sources per length above full "
                        "coverage (oracle, default 3500), lexicons per "
                        "sentence length (contract, default 100)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="the worked toy example, step by step")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TypeSyntaxError as exc:
        _print_syntax_error(exc, sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
