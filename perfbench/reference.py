"""Independent reference computations for the benchmark's checks.

Nothing here imports gramsem.  Types are parsed into ``(base, exponent)``
pairs, reductions are counted and listed by span recursions written for the
benchmark, meanings are one ``numpy.einsum`` over the word arrays, and
co-occurrence counts walk the context-word occurrences rather than the
target positions.  Every function that checks raises :class:`Mismatch`.
"""

from __future__ import annotations

import numpy as np


class Mismatch(Exception):
    """A program output disagrees with the reference computation."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


def parse_types(text):
    """``"n n^l s^rr"`` -> ``[("n", 0), ("n", -1), ("s", 2)]``."""
    out = []
    for tok in text.split():
        base, _, adj = tok.partition("^")
        out.append((base, adj.count("r") - adj.count("l")))
    return out


def is_redex(a, b):
    """``a b`` cancels: ``x^l x`` or ``x x^r``, i.e. exponent of b is one more."""
    return a[0] == b[0] and b[1] == a[1] + 1


def count_reductions(simples, target):
    """Number of planar reductions of ``simples`` to ``target`` (span DP)."""
    n, m = len(simples), len(target)
    # closed[lo][hi]: complete non-crossing matchings of [lo, hi), split on
    # the partner p of position hi - 1
    closed = [[0] * (n + 1) for _ in range(n + 1)]
    for lo in range(n + 1):
        closed[lo][lo] = 1
    for length in range(2, n + 1, 2):
        for lo in range(n - length + 1):
            hi = lo + length
            closed[lo][hi] = sum(closed[lo][p] * closed[p + 1][hi - 1]
                                 for p in range(lo, hi - 1, 2)
                                 if is_redex(simples[p], simples[hi - 1]))
    # open_[pos][t]: reductions of simples[pos:] to target[t:]
    open_ = [[0] * (m + 1) for _ in range(n + 1)]
    open_[n][m] = 1
    for pos in range(n - 1, -1, -1):
        for t in range(m + 1):
            total = open_[pos + 1][t + 1] if t < m and simples[pos] == target[t] else 0
            for q in range(pos + 1, n, 2):
                if is_redex(simples[pos], simples[q]) and closed[pos + 1][q]:
                    total += closed[pos + 1][q] * open_[q + 1][t]
            open_[pos][t] = total
    return open_[0][0]


def list_reductions(simples, target):
    """Every planar reduction as a tuple of ``(i, j)`` cups, sorted
    lexicographically.  Exponential in general; used on short types only."""
    simples, target = tuple(simples), tuple(target)
    n, m = len(simples), len(target)

    def closed(lo, hi):
        if lo == hi:
            yield ()
            return
        for p in range(lo, hi - 1):
            if is_redex(simples[p], simples[hi - 1]):
                for left in closed(lo, p):
                    for inner in closed(p + 1, hi - 1):
                        yield left + inner + ((p, hi - 1),)

    out = []

    def walk(pos, t, cups):
        if pos == n:
            if t == m:
                out.append(tuple(sorted(cups)))
            return
        if t < m and simples[pos] == target[t]:
            walk(pos + 1, t + 1, cups)
        for q in range(pos + 1, n, 2):
            if is_redex(simples[pos], simples[q]):
                for inner in closed(pos + 1, q):
                    walk(q + 1, t, cups + ((pos, q),) + inner)

    walk(0, 0, ())
    return sorted(out)


def check_reduction(simples, target, cups):
    """The cups form a valid planar reduction of ``simples`` to ``target``."""
    n = len(simples)
    used = set()
    for i, j in cups:
        expect(0 <= i < j < n, f"cup ({i}, {j}) out of range for {n} simples")
        expect(i not in used and j not in used, f"cup ({i}, {j}) reuses a wire")
        used.update((i, j))
        expect(is_redex(simples[i], simples[j]),
               f"cup ({i}, {j}) is not a redex: {simples[i]} {simples[j]}")
    for i, j in cups:
        for k, l in cups:
            expect(not i < k < j < l, f"cups ({i}, {j}) and ({k}, {l}) cross")
        expect(all(p in used for p in range(i + 1, j)),
               f"a wire under cup ({i}, {j}) is unmatched")
    residual = [s for p, s in enumerate(simples) if p not in used]
    expect(residual == list(target),
           f"residual {residual} is not the target {list(target)}")


def meaning(arrays, ranks, cups):
    """Contract the word arrays along ``cups`` (positions in the concatenated
    type) with one einsum; free wires keep their order."""
    labels = list(range(sum(ranks)))
    for i, j in cups:
        labels[j] = labels[i]
    free = sorted(set(range(len(labels))) - {p for c in cups for p in c})
    # relabel densely so the einsum label limit counts wires, not positions
    dense = {lab: k for k, lab in enumerate(dict.fromkeys(labels))}
    operands, start = [], 0
    for arr, r in zip(arrays, ranks):
        operands += [np.asarray(arr, dtype=np.float64),
                     [dense[lab] for lab in labels[start:start + r]]]
        start += r
    return np.einsum(*operands, [dense[labels[p]] for p in free],
                     optimize="greedy")


def window_counts(tokens, contexts, window):
    """``{(word, context index): count}``: for each context-word occurrence,
    bump every other token within ``window`` positions of it."""
    index = {w: k for k, w in enumerate(contexts)}
    counts = {}
    n = len(tokens)
    for q, tok in enumerate(tokens):
        k = index.get(tok)
        if k is None:
            continue
        for p in range(max(0, q - window), min(n, q + window + 1)):
            if p != q:
                key = (tokens[p], k)
                counts[key] = counts.get(key, 0) + 1
    return counts
