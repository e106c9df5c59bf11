"""Co-occurrence counting over raw text, with no tensor in sight.

A word's vector is its raw co-occurrence count against a chosen list of
context words inside a symmetric token window.  No weighting or
normalisation is applied.  This module imports no numpy, so ``gramsem
vectors`` starts without it; :mod:`gramsem.corpus` turns counts into
states and re-exports every name here.

>>> cfg = ContextConfig(("cat",), window=1)
>>> count_cooccurrence(tokenize("The cat, the Cat.", cfg), cfg).counts
{('the', 0): 3}
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import compress

__all__ = [
    "ContextConfig",
    "CooccurrenceCounts",
    "tokenize",
    "count_cooccurrence",
    "export_vectors_tsv",
]

# a whitespace token from its first to its last [A-Za-z0-9'] character;
# str.split and the pattern's \s agree on every code point
_STRIPPED_TOKEN = re.compile(r"[A-Za-z0-9'](?:\S*[A-Za-z0-9'])?")


@dataclass(frozen=True)
class ContextConfig:
    """Counting parameters: the ordered context words, the window radius,
    and the token normalisation switches."""

    context_words: tuple[str, ...]
    window: int = 3
    lowercase: bool = True
    strip_punct: bool = True

    def __post_init__(self):
        words = tuple(self.context_words)
        object.__setattr__(self, "context_words", words)
        if not words:
            raise ValueError("context_words must be nonempty")
        if len(set(words)) != len(words):
            dupes = sorted({w for w in words if words.count(w) > 1})
            raise ValueError(f"duplicate context words: {', '.join(dupes)}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def index_of(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.context_words)}


def tokenize(text: str, cfg: ContextConfig) -> list[str]:
    """Whitespace tokens, optionally stripped of leading/trailing
    non-alphanumeric-non-apostrophe characters and ASCII-lowercased.
    Tokens emptied by stripping are dropped.
    """
    if cfg.lowercase:
        # bytes.lower maps only ASCII; surrogatepass keeps lone surrogates
        text = text.encode("utf-8", "surrogatepass").lower().decode(
            "utf-8", "surrogatepass")
    if cfg.strip_punct:  # a token emptied by stripping never matches
        return _STRIPPED_TOKEN.findall(text)
    return text.split()


@dataclass
class CooccurrenceCounts:
    """Counts keyed by (target word, context index).  Counts over separate
    texts merge by addition."""

    counts: dict[tuple[str, int], int] = field(default_factory=dict)

    def get(self, word: str, ctx_index: int) -> int:
        return self.counts.get((word, ctx_index), 0)

    def merge(self, other: "CooccurrenceCounts") -> "CooccurrenceCounts":
        merged = defaultdict(int, self.counts)
        for key, v in other.counts.items():
            merged[key] += v
        return CooccurrenceCounts(dict(merged))


def count_cooccurrence(tokens, cfg: ContextConfig) -> CooccurrenceCounts:
    """For every position p and context-word occurrence q with
    0 < |p - q| <= window, bump (token[p], index of token[q]).

    The window is symmetric and a token never pairs with its own position.
    """
    ids = list(map(cfg.index_of.get, tokens))
    is_context = [i is not None for i in ids]
    counts = Counter()
    for d in range(1, min(cfg.window + 1, len(tokens))):  # one offset a pass
        counts.update(compress(zip(tokens, ids[d:]), is_context[d:]))  # q = p + d
        counts.update(compress(zip(tokens[d:], ids), is_context))  # q = p - d
    return CooccurrenceCounts(dict(counts))


def export_vectors_tsv(tokens, cfg: ContextConfig, stream):
    """One row per distinct token in lexicographic order:
    ``word<TAB>c_1<TAB>...<TAB>c_n`` after a header row."""
    counts = count_cooccurrence(tokens, cfg)
    stream.write("word\t" + "\t".join(cfg.context_words) + "\n")
    for word in sorted(set(tokens)):
        row = [str(counts.get(word, i)) for i in range(len(cfg.context_words))]
        stream.write(word + "\t" + "\t".join(row) + "\n")
