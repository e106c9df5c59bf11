"""Distributional word vectors and lexicon persistence.

A noun's state is its co-occurrence count vector from
:mod:`gramsem.counting`, whose names this module re-exports.  Lexicons
(word -> type + state) round-trip through a small JSON format.

Each check on a lexicon has one owner.  :func:`load_lexicon` checks the
file's schema and names the bad field; types map to spaces through
:func:`gramsem.functor.spaces_of`; a state's size and finiteness belong to
one private group builder, which :meth:`Lexicon.add` calls with one row
and :func:`load_lexicon` with all the rows of one type text at once, so
files and programmatic input are checked alike.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .counting import (ContextConfig, CooccurrenceCounts, count_cooccurrence,
                       export_vectors_tsv, tokenize)
from .functor import LexiconEntry, UnassignedTypeError, spaces_of
from .linalg import Tensor, VectorSpace
from .pregroup import CompoundType, parse_type_expr

__all__ = [
    "ContextConfig",
    "CooccurrenceCounts",
    "Lexicon",
    "LexiconFormatError",
    "tokenize",
    "count_cooccurrence",
    "build_noun_vector",
    "save_lexicon",
    "load_lexicon",
    "tensor_literal",
    "export_vectors_tsv",
]

_NUMBER = frozenset((int, float))  # json.load makes no subclasses, so no bool


def build_noun_vector(word: str, counts: CooccurrenceCounts,
                      cfg: ContextConfig,
                      space: VectorSpace | None = None) -> Tensor:
    """The word's count vector over the context words; all zeros if the
    word was never counted.  ``space`` needs one dim per context word."""
    if space is None:
        space = VectorSpace("n", len(cfg.context_words),
                            basis_labels=cfg.context_words)
    get = counts.counts.get
    data = [get((word, i), 0) for i in range(len(cfg.context_words))]
    return Tensor((space,), data)


class LexiconFormatError(ValueError):
    """A lexicon file violates the schema; ``path`` points at the bad field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class Lexicon:
    """Words mapped to one or more (grammar type, state) readings, plus the
    registry of spaces backing the basic types.

    >>> lex = Lexicon({"n": VectorSpace("n", 2)})
    >>> entry = lex.add("cat", "n", [3, 1])
    >>> [e.gtype for e in lex.entries_for("cat")]
    [CompoundType('n')]
    """

    def __init__(self, spaces: dict[str, VectorSpace] | None = None):
        self.spaces: dict[str, VectorSpace] = dict(spaces or {})
        self._entries: dict[str, list[LexiconEntry]] = {}

    def functor_assignment(self) -> dict[str, VectorSpace]:
        """A copy of the space registry: the functor's object part."""
        return dict(self.spaces)

    def add(self, word: str, gtype: CompoundType | str, data) -> LexiconEntry:
        """Append a reading; the state spaces follow the type's simples.

        Raises :class:`gramsem.functor.UnassignedTypeError` for a basic type
        with no registered space, and ``ValueError`` for data of the wrong
        size or with a NaN or infinite number in it.
        """
        if isinstance(gtype, str):
            gtype = parse_type_expr(gtype)
        [state] = _states(spaces_of(self.spaces, gtype), [data])
        entry = LexiconEntry._trusted(word, gtype, state)
        self._entries.setdefault(word, []).append(entry)
        return entry

    def entries_for(self, word: str) -> list[LexiconEntry]:
        return list(self._entries.get(word, []))

    def words(self) -> list[str]:
        return list(self._entries)

    def all_entries(self) -> list[LexiconEntry]:
        return [e for entries in self._entries.values() for e in entries]

    def __len__(self):
        return sum(len(v) for v in self._entries.values())

    def __contains__(self, word):
        return word in self._entries

    def __eq__(self, other):
        return (isinstance(other, Lexicon) and self.spaces == other.spaces
                and self._entries == other._entries)


def _states(spaces: tuple[VectorSpace, ...], rows) -> list[Tensor]:
    """One read-only state over ``spaces`` per row of ``rows``, all views
    of one array.  Raises ``ValueError`` for a row of the wrong size or
    with a NaN or infinite number in it, ``OverflowError`` for an int past
    the float range."""
    shape = tuple(s.dim for s in spaces)
    size = math.prod(shape)
    arr = np.array(rows, dtype=np.float64, order="C")
    if arr.size != len(rows) * size:
        raise ValueError(
            f"data has {arr.size} entries, spaces {shape} need {size}")
    if not np.isfinite(arr).all():
        raise ValueError("data must be a list of finite numbers")
    arr.setflags(write=False)
    return [Tensor._trusted(spaces, row.reshape(shape))
            for row in arr.reshape(len(rows), size)]


def _entry_error(k: int, field: str, message: str) -> LexiconFormatError:
    return LexiconFormatError(f"entries[{k}]{field}", message)


def _is_positive_int(x) -> bool:
    return type(x) is int and x >= 1  # bool is an int subclass


def tensor_literal(t: Tensor) -> dict:
    """A state's ``{"dims", "data"}`` record, the form lexicon files and
    ``gramsem meaning --json`` write; integral values are written as ints
    to keep files diffable."""
    a = t.array.reshape(-1)
    # NaN and inf fail the range test, which runs first: the cast never warns
    if (abs(a) < 2.0 ** 63).all() and (a == (ints := a.astype("int64"))).all():
        return {"dims": list(t.dims), "data": ints.tolist()}
    return {"dims": list(t.dims),
            "data": [int(x) if x.is_integer() else x for x in t.flat]}


def save_lexicon(lexicon: Lexicon, path):
    """Write the JSON form with one entry per line; entries keep insertion
    order, spaces sort by label, states are :func:`tensor_literal` records."""
    spaces = {name: ({"dim": sp.dim, "basis": list(sp.basis_labels)}
                     if sp.basis_labels is not None else {"dim": sp.dim})
              for name, sp in sorted(lexicon.spaces.items())}
    entries = ",".join(
        "\n" + json.dumps({"word": e.word, "type": str(e.gtype),
                           "tensor": tensor_literal(e.state)})
        for e in lexicon.all_entries())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"spaces": {json.dumps(spaces)},\n"entries": [{entries}\n]}}\n')


def load_lexicon(path) -> Lexicon:
    """Read and validate a lexicon file.  Schema violations raise
    :class:`LexiconFormatError` naming the offending field path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
            raise LexiconFormatError("$", f"not valid JSON: {exc}") from exc
    # each check formats its path and message only when it fails
    if not isinstance(doc, dict):
        raise LexiconFormatError("$", "top level must be an object")
    if not isinstance(doc.get("spaces"), dict):
        raise LexiconFormatError("spaces", "must be an object of space records")
    if not isinstance(doc.get("entries"), list):
        raise LexiconFormatError("entries", "must be a list of entry records")
    spaces: dict[str, VectorSpace] = {}
    for name, rec in doc["spaces"].items():
        if not isinstance(rec, dict):
            raise LexiconFormatError(f"spaces.{name}", "must be an object")
        dim = rec.get("dim")
        if not _is_positive_int(dim):
            raise LexiconFormatError(f"spaces.{name}.dim",
                                     "must be a positive integer")
        basis = rec.get("basis")
        if not (basis is None or isinstance(basis, list)
                and all(isinstance(b, str) for b in basis)):
            raise LexiconFormatError(f"spaces.{name}.basis",
                                     "must be a list of strings")
        try:
            spaces[name] = VectorSpace(name, dim, basis)
        except ValueError as exc:
            raise LexiconFormatError(f"spaces.{name}.basis", str(exc)) from exc
    readings = {}  # type text -> (type, its dims or the missing space's error)
    # type text -> its entries' indices in file order: ints, which the
    # cyclic GC does not track; words and data are read back from recs
    groups = {}
    recs = doc["entries"]
    try:
        for k, rec in enumerate(recs):
            if not isinstance(rec, dict):
                raise _entry_error(k, "", "must be an object")
            word = rec.get("word")
            if not (isinstance(word, str) and word != ""):
                raise _entry_error(k, ".word", "must be a nonempty string")
            type_expr = rec.get("type")
            if not isinstance(type_expr, str):
                raise _entry_error(k, ".type", "must be a string")
            if type_expr not in readings:
                try:
                    gtype = parse_type_expr(type_expr)
                except ValueError as exc:
                    raise _entry_error(k, ".type", str(exc)) from exc
                try:
                    readings[type_expr] = gtype, [
                        s.dim for s in spaces_of(spaces, gtype)]
                except UnassignedTypeError as exc:
                    readings[type_expr] = gtype, exc
            gtype, expected_dims = readings[type_expr]
            tensor = rec.get("tensor")
            if not isinstance(tensor, dict):
                raise _entry_error(k, ".tensor", "must be an object")
            dims = tensor.get("dims")
            if not (isinstance(dims, list) and all(map(_is_positive_int, dims))):
                raise _entry_error(k, ".tensor.dims",
                                   "must be a list of positive integers")
            data = tensor.get("data")
            if not (isinstance(data, list)
                    and _NUMBER.issuperset(map(type, data))):
                raise _entry_error(k, ".tensor.data",
                                   "must be a list of finite numbers")
            if dims != expected_dims:
                if isinstance(expected_dims, UnassignedTypeError):
                    raise _entry_error(
                        k, ".type", f"word {word!r} uses basic type "
                        f"{expected_dims.name!r} with no space record"
                    ) from expected_dims
                raise _entry_error(
                    k, ".tensor.dims", f"word {word!r} declares dims {dims} "
                    f"but type {type_expr!r} needs {expected_dims}")
            groups.setdefault(type_expr, []).append(k)
        states = [_states(spaces_of(spaces, readings[type_expr][0]),
                          [recs[k]["tensor"]["data"] for k in group])
                  for type_expr, group in groups.items()]
    except (ValueError, OverflowError):  # OverflowError: huge ints
        # report what adding the entries one at a time reports: the first
        # entry in the file whose data fails on its own, else the error above
        check, bad = Lexicon(spaces), []
        for type_expr, group in groups.items():
            for k in group:
                word, data = recs[k]["word"], recs[k]["tensor"]["data"]
                try:
                    check.add(word, readings[type_expr][0], data)
                except (ValueError, OverflowError) as exc:
                    bad.append((k, word, exc))
                    break
        if bad:
            k, word, exc = min(bad, key=lambda b: b[0])
            raise _entry_error(k, ".tensor.data",
                               f"word {word!r}: {exc}") from exc
        raise
    entries = [None] * len(recs)
    for (type_expr, group), group_states in zip(groups.items(), states):
        gtype = readings[type_expr][0]
        for k, state in zip(group, group_states):
            entries[k] = LexiconEntry._trusted(recs[k]["word"], gtype, state)
            recs[k] = None  # freed now: fewer live objects for the GC to pass
    lexicon = Lexicon(spaces)
    for entry in entries:
        lexicon._entries.setdefault(entry.word, []).append(entry)
    return lexicon
