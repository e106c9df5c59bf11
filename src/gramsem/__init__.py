"""gramsem: pregroup grammar reductions lifted to tensor contractions.

The library has two halves joined by a functor.  The grammar half
(:mod:`gramsem.pregroup`, :mod:`gramsem.monotone`) builds free-pregroup
compound types and searches for planar counit reductions.  The semantics
half (:mod:`gramsem.linalg`) is a small compact-closed tensor kernel over
labelled real spaces.  :mod:`gramsem.functor` maps types to spaces and
reductions to contraction plans, giving sentence meanings from word
states; :mod:`gramsem.counting` counts co-occurrences in text, and
:mod:`gramsem.corpus` builds those states from the counts and persists
lexicons.

Only the semantics half imports numpy.  The names below are package
attributes that load their submodule on first use (PEP 562), so
``import gramsem`` and the grammar or counting half alone leave numpy
unloaded.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "counting": ("ContextConfig", "CooccurrenceCounts", "count_cooccurrence",
                 "export_vectors_tsv", "tokenize"),
    "corpus": ("Lexicon", "LexiconFormatError", "build_noun_vector",
               "load_lexicon", "save_lexicon"),
    "functor": ("LexiconEntry", "NoParseError", "PrellerWitness",
                "SentenceAnalysis", "UnassignedTypeError", "UnknownWordError",
                "enumerate_analyses", "identity_verb", "lift_reduction",
                "preller_obstruction", "sentence_meaning", "spaces_of"),
    "linalg": ("ContractionPlan", "Tensor", "VectorSpace", "apply_epsilon",
               "contract", "make_eta", "process_to_state", "scalar",
               "state_to_process", "tensor_product", "yanking_check"),
    "monotone": ("MonotoneMap", "SearchRadiusError", "galois_check",
                 "monotone_left_dual", "monotone_right_dual"),
    "pregroup": ("BasicType", "CompoundType", "Cup", "ReductionDiagram",
                 "SimpleType", "TypeSyntaxError", "adjoint_of", "can_contract",
                 "enumerate_reductions", "iter_reductions", "parse_type_expr"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached: the name always resolves to its submodule's current value
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
