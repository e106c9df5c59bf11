"""gramsem: pregroup grammar reductions lifted to tensor contractions.

The library has two halves joined by a functor.  The grammar half
(:mod:`gramsem.pregroup`, :mod:`gramsem.monotone`) builds free-pregroup
compound types and searches for planar counit reductions.  The semantics
half (:mod:`gramsem.linalg`) is a small compact-closed tensor kernel over
labelled real spaces.  :mod:`gramsem.functor` maps types to spaces and
reductions to contraction plans, giving sentence meanings from word
states; :mod:`gramsem.corpus` builds those states from co-occurrence
counts and persists lexicons.
"""

from .corpus import (ContextConfig, CooccurrenceCounts, Lexicon,
                     LexiconFormatError, build_noun_vector,
                     count_cooccurrence, export_vectors_tsv, load_lexicon,
                     save_lexicon, tokenize)
from .functor import (LexiconEntry, NoParseError, PrellerWitness,
                      SentenceAnalysis, UnassignedTypeError, UnknownWordError,
                      enumerate_analyses, identity_verb, lift_reduction,
                      preller_obstruction, sentence_meaning, spaces_of)
from .linalg import (ContractionPlan, Tensor, VectorSpace, apply_epsilon,
                     contract, make_eta, process_to_state, scalar,
                     state_to_process, tensor_product, yanking_check)
from .monotone import (MonotoneMap, SearchRadiusError, galois_check,
                       monotone_left_dual, monotone_right_dual)
from .pregroup import (BasicType, CompoundType, Cup, ReductionDiagram,
                       SimpleType, TypeSyntaxError, adjoint_of, can_contract,
                       enumerate_reductions, iter_reductions,
                       parse_type_expr)

__version__ = "0.1.0"
