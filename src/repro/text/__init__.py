"""Text and vector-space substrate (edge-weight machinery of §4).

Public surface::

    from repro.text import tokenize, remove_stop_words, stem
    from repro.text import TfIdfModel, dot, norm
"""

from .stemmer import stem
from .tfidf import TfIdfModel, document_frequencies, idf_weights
from .tokenize import STOP_WORDS, remove_stop_words, tokenize
from .vectors import TermVector, add, dot, from_counts, norm, scale

__all__ = [
    "STOP_WORDS",
    "TermVector",
    "TfIdfModel",
    "add",
    "document_frequencies",
    "dot",
    "from_counts",
    "idf_weights",
    "norm",
    "remove_stop_words",
    "scale",
    "stem",
    "tokenize",
]
