"""Exact engine for sphere-summand decompositions of homotopy groups.

Subpackages follow the computation pipeline: `series` (exact power-series
counting), `algebra` (words, tensors, the relation's letter order),
`rewriting` (counts of the words that avoid the relation's leading word
x0 x1), `lyndon` (standard Lyndon Lie bases), `cobar` (integral
chain-level oracle), `spaces` (space models, their forms and reports) and
`cli`.
"""

__version__ = "0.1.0"
