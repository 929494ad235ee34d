"""Commutator presentations of the strand groups of linear trees.

The pipeline: parse a tree with a marked endpoint, read the arm count of
each star (branch vertex) along its trunk, enumerate each star's free
basis, and glue the pieces into a presentation whose only relations are
commutators (the data of a defining graph).  An independent
discretized-configuration cube complex with exact integer homology
cross-checks the result.
"""
