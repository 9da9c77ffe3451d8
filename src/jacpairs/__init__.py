"""Exact-arithmetic toolkit for genus-2 curve pairs with isomorphic
unpolarized Jacobians: family constructors, gluing, Igusa invariants,
distinguishing analyses, and obstruction checks."""

__version__ = "1.0.0"
