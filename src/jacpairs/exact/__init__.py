"""Exact arithmetic: integers, rationals, finite fields and polynomials."""
