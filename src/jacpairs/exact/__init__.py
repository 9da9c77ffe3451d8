"""Exact arithmetic: integers, finite fields, polynomials, rational functions."""
