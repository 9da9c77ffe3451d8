"""Invariants of genus-2 curve models and weighted-projective equality."""
