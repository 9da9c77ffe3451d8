"""What each verdict must say, written down independently of the program.

Only outputs that do not depend on how GF(p^m) is represented are checked:
loci over F_p, counts, degrees, prime lists and pass flags.  A legitimate
change of the extension-field modulus leaves all of them unchanged.
"""
from __future__ import annotations

# distinct.charp_analysis: (family, p) -> (locus over F_p, locus degree).
# These are the paper's exceptional loci, reduced mod p and made monic.
CHARP = {
    ("deg3", 7): ("Poly<(1)>", 0),
    ("deg3", 11): ("Poly<(1)>", 0),
    ("deg3", 13): ("Poly<(1)*x^4 + (7)*x^2 + (1)>", 4),
    ("deg3", 17): ("Poly<(1)*x^2 + (7)>", 2),
    ("deg4", 11): ("Poly<(1)>", 0),
    ("deg4", 23): ("Poly<(1)*x^4 + (6)*x^2 + (1)>", 4),
    ("deg4", 37): ("Poly<(1)>", 0),
    ("deg4", 47): ("Poly<(1)*x^4 + (30)*x^2 + (1)>", 4),
    ("deg7", 7): ("Poly<(1)>", 0),
    ("deg7", 13): ("Poly<(1)*x^2 + (6)>", 2),
    ("deg7", 17): ("Poly<(1)*x^8 + (1)*x^6 + (5)*x^4 + (15)*x^2 + (4)>", 8),
    ("deg7", 19): ("Poly<(1)>", 0),
    ("deg7", 41): ("Poly<(1)*x^4 + (26)*x^2 + (8)>", 4),
    ("deg7", 167): ("Poly<(1)>", 0),
    ("deg7", 571603): ("Poly<(1)>", 0),
    ("howe2", 11): ("Poly<(1)*x^4 + (7)*x^2 + (1)>", 4),
}

# distinct.full_scan: (family, p, extension degree) ->
# (parameters scanned up to sign, #equal_geometric, #equal_base).
# Over F_p no valid parameter collides; over F_{p^2} the collisions are the
# roots of the locus above.
SCANS = {
    ("howe2", 11, 1): (10, 0, 0),
    ("howe2", 11, 2): (120, 4, 4),
    ("deg3", 13, 1): (12, 0, 0),
    ("deg3", 13, 2): (168, 4, 4),
    ("deg3", 17, 1): (16, 0, 0),
    ("deg3", 17, 2): (288, 2, 2),
    ("deg4", 23, 1): (22, 0, 0),
    ("deg4", 23, 2): (528, 4, 4),
    ("deg7", 13, 1): (12, 0, 0),
    ("deg7", 13, 2): (168, 2, 2),
}

# ellcurve.exhaustive_split_scan primes.
SPLIT_SCAN_PRIMES = (5, 7, 11)


def split_scan_counts(p: int) -> tuple:
    """Monic separable cubics over F_p by number of roots in F_p:
    irreducible (p^3 - p)/3, one root p * (p^2 - p)/2, three roots C(p, 3)."""
    counts = {0: (p**3 - p) // 3, 1: p * (p * p - p) // 2, 3: p * (p - 1) * (p - 2) // 6}
    return sum(counts.values()), counts


# distinct.prime_support: decimal digits of gcd(Res(R2, R3), Res(R2, R5)).
# The support itself must equal the family's printed primes.
GCD_DIGITS = {"deg3": 470, "deg4": 209, "deg7": 1271}

# obstruction.verify_all: the gluing degrees with an obstruction record.
OBSTRUCTION_DEGREES = (5, 6, 8, 9, 10, 12, 13, 16, 18, 25)

# glue.verify_reconstruction: the classes a valid case must recover.
RECONSTRUCTED_CLASSES = ["C_-t", "C_t"]
