"""Frozen expected values for the classification tables, and the paper's closed forms.

Cells are verified counts per degree for each surface; a degree is listed
exactly when it does not exceed the surface degree (the blank cells of the
printed table).  TOTALS is the bottom row.
"""

from delpezzo import arithmetic_genus, degree, intersect

EXPECTED_COUNTS = {
    "X0": {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 1, 7: 0, 8: 0, 9: 0},
    "X1": {0: 1, 1: 1, 2: 1, 3: 1, 4: 0, 5: 1, 6: 1, 7: 1, 8: 0},
    "X2": {0: 1, 1: 3, 2: 2, 3: 1, 4: 1, 5: 2, 6: 3, 7: 2},
    "X3": {0: 1, 1: 6, 2: 3, 3: 2, 4: 3, 5: 6, 6: 8},
    "X4": {0: 1, 1: 10, 2: 5, 3: 5, 4: 10, 5: 20},
    "X5": {0: 1, 1: 16, 2: 10, 3: 16, 4: 40},
    "X6": {0: 1, 1: 27, 2: 27, 3: 72},
    "Q": {0: 1, 1: 0, 2: 2, 3: 0, 4: 1, 5: 0, 6: 2, 7: 0, 8: 2},
}

TOTALS = {"X0": 3, "X1": 7, "X2": 15, "X3": 29, "X4": 51, "X5": 83, "X6": 127, "Q": 8}

LINE_COUNTS = {"X0": 0, "X1": 1, "X2": 3, "X3": 6, "X4": 10, "X5": 16, "X6": 27, "Q": 0}

# rows of the wild-pair table: surface -> (C text, D text, C.D)
WILD_TABLE = {
    "X3": ("3l-2e1-e2", "3l-2e2-e3", 7),
    "X4": ("3l-2e1-e2-e3", "3l-2e2-e3-e4", 6),
    "X5": ("3l-2e1-e2-e3-e4", "3l-2e2-e3-e4-e5", 5),
    "X6": ("3l-2e1-e2-e3-e4-e5", "3l-2e2-e3-e4-e5-e6", 4),
}

# Closed forms of the paper for the cohomology of an initialized ACM class D,
# the oracles of geometry.cohomology.  For D != 0, D^2 = D.H - 2 gives
# chi(D) = D.H, chi(D - H) = 0 and chi(D - 2H) = H^2 - D.H.


def ambient_dimension(D):
    """h^0(D) = D.H: the rational normal curve of degree D.H."""
    return degree(D)


def h0_hyperplane_residual(D):
    """Independent hyperplanes through the curve: h^0(H - D) = H^2 - D.H."""
    return D.surface.degree - degree(D)


def h1_initialized_twist(D):
    """h^1(D - H) = -chi(D - H) = -p_a(D) for a nonzero initialized effective class."""
    return -arithmetic_genus(D)


def h2_twist_minus_2(D):
    """h^2(D - 2H) = chi(D - 2H) = H^2 - D.H, and H^2 + 1 at D = 0."""
    return D.surface.degree + 1 if D.is_zero else D.surface.degree - degree(D)


def ext1_closed_form(X, Y):
    """dim Ext^1(O(X), O(Y)) = 1 + X.Y - d for distinct maximal-degree classes."""
    return 1 + intersect(X, Y) - X.surface.degree
