"""Shared helpers for the test suite."""

import numpy as np

from matseries import ScalarField, matrix


def random_matrix(rng, dim, field=ScalarField.REAL, norm=None):
    """Random matrix with entries uniform in [-1, 1], optionally norm-scaled."""
    a = rng.uniform(-1.0, 1.0, (dim, dim))
    if field is ScalarField.COMPLEX:
        a = a + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    if norm is not None:
        a = a / np.linalg.norm(a) * norm
    return matrix(a)


def rel_err(actual, expected):
    """Frobenius relative error against a dense array or MatrixElement."""
    act = getattr(actual, "entries", actual)
    exp = getattr(expected, "entries", expected)
    scale = np.linalg.norm(exp)
    if scale == 0.0:
        return float(np.linalg.norm(act))
    return float(np.linalg.norm(act - exp) / scale)


#: Matrix structures the truncation tests sweep: the power norms of the
#: last four fall far below ``norm(T)^m``.
STRUCTURES = ("gaussian", "complex", "jordan", "rank-one", "strictly-upper", "non-normal")


def structured_matrix(rng, kind, dim, norm):
    """Matrix of a named structure (see ``STRUCTURES``) with the given Frobenius norm."""
    if kind == "gaussian":
        a = rng.standard_normal((dim, dim))
    elif kind == "complex":
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    elif kind == "jordan":
        a = 0.3 * np.eye(dim) + np.eye(dim, k=1)
    elif kind == "rank-one":
        a = np.outer(rng.standard_normal(dim), rng.standard_normal(dim))
    elif kind == "strictly-upper":
        a = np.triu(rng.standard_normal((dim, dim)), 1)
    elif kind == "non-normal":
        a = np.diag(0.05 * rng.standard_normal(dim)) + 10.0 * np.triu(rng.standard_normal((dim, dim)), 1)
    else:
        raise ValueError(f"unknown matrix structure {kind!r}")
    return matrix(a * (norm / np.linalg.norm(a)))
