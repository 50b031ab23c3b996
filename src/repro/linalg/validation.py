"""Input validation helpers shared across the package.

Every public entry point in :mod:`repro` funnels its array arguments through
these functions so that error messages are uniform and the numerical code can
assume well-formed ``float64`` arrays.
"""

from __future__ import annotations

import numbers

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError

__all__ = [
    "as_epsilon_batch",
    "as_matrix",
    "as_vector",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_shape_compatible",
    "ensure_rng",
]


def as_epsilon_batch(epsilons):
    """Coerce a batch of per-release epsilons to a 1-D float64 array.

    A scalar promotes to a one-element batch; every entry must be positive
    and finite. The single validation rule behind the vectorised
    multi-release path (``Mechanism.answer_many``, the batched noise
    helpers in :mod:`repro.privacy.noise`).
    """
    epsilons = np.asarray(epsilons, dtype=np.float64)
    if epsilons.ndim == 0:
        epsilons = epsilons[None]
    if epsilons.ndim != 1 or epsilons.size == 0:
        raise ValidationError(
            f"epsilons must be a non-empty 1-D sequence, got shape {epsilons.shape}"
        )
    # Serving batches are small, where one Python pass beats two numpy
    # reductions; a comparison with NaN is false, so NaN is rejected too.
    if not all(0.0 < epsilon < np.inf for epsilon in epsilons.tolist()):
        raise ValidationError("every epsilon must be positive and finite")
    return epsilons


def as_matrix(value, name="matrix", allow_sparse=False):
    """Coerce ``value`` to a 2-D float64 array (or sparse matrix).

    Parameters
    ----------
    value:
        Anything :func:`numpy.asarray` accepts, or a scipy sparse matrix.
    name:
        Name used in error messages.
    allow_sparse:
        When True, scipy sparse inputs are passed through (converted to CSR).

    Returns
    -------
    numpy.ndarray or scipy.sparse.csr_matrix
        A 2-D array with dtype float64 and at least one row and column.
    """
    if type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == 2:
        # Fast path for the solver hot loop: already a dense 2-D float64
        # array, so only the cheap semantic checks remain.
        if value.shape[0] == 0 or value.shape[1] == 0:
            raise ValidationError(f"{name} must be non-empty, got shape {value.shape}")
        if not np.isfinite(value).all():
            raise ValidationError(f"{name} contains NaN or infinite entries")
        return value

    if sp.issparse(value):
        if not allow_sparse:
            raise ValidationError(f"{name} must be dense, got sparse matrix")
        matrix = value.tocsr().astype(np.float64)
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValidationError(f"{name} must be non-empty, got shape {matrix.shape}")
        return matrix

    matrix = np.asarray(value, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={matrix.ndim}")
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ValidationError(f"{name} must be non-empty, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return matrix


def as_vector(value, name="vector", size=None):
    """Coerce ``value`` to a 1-D float64 array, optionally of a fixed size."""
    vector = np.asarray(value, dtype=np.float64)
    if vector.ndim == 2 and 1 in vector.shape:
        vector = vector.ravel()
    if vector.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got ndim={vector.ndim}")
    if vector.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(vector)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    if size is not None and vector.size != size:
        raise ValidationError(f"{name} must have length {size}, got {vector.size}")
    return vector


def check_positive(value, name="value"):
    """Validate that ``value`` is a finite, strictly positive real number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def check_positive_int(value, name="value"):
    """Validate that ``value`` is a strictly positive integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return value


def check_probability(value, name="value"):
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_shape_compatible(matrix, vector, matrix_name="W", vector_name="x"):
    """Validate that ``matrix @ vector`` is well defined."""
    if matrix.shape[1] != vector.shape[0]:
        raise ValidationError(
            f"{matrix_name} has {matrix.shape[1]} columns but "
            f"{vector_name} has length {vector.shape[0]}"
        )


def ensure_rng(rng=None):
    """Return a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh default generator), an integer seed, or an
    existing generator (returned unchanged). This is the single place the
    package converts user-provided randomness.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, numbers.Integral) and not isinstance(rng, bool):
        return np.random.default_rng(int(rng))
    raise ValidationError(
        f"rng must be None, an int seed, or numpy.random.Generator, got {type(rng).__name__}"
    )
