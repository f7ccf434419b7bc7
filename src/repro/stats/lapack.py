"""Direct calls into NumPy's LAPACK gufuncs for the Markov kernels.

``np.linalg.solve`` and ``np.linalg.eig`` spend most of their time on
small matrices in Python-level argument handling (array wrapping, type
resolution, stacked-square checks), not in LAPACK: a solve of a few
states costs several times the gufunc it wraps (EXPERIMENTS.md,
"Performance of the harness itself", has the per-call measurements).
The Markov statistics make thousands of such calls per sweep, so this
module calls the same gufuncs (``numpy.linalg._umath_linalg``) with
the same signatures and reproduces the post-processing the public
functions apply, so every result is bit-identical to theirs.  It is
the one module that touches that private API;
``tests/stats/test_lapack.py`` pins both functions against
``np.linalg`` bit for bit.

Inputs are real and computed in double precision, as ``np.linalg``
computes them (it would cast a single-precision result back to single;
the Markov chains are always float64).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

_solve1 = _umath_linalg.solve1
_eig = _umath_linalg.eig

#: ``(I, 1)`` per system size: the identity and the all-ones right-hand
#: side of an absorbing-chain solve, read-only (shared by every caller).
_EYE_ONES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _errstate() -> np.errstate:
    """The floating-point state ``np.linalg`` runs its gufuncs under,
    with ``invalid`` (LAPACK's failure signal) raised.  A fresh object
    per call: one ``np.errstate`` cannot be entered twice."""
    return np.errstate(invalid="raise", over="ignore", divide="ignore",
                       under="ignore")


def absorbing_solve(q: np.ndarray) -> np.ndarray | None:
    """``(I - q)^{-1} 1`` for a square ``q``, as
    ``np.linalg.solve(np.eye(r) - q, np.ones(r))`` computes it, or
    ``None`` when that raises ``LinAlgError`` (``I - q`` singular) or
    returns a non-finite component."""
    r = q.shape[0]
    eye_ones = _EYE_ONES.get(r)
    if eye_ones is None:
        eye_ones = (np.eye(r), np.ones(r))
        for arr in eye_ones:
            arr.setflags(write=False)
        _EYE_ONES[r] = eye_ones
    eye, ones = eye_ones
    try:
        with _errstate():
            x = _solve1(eye - q, ones, signature="dd->d")
    except FloatingPointError:
        return None
    if not np.isfinite(x).all():
        return None
    return x


def eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eig(a)`` for a real square matrix: eigenvalues and
    right eigenvectors, real when every eigenvalue's imaginary part is
    zero and complex otherwise.  Raises ``LinAlgError`` where
    ``np.linalg.eig`` does (non-finite input, no convergence)."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    try:
        with _errstate():
            w, vt = _eig(a, signature="d->DD")
    except FloatingPointError:
        raise LinAlgError("Eigenvalues did not converge") from None
    if (w.imag == 0.0).all():
        return w.real, vt.real
    return w, vt
