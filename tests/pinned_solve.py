"""Reference solve of a full sparse system with one node pinned to zero."""

import numpy as np

from fracflow.solvers import _solve_spd


def solve_pinned(A, b, node):
    """x with x[node] = 0 that solves the other rows of A x = b.

    The free block A[free][:, free], symmetric positive definite, is
    solved by `_solve_spd`, the verified direct solve of the full slab:
    one pivot-free L D L^T factorization in the block's natural order,
    accepted only at machine-level backward error, with b scaled by a
    power of two so that the residual norms cannot underflow however
    small b is.
    """
    free = np.flatnonzero(np.arange(A.shape[0]) != node)
    A = A.tocsr()
    x = np.zeros(A.shape[0])
    x[free] = _solve_spd(A[free][:, free], np.asarray(b, dtype=float)[free])
    return x
