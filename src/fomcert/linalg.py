"""Finite-dimensional vectors and linear maps with adjoints."""

import numpy as np


class DimensionMismatch(ValueError):
    pass


class LinearMap:
    """A linear map together with its exact adjoint (transpose) action.

    Two variants: ``identity(dim)`` and ``dense(matrix)``.  The adjoint is
    the transpose, so <Ax, u> = <x, A*u> holds to rounding.
    """

    def __init__(self, matrix=None, dim=None):
        if matrix is None:
            if dim is None:
                raise ValueError("identity map needs a dimension")
            self._matrix = None
            self.in_dim = self.out_dim = int(dim)
        else:
            m = np.asarray(matrix, dtype=float)
            if m.ndim != 2:
                raise ValueError("dense map needs a 2-d matrix")
            if not np.all(np.isfinite(m)):
                raise ValueError("matrix has non-finite entries")
            self._matrix = m
            self.out_dim, self.in_dim = m.shape

    @classmethod
    def identity(cls, dim):
        return cls(dim=dim)

    @classmethod
    def dense(cls, matrix):
        return cls(matrix=matrix)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.in_dim,):
            raise DimensionMismatch(
                "map expects dimension %d, got %d" % (self.in_dim, x.size))
        if self._matrix is None:
            return x.copy()
        return self._matrix @ x

    def adjoint_apply(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.out_dim,):
            raise DimensionMismatch(
                "adjoint expects dimension %d, got %d" % (self.out_dim, u.size))
        if self._matrix is None:
            return u.copy()
        return self._matrix.T @ u
