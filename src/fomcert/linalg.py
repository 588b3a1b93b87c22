"""Finite-dimensional vectors and linear maps with adjoints."""

import numpy as np


class DimensionMismatch(ValueError):
    pass


# The per-trial products call M.dot(x), x.dot(x) and np.vdot(x, y), not @:
# the same BLAS calls with the same bits, at 0.4-0.6 us where @ costs
# 0.8-2.0 us (n <= 30).  numpy returns a one-term x.dot(y) as the bare
# product, so a zero keeps its sign where @, summing from +0.0, gives +0.0.
# np.vdot sums as @ does and a square is never -0.0, so a 1x1 map is the
# one place where the sign of a zero can differ from @.
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
        return self._matrix.dot(x)

    def adjoint_apply(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.out_dim,):
            raise DimensionMismatch(
                "adjoint expects dimension %d, got %d" % (self.out_dim, u.size))
        if self._matrix is None:
            return u.copy()
        return self._matrix.T.dot(u)
