"""Reference functions h and their Bregman distances."""

import numpy as np

from . import _kernels
from ._kernels import DomainError


MIN_POSITIVE = 1e-300


class ReferenceFunction:
    """Convex differentiable generator of the Bregman distance that each
    subclass's bregman(s, z) = h(s) - h(z) - <grad h(z), s - z> computes."""

    kind = None

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError


class SquaredEuclidean(ReferenceFunction):
    kind = "sq_euclid"

    def value(self, x):
        return 0.5 * float(x @ x)

    def gradient(self, x):
        return x.copy()

    def bregman(self, s, z):
        return _kernels.sq_euclid_bregman(s, z)


class Entropy(ReferenceFunction):
    """h(x) = sum x_i log x_i with 0 log 0 = 0; gradient needs x > 0."""

    kind = "entropy"

    def value(self, x):
        if (x < 0.0).any():
            raise DomainError("entropy needs nonnegative coordinates")
        mask = x > 0.0
        return float((x[mask] * np.log(x[mask])).sum())

    def gradient(self, x):
        if (x <= 0.0).any():
            raise DomainError("entropy gradient needs strictly positive coordinates")
        return 1.0 + np.log(x)

    def bregman(self, s, z):
        if (s < 0.0).any() or (z <= 0.0).any():
            raise DomainError("entropy Bregman distance outside domain")
        return _kernels.entropy_bregman(s, z)


class Burg(ReferenceFunction):
    """h(x) = -sum log x_i on the positive orthant."""

    kind = "burg"

    def value(self, x):
        if (x <= 0.0).any():
            raise DomainError("Burg entropy needs strictly positive coordinates")
        return -float(np.log(x).sum())

    def gradient(self, x):
        if (x <= 0.0).any():
            raise DomainError("Burg gradient needs strictly positive coordinates")
        return -1.0 / x

    def bregman(self, s, z):
        if (s <= 0.0).any() or (z <= 0.0).any():
            raise DomainError("Burg Bregman distance outside domain")
        return _kernels.burg_bregman(s, z)


class ZeroReference(ReferenceFunction):
    """h identically zero; D_h vanishes and the prox step becomes linmin."""

    kind = "zero"

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros_like(x)

    def bregman(self, s, z):
        return 0.0
