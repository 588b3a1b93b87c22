"""The numpy inner-loop kernels of the prox steps and Bregman distances."""

import numpy as np

IMPLEMENTATION = "python"


class DomainError(ValueError):
    """A point outside the domain of a function or a kernel."""


def soft_threshold(v, tau):
    """Componentwise shrink: sign(v) * max(|v| - tau, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_simplex(v):
    """Euclidean projection onto the unit simplex (sort-based).

    Raises DomainError when v has a +inf or NaN entry: then no sorted
    prefix passes the threshold test.
    """
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    passing = np.nonzero(u * np.arange(1, n + 1) > (css - 1.0))[0]
    if not passing.size:
        raise DomainError("simplex projection of a +inf or NaN entry")
    rho = passing[-1]
    lam = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - lam, 0.0)


def entropy_prox_simplex(log_s_prev, tc):
    """Entropy-prox multiplicative update on the simplex, in log space.

    Returns (s, log_z) where s_i proportional to s_prev_i * exp(-tc_i) and
    log_z is the log of the normalizing constant.
    """
    w = log_s_prev - tc
    m = w.max()
    e = np.exp(w - m)
    z = e.sum()
    log_z = m + np.log(z)
    return e / z, log_z


def sq_euclid_bregman(s, z):
    d = s - z
    return 0.5 * float(d @ d)


def entropy_bregman(s, z):
    # 0*log 0 = 0 on the s side; z must be strictly positive.
    mask = s > 0.0
    out = float((s[mask] * np.log(s[mask] / z[mask])).sum())
    return out - float(s.sum()) + float(z.sum())


def burg_bregman(s, z):
    r = s / z
    return float((r - np.log(r) - 1.0).sum())
