import numpy as np
import pytest

import fomcert
from fomcert import _kernels
from fomcert.reference import DomainError


def test_implementation_tag():
    assert _kernels.IMPLEMENTATION == "python"
    assert fomcert.kernel_implementation == "python"


def test_soft_threshold():
    v = np.array([3.0, -2.0, 0.5, 0.0])
    out = _kernels.soft_threshold(v, 1.0)
    assert np.allclose(out, [2.0, -1.0, 0.0, 0.0])


def test_project_simplex_examples():
    # Already on the simplex: fixed point.
    assert np.allclose(_kernels.project_simplex(np.array([0.5, 0.5])),
                       [0.5, 0.5])
    # One dominant coordinate: [2, 0] -> shift by lambda = 1.
    assert np.allclose(_kernels.project_simplex(np.array([2.0, 0.0])),
                       [1.0, 0.0])
    assert np.allclose(_kernels.project_simplex(np.array([5.0])), [1.0])


def test_project_simplex_is_projection():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.standard_normal(8) * 3.0
        p = _kernels.project_simplex(v)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        # Variational characterization: <v - p, q - p> <= 0 for feasible q.
        for _ in range(5):
            q = rng.dirichlet(np.ones(8))
            assert float((v - p) @ (q - p)) <= 1e-10


def test_project_simplex_rejects_inf_and_nan():
    for v in ([np.inf, 0.0], [np.nan, 0.0], [2.0, np.inf, 1.0]):
        with pytest.raises(DomainError):
            _kernels.project_simplex(np.array(v))
    # A -inf coordinate projects to 0, so that point has a finite projection.
    assert np.array_equal(_kernels.project_simplex(np.array([-np.inf, 0.3])),
                          [0.0, 1.0])


def test_entropy_prox_simplex_example():
    # s_prev uniform, t*c = [ln 2, 0]: weights [0.25, 0.5] -> s = [1/3, 2/3].
    s, log_z = _kernels.entropy_prox_simplex(np.log(np.array([0.5, 0.5])),
                                          np.array([np.log(2.0), 0.0]))
    assert np.allclose(s, [1.0 / 3.0, 2.0 / 3.0])
    assert abs(log_z - np.log(0.75)) <= 1e-14
    assert abs(s.sum() - 1.0) <= 1e-14


def test_bregman_kernels_match_definitions():
    rng = np.random.default_rng(11)
    for _ in range(30):
        s = rng.uniform(0.1, 2.0, 6)
        z = rng.uniform(0.1, 2.0, 6)
        d = s - z
        sq = 0.5 * float(d @ d)
        assert abs(_kernels.sq_euclid_bregman(s, z) - sq) <= 1e-12
        ent = float(np.sum(s * np.log(s / z)) - s.sum() + z.sum())
        assert abs(_kernels.entropy_bregman(s, z) - ent) <= 1e-12
        burg = float(np.sum(s / z - np.log(s / z) - 1.0))
        assert abs(_kernels.burg_bregman(s, z) - burg) <= 1e-12


def test_entropy_bregman_zero_coordinates():
    s = np.array([0.0, 1.0])
    z = np.array([0.5, 0.5])
    # 0 log 0 = 0 on the first coordinate.
    expected = 1.0 * np.log(2.0) - 1.0 + 1.0
    assert abs(_kernels.entropy_bregman(s, z) - expected) <= 1e-12

