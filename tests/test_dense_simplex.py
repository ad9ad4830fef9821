import numpy as np
import pytest

from mklab import InfeasibleError, InvariantError, UnboundedError
from mklab.dense_simplex import solve_dense

from conftest import dense_transport


def test_basic_le():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  min -(x + y)
    res = solve_dense([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], ["le", "le"], [4.0, 6.0])
    assert res.value == pytest.approx(-(8 / 5 + 6 / 5))
    assert res.x == pytest.approx([8 / 5, 6 / 5])


def test_equality_and_duals():
    # min x + 2y s.t. x + y = 1 -> x = 1, dual y = 1
    res = solve_dense([1.0, 2.0], [[1.0, 1.0]], ["eq"], [1.0])
    assert res.value == pytest.approx(1.0)
    assert res.duals == pytest.approx([1.0])


def test_ge_row():
    # min x s.t. x >= 3
    res = solve_dense([1.0], [[1.0]], ["ge"], [3.0])
    assert res.value == pytest.approx(3.0)
    assert res.duals == pytest.approx([1.0])


def test_negative_rhs_flip():
    # -x - y <= -2 must be written x + y >= 2: a negative right-hand side is rejected
    with pytest.raises(InvariantError, match="right-hand side must be nonnegative"):
        solve_dense([1.0, 1.0], [[-1.0, -1.0]], ["le"], [-2.0])


def test_infeasible():
    # x <= 1 and x >= 2
    with pytest.raises(InfeasibleError):
        solve_dense([1.0], [[1.0], [1.0]], ["le", "ge"], [1.0, 2.0])


def test_unbounded():
    with pytest.raises(UnboundedError):
        solve_dense([-1.0], [[0.0]], ["le"], [1.0])


def test_degenerate_instance_terminates():
    # classic cycling-prone instance (Beale); Bland's rule must finish it
    c = [-0.75, 150.0, -0.02, 6.0]
    a = [[0.25, -60.0, -0.04, 9.0],
         [0.5, -90.0, -0.02, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    res = solve_dense(c, a, ["le", "le", "le"], [0.0, 0.0, 1.0])
    assert res.value == pytest.approx(-0.05)


def test_transportation_duals_are_potentials(rng):
    m, n = 4, 5
    cost = rng.uniform(0, 3, (m, n))
    mu = rng.uniform(0.1, 1.0, m)
    mu /= mu.sum()
    nu = rng.uniform(0.1, 1.0, n)
    nu /= nu.sum()
    tails, heads = np.divmod(np.arange(m * n), n)
    res = dense_transport(m, n, tails, heads, cost.ravel(), mu, nu)
    phi, psi = res.duals[:m], res.duals[m:]
    # dual feasibility and strong duality
    assert np.max(phi[:, None] + psi[None, :] - cost) <= 1e-9
    assert phi @ mu + psi @ nu == pytest.approx(res.value, abs=1e-9)
