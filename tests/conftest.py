import numpy as np
import pytest

import splitbreg as sb
import splitbreg.asb
import splitbreg.linops


@pytest.fixture(autouse=True)
def _cold_structure_memos():
    # the grid-operator and u-step-factor memos live as long as the process;
    # each test starts with both empty, so no result depends on test order
    splitbreg.linops._grid_gradient.cache_clear()
    splitbreg.asb._u_step_structure.cache_clear()


@pytest.fixture(scope="session")
def lasso_problem():
    rng = np.random.default_rng(0)
    y = 2.0 * rng.standard_normal(10)
    return sb.SplitProblem(
        g=sb.prox_quadratic(y, 1.0),
        f=sb.prox_l1(1.0, dim=10),
        L=sb.identity_operator(10),
        lam=1.0,
    )


@pytest.fixture(scope="session")
def tv1d_instance():
    return sb.make_tv_instance((32,), mu=0.15, seed=42)


@pytest.fixture(scope="session")
def tv1d_problem(tv1d_instance):
    return sb.build_tv_problem(tv1d_instance, lam=1.0)


@pytest.fixture(scope="session")
def lg_linear_instance():
    return sb.make_least_gradient_instance((16, 16), kind="linear")


@pytest.fixture(scope="session")
def lg_linear_problem(lg_linear_instance):
    return sb.build_least_gradient_problem(lg_linear_instance, lam=1.0)


@pytest.fixture(scope="session")
def lg_two_phase_instance():
    return sb.make_least_gradient_instance((16, 16), kind="two_phase")


@pytest.fixture(scope="session")
def lg_two_phase_problem(lg_two_phase_instance):
    return sb.build_least_gradient_problem(lg_two_phase_instance, lam=1.0)
