import contextlib

import numpy as np
import pytest

from stochlyap import integrator
from stochlyap.cayley import (
    CayleyState,
    conjugated_jacobians,
    exponents_from_rho,
    maybe_restart,
    step_k_rho,
)
from stochlyap.integrator import IntegratorConfig, step
from stochlyap.wiener import generate_path


@pytest.fixture(scope="session")
def short_path():
    """A 20000-step path at dt = 0.001, shared by the cheaper tests."""
    return generate_path(42, 20_000, 0.001)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(12345))


def _reference_nle(s, x0, path, dt, n_steps, eta, path_offset=0):
    """The paper's K/eta stepper under Euler-Maruyama: (lambdas, restarts)."""
    cfg = IntegratorConfig(dt=dt, n_steps=1, allow_convention_mismatch=True)
    x, cs = np.asarray(x0, dtype=float), CayleyState()
    for dW in path.scalar()[path_offset:path_offset + n_steps].tolist():
        j0, j1 = conjugated_jacobians(s, x, cs.q_accum)
        cs = maybe_restart(step_k_rho(cs, j0, j1, dt, dW), eta)
        x = step(s, x, dW, cfg)
    return exponents_from_rho(cs.rho, n_steps * dt), cs.restarts


@contextlib.contextmanager
def on_kernel(name):
    """Run the block on the compiled step kernel ("c") or, with its loader
    patched to give it, on the kernel's Python twin."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "python":
            mp.setattr(integrator, "_kernel", integrator._PythonKernel)
        else:
            kernel = integrator._kernel()
            assert not isinstance(kernel, integrator._PythonKernel), "the step kernel did not build"
        yield name


@pytest.fixture(params=["c", "python"])
def kernel(request):
    """Each kernel path in turn; a hypothesis test keeps it for all examples."""
    with on_kernel(request.param):
        yield request.param


@pytest.fixture(scope="session")
def reference_nle():
    """The K/eta reference stepper that ``run_nle``'s frame kernel replaces."""
    return _reference_nle
