import numpy as np
import pytest

from qworkstats import (
    DiscretizedComposite,
    DiscretizedDrive,
    HermitianOperator,
    constant_protocol,
    cyclic_qubit_drive,
    cyclic_qubit_state,
    discretize,
    pure_state_density,
    random_ramp_protocol,
)
from qworkstats.linalg import UNITARITY_TOL, dagger, mat, max_abs, partial_trace_env, tensor

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_qubit_drive(rng):
    return discretize(random_ramp_protocol(2, 1.0, rng), 24)


def make_static_drive(h, duration=1.0, generator=None):
    """Single-step drive with explicit boundary kick Hamiltonian ``h``."""
    ham = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
    gen = ham if generator is None else (
        generator if isinstance(generator, HermitianOperator) else HermitianOperator(generator)
    )
    return DiscretizedDrive(gen.matrix[None], duration, ham, ham)


def composite_hamiltonian(composite, h_s):
    """``H^k = H_S^k (x) 1 + 1 (x) H_E + g H_SE`` from explicit Kronecker
    products; ``h_s`` may be an ``(N, d_s, d_s)`` stack of steps."""
    return (
        np.kron(mat(h_s), np.eye(composite.dim_e))
        + np.kron(np.eye(composite.dim_s), composite.h_env.matrix)
        + composite.coupling_scale * composite.coupling.matrix
    )


def step_slice(composite, k):
    """Step ``k`` of ``composite`` as a one-step composite: its heat counting
    operators are the measurement blocks
    ``B_k(lam) = exp(-i lam/2 H_S^k) E_k exp(+i lam/2 H_S^k)``."""
    drive = composite.drive
    step = discretize(constant_protocol(drive.hamiltonians[k], drive.dt), 1)
    return DiscretizedComposite(step, composite.h_env, composite.coupling, composite.coupling_scale)


def stepwise_reduced_states(composite, rho_s, rho_e, refresh_every=None):
    """Oracle of ``DiscretizedComposite.trajectory``: the reduced states
    ``rho_{S,0} ... rho_{S,N}`` from one ``E_k rho E_k^dag`` per step, the
    environment reset to ``rho_e`` after every ``refresh_every`` steps."""
    rho = tensor(rho_s, rho_e)
    states = [mat(rho_s)]
    for k, e in enumerate(composite.propagators, start=1):
        rho = e @ rho @ e.conj().T
        states.append(partial_trace_env(rho, composite.dim_s, composite.dim_e))
        if refresh_every is not None and k % refresh_every == 0:
            rho = tensor(states[-1], rho_e)
    return np.array(states)


def assert_unitary(u):
    """Every matrix of the ``(..., D, D)`` stack ``u`` passes the
    :class:`UnitaryOperator` check ``max|U^dag U - 1| <= UNITARITY_TOL``."""
    assert max_abs(dagger(u) @ u - np.eye(u.shape[-1])) <= UNITARITY_TOL


def cyclic_fixture(alpha, xi, gap=1.0):
    drive = cyclic_qubit_drive(alpha, xi, gap)
    rho = pure_state_density(cyclic_qubit_state(alpha))
    return drive, rho


def random_diagonal_state(h_start, rng):
    """Random mixture diagonal in the eigenbasis of ``h_start``."""
    from qworkstats import eig_hermitian

    _, vectors = eig_hermitian(h_start)
    v = vectors.matrix
    pops = rng.random(v.shape[0]) + 0.05
    pops /= pops.sum()
    from qworkstats import DensityOperator

    return DensityOperator((v * pops) @ v.conj().T)
