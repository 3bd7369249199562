import numpy as np
import pytest

from qworkstats import (
    DiscretizedDrive,
    HermitianOperator,
    cyclic_qubit_drive,
    cyclic_qubit_state,
    discretize,
    pure_state_density,
    random_ramp_protocol,
)

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
    return DiscretizedDrive(np.zeros(1), gen.matrix[None], duration, ham, ham)


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
