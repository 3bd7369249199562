from itertools import product

import numpy as np
import pytest

from qworkstats import (
    HermitianOperator,
    PathBasisSequence,
    boundary_beta,
    counting_weighted_sum,
    discretize,
    enumerate_paths,
    evolution_operator,
    expm_unitary,
    kicked_product,
    linear_ramp_protocol,
    path_sum,
    random_hermitian,
    random_ramp_protocol,
    two_kick_propagator,
)
from qworkstats.linalg import NumericalError
from qworkstats.paths import default_observable_sequence

from conftest import PAULI_X, PAULI_Z


def ramp_drive(n_steps, duration=1.0):
    return discretize(linear_ramp_protocol(-0.5 * PAULI_Z, PAULI_X, duration), n_steps)


def random_states(rng, dim=2):
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi1 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi0 / np.linalg.norm(psi0), psi1 / np.linalg.norm(psi1)


class TestEnumeration:
    def test_single_step_has_four_paths(self):
        drive = ramp_drive(1)
        basis = np.eye(2, dtype=complex)
        records = enumerate_paths(drive, basis[:, 0], basis[:, 1], beta=np.zeros(2))
        assert len(records) == 4
        u = evolution_operator(drive).matrix
        assert path_sum(records) == pytest.approx(u[1, 0], abs=1e-12)

    def test_three_step_qubit_sixteen_paths(self, rng):
        drive = discretize(random_ramp_protocol(2, 1.0, rng), 3)
        psi0, psi1 = random_states(rng)
        records = enumerate_paths(drive, psi0, psi1)
        assert len(records) == 16
        u = evolution_operator(drive).matrix
        assert path_sum(records) == pytest.approx(complex(np.conj(psi1) @ u @ psi0), abs=1e-12)

    def test_orthogonal_final_state_sums_to_zero(self, rng):
        drive = ramp_drive(4)
        psi0, _ = random_states(rng)
        final = evolution_operator(drive).matrix @ psi0
        perp = np.array([-np.conj(final[1]), np.conj(final[0])])
        records = enumerate_paths(drive, psi0, perp)
        assert abs(path_sum(records)) <= 1e-12

    def test_completeness_over_full_basis(self, rng):
        drive = discretize(random_ramp_protocol(2, 1.0, rng), 6)
        u = evolution_operator(drive).matrix
        basis = np.eye(2, dtype=complex)
        for col in range(2):
            for row in range(2):
                records = enumerate_paths(drive, basis[:, col], basis[:, row])
                assert path_sum(records) == pytest.approx(u[row, col], abs=1e-10)

    def test_enumeration_guard(self):
        drive = ramp_drive(24)
        with pytest.raises(NumericalError, match="limit"):
            enumerate_paths(drive, np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_observable_count_validated(self, rng):
        drive = ramp_drive(3)
        psi0, psi1 = random_states(rng)
        with pytest.raises(ValueError, match="observables"):
            enumerate_paths(drive, psi0, psi1, observables=[drive.h_start] * 3)

    @pytest.mark.parametrize("reader", [enumerate_paths, kicked_product, default_observable_sequence])
    def test_magnus_drive_rejected(self, reader):
        # the path functional needs H(t_k) itself, which a Magnus-4 generator is not
        drive = discretize(linear_ramp_protocol(-0.5 * PAULI_Z, PAULI_X, 1.0), 3, rule="magnus4")
        args = {enumerate_paths: (np.ones(2), np.ones(2)), kicked_product: (0.3,)}.get(reader, ())
        with pytest.raises(ValueError, match="left"):
            reader(drive, *args)

    def test_boundary_beta_needs_two_steps(self):
        with pytest.raises(ValueError, match="two steps"):
            boundary_beta(1, 0.5)

    def test_functional_values_are_energy_differences(self):
        drive = ramp_drive(4)
        records = enumerate_paths(drive, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        obs = default_observable_sequence(drive)
        from qworkstats import eig_hermitian

        first = eig_hermitian(obs[0])[0]
        last = eig_hermitian(obs[3])[0]
        expected = {round(b - a, 10) for a in first for b in last}
        assert {round(f, 10) for f in records.functional.tolist()} <= expected


def record_loop(drive, psi_initial, psi_final, observables, beta):
    """The per-path loop the array ensemble replaced, kept as its oracle:
    one ``(indices, amplitude, functional)`` triple per index tuple."""
    n = drive.n_steps
    basis = PathBasisSequence.from_observables(observables)
    transfer = [
        basis.bases[k + 1].conj().T @ expm_unitary(drive.hamiltonians[k], drive.dt).matrix @ basis.bases[k]
        for k in range(n)
    ]
    start = basis.bases[0].conj().T @ psi_initial
    end = basis.bases[n].conj().T @ psi_final
    scaled_values = [drive.dt * beta[k] * basis.values[k] for k in range(n + 1)]
    records = []
    for indices in product(range(drive.dim), repeat=n + 1):
        amp = start[indices[0]]
        for k in range(n):
            amp *= transfer[k][indices[k + 1], indices[k]]
        amp *= np.conj(end[indices[n]])
        f = sum(scaled_values[k][indices[k]] for k in range(n + 1))
        records.append((indices, complex(amp), float(f)))
    return records


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("n_steps", (1, 2, 3, 4))
@pytest.mark.parametrize("seed", (0, 1))
def test_ensemble_matches_record_loop(dim, n_steps, seed):
    rng = np.random.default_rng(300 + 31 * dim + 7 * n_steps + seed)
    drive = discretize(random_ramp_protocol(dim, 1.0, rng), n_steps)
    observables = [random_hermitian(dim, rng) for _ in range(n_steps + 1)]
    beta = rng.normal(size=n_steps + 1) / drive.dt
    psi0, psi1 = random_states(rng, dim)
    paths = enumerate_paths(drive, psi0, psi1, observables=observables, beta=beta)
    records = record_loop(drive, psi0, psi1, observables, beta)
    assert len(paths) == len(records) == dim ** (n_steps + 1)
    assert (paths.dim, paths.n_gridpoints) == (dim, n_steps + 1)
    assert np.max(np.abs(paths.amplitude - [r[1] for r in records])) <= 1e-14
    assert np.max(np.abs(paths.functional - [r[2] for r in records])) <= 1e-14
    assert [tuple(row) for row in paths.indices(len(paths)).tolist()] == [r[0] for r in records]
    assert paths.indices(5).tolist() == [list(r[0]) for r in records[:5]]
    assert paths.indices(len(paths) + 3).shape == (len(paths), n_steps + 1)
    lam = 0.7
    loop_weighted = sum(np.exp(1j * lam * r[2]) * r[1] for r in records)
    assert abs(path_sum(paths) - sum(r[1] for r in records)) <= 1e-13
    assert abs(counting_weighted_sum(paths, lam) - loop_weighted) <= 1e-13


class TestCountingWeightedSum:
    def test_zero_field_reduces_to_plain_sum(self, rng):
        drive = ramp_drive(4)
        psi0, psi1 = random_states(rng)
        records = enumerate_paths(drive, psi0, psi1)
        assert counting_weighted_sum(records, 0.0) == pytest.approx(path_sum(records), abs=1e-14)

    def test_converges_to_two_kick_element(self, rng):
        # the O(dt) gap to the boundary-kick form halves with each doubling
        psi0, psi1 = random_states(rng)
        lam = 0.6
        devs = []
        for n in (4, 8, 16):
            drive = ramp_drive(n)
            records = enumerate_paths(drive, psi0, psi1)
            weighted = counting_weighted_sum(records, lam)
            element = complex(np.conj(psi1) @ two_kick_propagator(drive, 2.0 * lam).matrix @ psi0)
            devs.append(abs(weighted - element))
        assert devs[0] > devs[1] > devs[2]
        for a, b in zip(devs, devs[1:]):
            assert 1.6 <= a / b <= 2.4

    def test_commuting_observable_exact_at_any_step_count(self, rng):
        # observable = drive Hamiltonian at each gridpoint: combined
        # exponentials split exactly, no dt error at all
        psi0, psi1 = random_states(rng)
        lam = 0.8
        for n in (2, 5, 9):
            drive = ramp_drive(n)
            records = enumerate_paths(drive, psi0, psi1)
            weighted = counting_weighted_sum(records, lam)
            kicked = kicked_product(drive, lam)
            assert abs(weighted - complex(np.conj(psi1) @ kicked @ psi0)) <= 1e-12

    def test_constant_observable_splitting_error_is_first_order(self, rng):
        # a counting observable that does not commute with the drive shows
        # the generic O(dt) splitting error of the combined exponentials
        psi0, psi1 = random_states(rng)
        lam = 0.6
        sx = HermitianOperator(PAULI_X)
        devs = []
        for n in (4, 8, 16):
            drive = ramp_drive(n)
            observables = [sx] * (n + 1)
            records = enumerate_paths(drive, psi0, psi1, observables=observables)
            weighted = counting_weighted_sum(records, lam)
            kicked = kicked_product(drive, lam, observables=observables)
            devs.append(abs(weighted - complex(np.conj(psi1) @ kicked @ psi0)))
        assert devs[0] > devs[1] > devs[2]
        for a, b in zip(devs, devs[1:]):
            assert 1.6 <= a / b <= 2.4
