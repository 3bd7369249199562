"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them)
and asserts the criterion at its stated tolerance. Everything runs at desk
scale; the whole module stays well under a minute.
"""

import numpy as np

from qworkstats import (
    DensityOperator,
    DiscretizedComposite,
    characteristic_function,
    constant_protocol,
    cyclic_qubit_drive,
    cyclic_qubit_hamiltonian,
    cyclic_qubit_state,
    dephase,
    discretize,
    eig_hermitian,
    enumerate_paths,
    evolution_operator,
    fast_decoherence_run,
    gap_ramp_protocol,
    gibbs_state,
    eigenstate_density,
    counting_weighted_sum,
    linear_ramp_protocol,
    moment,
    path_sum,
    pure_state_density,
    qubit_exchange_environment,
    quasi_distribution,
    rabi_protocol,
    random_density,
    random_ramp_protocol,
    spectral_decomposition,
    symmetric_grid,
    tmp_characteristic,
    tmp_distribution,
    tmp_moment,
    two_kick_propagator,
)
from qworkstats.fcs import default_fd_step, fd_stencil_grid, merge_support_points, moment_fd
from qworkstats.linalg import max_abs


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def printed_cyclic_unitary(alpha, xi):
    """The period unitary written out directly, independent of the library."""
    return np.array(
        [
            [np.cos(xi) + 1j * np.cos(2 * alpha) * np.sin(xi), 1j * np.sin(2 * alpha) * np.sin(xi)],
            [1j * np.sin(2 * alpha) * np.sin(xi), np.cos(xi) - 1j * np.cos(2 * alpha) * np.sin(xi)],
        ]
    )


def cyclic_tmp_oracle(alpha, xi, gap):
    """Brute-force outcome enumeration from the printed matrix."""
    u = printed_cyclic_unitary(alpha, xi)
    w = np.abs(u) ** 2
    eps = np.array([-0.5 * gap, +0.5 * gap])
    pops = np.array([np.cos(alpha) ** 2, np.sin(alpha) ** 2])
    return sum(pops[i] * w[k, i] * (eps[k] - eps[i]) for i in range(2) for k in range(2))


def test_criterion_1_cyclic_fcs_invariance():
    """Random cyclic drives: counting-field energy change vanishes, the
    projective protocol's does not, and the latter matches the brute-force
    oracle exactly."""
    rng = np.random.default_rng(1)
    gap = 1.0
    count = 0
    max_fcs = 0.0
    max_oracle_gap = 0.0
    min_tmp = np.inf
    max_closed_form_gap = 0.0
    max_printed_form_gap = 0.0
    while count < 100:
        alpha = rng.uniform(0.1, np.pi / 2 - 0.1)
        if abs(alpha - np.pi / 4) < 0.1:
            continue
        xi = rng.uniform(0.1, np.pi - 0.1)
        count += 1
        drive = cyclic_qubit_drive(alpha, xi, gap)
        rho = pure_state_density(cyclic_qubit_state(alpha))
        terms = spectral_decomposition(rho, drive)
        max_fcs = max(max_fcs, abs(moment(terms, 1)))
        tmp_value = tmp_moment(tmp_distribution(terms), 1)
        oracle = cyclic_tmp_oracle(alpha, xi, gap)
        max_oracle_gap = max(max_oracle_gap, abs(tmp_value - oracle))
        min_tmp = min(min_tmp, abs(tmp_value))
        sin_xi_form = gap * np.cos(2 * alpha) * np.sin(2 * alpha) ** 2 * np.sin(xi) ** 2
        sin_2xi_form = gap * np.cos(2 * alpha) * np.sin(2 * alpha) ** 2 * np.sin(2 * xi) ** 2
        max_closed_form_gap = max(max_closed_form_gap, abs(oracle - sin_xi_form))
        max_printed_form_gap = max(max_printed_form_gap, abs(oracle - sin_2xi_form))
    # exception set: both protocols agree on zero
    for alpha, xi in ((0.0, 0.8), (np.pi / 2, 0.8), (np.pi / 4, 0.8), (0.6, 0.0)):
        drive = cyclic_qubit_drive(alpha, xi, gap)
        rho = pure_state_density(cyclic_qubit_state(alpha))
        terms = spectral_decomposition(rho, drive)
        assert abs(tmp_moment(tmp_distribution(terms), 1)) <= 1e-12
        assert abs(moment(terms, 1)) <= 1e-10
    print(
        f"[criterion 1] closed-form comparison: oracle matches the sin^2(xi) form "
        f"to {max_closed_form_gap:.1e}; the printed sin^2(2 xi) variant deviates "
        f"by up to {max_printed_form_gap:.2f} (xi-exponent discrepancy documented)"
    )
    passed = max_fcs <= 1e-10 and max_oracle_gap <= 1e-12 and min_tmp > 1e-6
    report(
        1,
        passed,
        f"100 random (alpha, xi): max|FCS dU| = {max_fcs:.2e} (tol 1e-10), "
        f"max|TMP - oracle| = {max_oracle_gap:.2e} (tol 1e-12), "
        f"min|TMP| = {min_tmp:.2e} away from the exception set",
    )


def test_criterion_2_mixture_equivalence():
    """Diagonal initial states: the quasi-distribution equals the projective
    two-measurement distribution."""
    rng = np.random.default_rng(2)
    worst_support = 0.0
    worst_weight = 0.0
    for trial in range(50):
        dim = int(rng.integers(2, 7))
        drive = discretize(random_ramp_protocol(dim, 1.0, rng), 16)
        _, vectors = eig_hermitian(drive.h_start)
        pops = rng.random(dim) + 0.05
        pops /= pops.sum()
        v = vectors.matrix
        rho = DensityOperator((v * pops) @ v.conj().T)
        terms = spectral_decomposition(rho, drive)
        dist = quasi_distribution(terms)
        outcomes = tmp_distribution(terms)
        tmp_u, tmp_w = merge_support_points(outcomes.work, outcomes.probability, 1e-9)
        assert len(tmp_u) == len(dist.support)
        worst_support = max(worst_support, float(np.max(np.abs(tmp_u - dist.support))))
        worst_weight = max(worst_weight, float(np.max(np.abs(tmp_w.real - dist.weights))))
    passed = worst_support <= 1e-9 and worst_weight <= 1e-10
    report(
        2,
        passed,
        f"50 random drives, dims 2-6: max support distance {worst_support:.2e} "
        f"(tol 1e-9), max weight difference {worst_weight:.2e} (tol 1e-10)",
    )


def test_criterion_3_normalization_and_hermiticity():
    """G(0) = 1 and G(-lam) = conj(G(lam)) across the scenario battery."""
    rng = np.random.default_rng(3)
    grid = symmetric_grid(4.0, 41)
    batteries = []
    for dim in (2, 3, 4):
        drive = discretize(random_ramp_protocol(dim, 1.0, rng), 16)
        terms = spectral_decomposition(random_density(dim, rng), drive)
        batteries.append(characteristic_function(terms, grid))
        outcomes = tmp_distribution(spectral_decomposition(random_density(dim, rng), drive))
        batteries.append(tmp_characteristic(outcomes, grid))
    drive = cyclic_qubit_drive(np.pi / 3, np.pi / 4, 1.0)
    terms = spectral_decomposition(pure_state_density(cyclic_qubit_state(np.pi / 3)), drive)
    batteries.append(characteristic_function(terms, grid))
    h_env, h_se = qubit_exchange_environment(1.0)
    protocol = constant_protocol(cyclic_qubit_hamiltonian(1.0), 2.0)
    composite = DiscretizedComposite(discretize(protocol, 24), h_env, h_se, coupling_scale=0.1)
    rho_s = eigenstate_density(protocol(0.0), 1)
    rho_e = gibbs_state(h_env, 1.0)
    for counting in ("work", "heat", "environment"):
        batteries.append(composite.characteristic_function(rho_s, rho_e, grid, counting=counting))
    worst_norm = max(abs(s.value_at(0.0) - 1.0) for s in batteries)
    worst_sym = max(float(np.max(np.abs(s.values[::-1] - np.conj(s.values)))) for s in batteries)
    passed = worst_norm <= 1e-12 and worst_sym <= 1e-10
    report(
        3,
        passed,
        f"{len(batteries)} characteristic functions: max|G(0) - 1| = {worst_norm:.2e} "
        f"(tol 1e-12), max|G(-lam) - conj G(lam)| = {worst_sym:.2e} (tol 1e-10)",
    )


def test_criterion_4_first_moment_identity():
    """Spectral first moment equals the energy balance; finite differences
    agree with the spectral moments to relative 1e-6."""
    rng = np.random.default_rng(4)
    worst_identity = 0.0
    worst_fd = 0.0
    for trial in range(50):
        dim = int(rng.integers(2, 6))
        drive = discretize(random_ramp_protocol(dim, 1.0, rng), 12)
        rho = random_density(dim, rng)
        terms = spectral_decomposition(rho, drive)
        u = evolution_operator(drive).matrix
        balance = np.trace(
            drive.h_end.matrix @ (u @ rho.matrix @ u.conj().T)
        ) - np.trace(drive.h_start.matrix @ rho.matrix)
        m1 = moment(terms, 1)
        worst_identity = max(worst_identity, abs(m1 - balance.real))
        h = default_fd_step(terms.support)
        samples = characteristic_function(terms, fd_stencil_grid(h, order=2))
        for n in (1, 2):
            spectral = moment(terms, n)
            fd = moment_fd(samples, n, h=h)
            worst_fd = max(worst_fd, abs(fd - spectral) / max(abs(spectral), 1e-9))
    passed = worst_identity <= 1e-10 and worst_fd <= 1e-6
    report(
        4,
        passed,
        f"50 random closed scenarios: max|m1 - energy balance| = {worst_identity:.2e} "
        f"(tol 1e-10), max relative FD mismatch = {worst_fd:.2e} (tol 1e-6)",
    )


def test_criterion_5_negativity_witness():
    """The documented coherent scenario shows a negative quasi-weight; its
    dephased twin does not."""
    alpha, xi, gap = np.pi / 3, np.pi / 4, 1.0
    drive = cyclic_qubit_drive(alpha, xi, gap)
    rho = pure_state_density(cyclic_qubit_state(alpha))
    dist = quasi_distribution(spectral_decomposition(rho, drive))
    dephased = dephase(rho, drive.h_start)
    dist_dephased = quasi_distribution(spectral_decomposition(dephased, drive))
    passed = dist.min_weight < -1e-3 and dist_dephased.min_weight >= -1e-12
    report(
        5,
        passed,
        f"alpha = pi/3, xi = pi/4, dE = 1: min quasi-weight {dist.min_weight:.4f} "
        f"(< -1e-3); dephased twin min weight {dist_dephased.min_weight:.2e} (>= -1e-12)",
    )


def test_criterion_6_open_ledger():
    """Ledger identity, unitary limit, constant-Hamiltonian limit, and the
    increment regrouping, all at their stated tolerances."""
    h_env, h_se = qubit_exchange_environment(1.0)
    ramp = gap_ramp_protocol(0.8, 1.2, 6.0)
    checks = []
    for g in (0.0, 0.05, 0.2):
        composite = DiscretizedComposite(discretize(ramp, 96), h_env, h_se, coupling_scale=g)
        rho_s = eigenstate_density(ramp(0.0), 1)
        rho_e = gibbs_state(h_env, 1.0)
        ledger, increments = composite.trajectory(rho_s, rho_e)
        checks.append(abs(ledger.work - (ledger.internal_energy_change - ledger.heat)))
        checks.append(abs(increments - ledger.work))
        if g == 0.0:
            unitary_limit = float(np.max(np.abs(ledger.heat_increments)))
    constant = constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0)
    composite = DiscretizedComposite(discretize(constant, 48), h_env, h_se, coupling_scale=0.2)
    rho_s = eigenstate_density(constant(0.0), 1)
    rho_e = gibbs_state(h_env, 0.5)
    ledger, _ = composite.trajectory(rho_s, rho_e)
    constant_work = abs(ledger.work)
    checks.append(abs(ledger.work - (ledger.internal_energy_change - ledger.heat)))
    worst = max(checks)
    passed = worst <= 1e-10 and unitary_limit <= 1e-12 and constant_work <= 1e-10
    report(
        6,
        passed,
        f"ledger identities and regrouping within {worst:.2e} (tol 1e-10); "
        f"g = 0 max|Q_k| = {unitary_limit:.2e} (tol 1e-12); "
        f"constant drive |W| = {constant_work:.2e} (tol 1e-10)",
    )


def test_criterion_7_environment_duality():
    """Environment-side counting matches system-side counting to first order
    in the coupling: the residual halves when the coupling halves."""
    protocol = constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0)
    h_env, h_se = qubit_exchange_environment(1.8)  # detuned so the O(g) term survives
    plus = pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
    grid = symmetric_grid(3.0, 21)
    devs = []
    for g in (0.1, 0.05, 0.025):
        composite = DiscretizedComposite(discretize(protocol, 48), h_env, h_se, coupling_scale=g)
        devs.append(composite.duality_deviation(plus, plus, grid))
    ratios = [devs[i] / devs[i + 1] for i in range(2)]
    passed = all(1.5 <= r <= 2.5 for r in ratios) and devs[0] > devs[1] > devs[2]
    report(
        7,
        passed,
        f"deviation {devs[0]:.3e} -> {devs[1]:.3e} -> {devs[2]:.3e} over "
        f"g = 0.1, 0.05, 0.025; halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"(window [1.5, 2.5])",
    )


def test_criterion_8_fast_decoherence_entropy_relation():
    """Quasi-static gap ramp: every heat increment equals T times the entropy
    increment to 1e-3 relative, degrading monotonically at coarser steps."""
    protocol = gap_ramp_protocol(1.0, 1.5, 1.0)
    temperature = 1.0
    errors = {}
    for n in (512, 128, 32):
        ledger = fast_decoherence_run(discretize(protocol, n), temperature)
        q = ledger.heat_increments
        ds = ledger.entropy_increments
        errors[n] = float(np.max(np.abs(q - temperature * ds) / np.maximum(np.abs(q), 1e-12)))
    passed = errors[512] <= 1e-3 and errors[512] < errors[128] < errors[32]
    report(
        8,
        passed,
        f"N = 512 max relative |Q_k - T dS_k| = {errors[512]:.2e} (tol 1e-3); "
        f"monotone degradation {errors[512]:.2e} < {errors[128]:.2e} < {errors[32]:.2e}",
    )


def test_criterion_9_path_sum_oracle():
    """Path enumeration reproduces every propagator matrix element, and the
    counting-weighted sum converges at first order in dt."""
    rng = np.random.default_rng(9)
    protocol = linear_ramp_protocol(
        -0.5 * np.array([[1, 0], [0, -1]], dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        1.0,
    )
    worst_residual = 0.0
    for n in (2, 4, 6):
        drive = discretize(protocol, n)
        u = evolution_operator(drive).matrix
        basis = np.eye(2, dtype=complex)
        for col in range(2):
            for row in range(2):
                records = enumerate_paths(drive, basis[:, col], basis[:, row])
                worst_residual = max(worst_residual, abs(path_sum(records) - u[row, col]))
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 /= np.linalg.norm(psi0)
    psi1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi1 /= np.linalg.norm(psi1)
    lam = 0.6
    devs = []
    for n in (4, 8, 16):
        drive = discretize(protocol, n)
        records = enumerate_paths(drive, psi0, psi1)
        weighted = counting_weighted_sum(records, lam)
        element = complex(np.conj(psi1) @ two_kick_propagator(drive, 2.0 * lam).matrix @ psi0)
        devs.append(abs(weighted - element))
    ratios = [devs[i] / devs[i + 1] for i in range(2)]
    passed = worst_residual <= 1e-10 and all(1.5 <= r <= 2.5 for r in ratios)
    report(
        9,
        passed,
        f"max matrix-element residual {worst_residual:.2e} (tol 1e-10); "
        f"first-order convergence ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"(window [1.5, 2.5]) over two doublings",
    )


def test_criterion_10_trotter_convergence():
    """The Rabi fixture's product error halves when the step count doubles."""
    protocol = rabi_protocol(splitting=1.0, amplitude=0.5, frequency=1.0, duration=1.0)
    devs = {}
    for n in (256, 512, 1024):
        u_n = evolution_operator(discretize(protocol, n)).matrix
        u_2n = evolution_operator(discretize(protocol, 2 * n)).matrix
        devs[n] = max_abs(u_n - u_2n)
    ratios = [devs[256] / devs[512], devs[512] / devs[1024]]
    passed = all(1.7 <= r <= 2.3 for r in ratios) and devs[256] > devs[512] > devs[1024]
    report(
        10,
        passed,
        f"max|U_N - U_2N| halves across doublings: ratios {ratios[0]:.3f}, {ratios[1]:.3f} "
        f"(window [1.7, 2.3])",
    )
