"""Seeded property tests of the work statistics over random fixtures.

Each closed case draws a random drive and state with NumPy's generator and
checks the array spectral core against brute-force references written out
here: the triple-loop expansion of ``G``, the two-kick trace formula for
``G``, and the projector form of the two-measurement distribution. On top of
that it checks the invariants: unit weight sum, ``G(-lam) = conj G(lam)``,
mixture equals TMP, and the first moment equals the energy balance.

Each open case draws a random composite (drive, ``H_E``, ``H_SE``) and
states, and checks the measurement blocks against their Kronecker-product
form, the normalization and symmetry of ``G``, the ledger identity, the
increment form, and the decoupled limit against the closed two-kick
propagator. The counting operators of all three families and the heat
increments are checked against explicit Kronecker products and evolutions,
at step counts that span several of the engine's batched blocks.

Each step-rule case draws a random curved drive and checks the observed
order of the step product from successive doublings: 1 for ``left``, 4 for
``magnus4``.

Each propagator case draws a random Hermitian step stack and checks the
products-only step exponentials of ``evolution_operator`` against step
exponentials from ``eigh``, over step phases ``dt * rho`` from 1e-3 to 50 and
step counts that span several blocks and a partial one.
"""

import numpy as np
import pytest

from qworkstats import (
    DiscretizedComposite,
    DiscretizedDrive,
    DriveProtocol,
    HermitianOperator,
    Scenario,
    characteristic_function,
    coherent_classical_split,
    constant_protocol,
    dephase,
    discretize,
    eig_hermitian,
    evolution_operator,
    expm_unitary,
    moment,
    pure_state_density,
    quasi_distribution,
    random_density,
    random_hermitian,
    random_ramp_protocol,
    random_unitary,
    spectral_decomposition,
    symmetric_grid,
    tensor,
    tmp_characteristic,
    tmp_distribution,
    tmp_moment,
    two_kick_propagator,
)
from qworkstats import open_system
from qworkstats.drive import ordered_product
from qworkstats.fcs import _level_groups, merge_support_points
from qworkstats.runner import run_scenario

from conftest import assert_unitary, composite_hamiltonian, step_slice

DIMS = (2, 3, 5, 8, 16)


def random_case(dim, seed):
    rng = np.random.default_rng(1000 + 17 * dim + seed)
    drive = discretize(random_ramp_protocol(dim, 1.0, rng), 8)
    return drive, random_density(dim, rng)


def degenerate_case(dim, seed):
    """Random step generators between boundary Hamiltonians with repeated levels."""
    rng = np.random.default_rng(5000 + 17 * dim + seed)

    def degenerate_hamiltonian():
        levels = np.repeat(np.sort(rng.normal(size=(dim + 1) // 2)), 2)[:dim]
        v = random_unitary(dim, rng).matrix
        m = (v * levels) @ v.conj().T
        return HermitianOperator(0.5 * (m + m.conj().T))

    steps = np.stack([random_hermitian(dim, rng).matrix for _ in range(4)])
    boundary = degenerate_hamiltonian(), degenerate_hamiltonian()
    drive = DiscretizedDrive(steps, 0.25, *boundary)
    return drive, random_density(dim, rng)


def brute_terms(rho0, drive):
    """The expansion of ``G`` by an explicit loop, in ``k, i, j`` order."""
    eps0, v0 = eig_hermitian(drive.h_start)
    epst, vt = eig_hermitian(drive.h_end)
    u = evolution_operator(drive).matrix
    m = vt.matrix.conj().T @ u @ v0.matrix
    rho = v0.matrix.conj().T @ rho0.matrix @ v0.matrix
    d = rho0.dim
    rows = []
    for k in range(d):
        for i in range(d):
            for j in range(d):
                w = rho[i, j] * m[k, i] * np.conj(m[k, j])
                if abs(w) >= 1e-14:
                    rows.append((i, j, k, epst[k] - 0.5 * (eps0[i] + eps0[j]), w))
    return rows


def two_kick_g(rho0, drive, lambdas):
    """``Tr[K(lam) rho0 K(-lam)^dag]`` with the kicks as matrix exponentials."""
    u = evolution_operator(drive).matrix

    def kicked(lam):
        return expm_unitary(drive.h_end, -0.5 * lam).matrix @ u @ expm_unitary(drive.h_start, 0.5 * lam).matrix

    return np.array([np.trace(kicked(lam) @ rho0.matrix @ kicked(-lam).conj().T) for lam in lambdas])


def projector_tmp(rho0, drive, tol=1e-9):
    """``p(g, h) = Tr[P_h U P_g rho P_g U^dag]`` over eigenvalue groups, as a dict."""

    def groups(h):
        values, vectors = eig_hermitian(h)
        scale = max(1.0, float(np.max(np.abs(values))))
        labels = [0]
        for a, b in zip(values[:-1], values[1:]):
            labels.append(labels[-1] + (b - a > tol * scale))
        labels = np.array(labels)
        v = vectors.matrix
        out = []
        for g in range(labels[-1] + 1):
            cols = v[:, labels == g]
            out.append((cols @ cols.conj().T, values[labels == g].mean()))
        return out

    u = evolution_operator(drive).matrix
    table = {}
    for g, (p_g, e_g) in enumerate(groups(drive.h_start)):
        collapsed = u @ p_g @ rho0.matrix @ p_g @ u.conj().T
        for h, (p_h, e_h) in enumerate(groups(drive.h_end)):
            table[(g, h)] = (float(np.trace(p_h @ collapsed).real), e_h - e_g)
    return table


def energy_balance(rho0, drive):
    u = evolution_operator(drive).matrix
    rho_t = u @ rho0.matrix @ u.conj().T
    return float((np.trace(drive.h_end.matrix @ rho_t) - np.trace(drive.h_start.matrix @ rho0.matrix)).real)


CASES = [(make, dim, seed) for make in (random_case, degenerate_case) for dim in DIMS for seed in (0, 1)]
IDS = [f"{make.__name__}-d{dim}-s{seed}" for make, dim, seed in CASES]


@pytest.mark.parametrize("make,dim,seed", CASES, ids=IDS)
def test_array_core_matches_triple_loop(make, dim, seed):
    drive, rho = make(dim, seed)
    terms = spectral_decomposition(rho, drive)
    rows = brute_terms(rho, drive)
    by_index = {(i, j, k): w for i, j, k, _, w in rows}
    # the fold keeps one term per conjugate pair: (i, j, k) with i <= j
    for i, j, k, _, w in rows:
        assert abs(by_index[(j, i, k)] - np.conj(w)) <= 1e-15
    rows = [row for row in rows if row[0] <= row[1]]
    assert len(terms) == len(rows)
    i, j, k, support, weight = (np.array(col) for col in zip(*rows))
    assert np.array_equal(terms.i, i) and np.array_equal(terms.j, j) and np.array_equal(terms.k, k)
    assert np.max(np.abs(terms.support - support)) <= 1e-14 * max(1.0, np.max(np.abs(support)))
    assert np.max(np.abs(terms.pair_weight - weight)) <= 1e-15
    assert np.array_equal(terms.weight, np.where(i < j, 2.0, 1.0) * terms.pair_weight.real)
    assert abs(np.sum(terms.weight) - 1.0) <= 1e-10


def unfolded_terms(rho0, drive):
    """The unfolded ``d^3`` expansion, every ``(i, j, k)`` with its complex
    weight in ``k, i, j`` order, as arrays, pruned at ``|w| >= 1e-14``."""
    eps0, v0, epst, vt = drive.boundary_eigensystems
    m = vt.conj().T @ drive.propagator.matrix @ v0
    rho = v0.conj().T @ rho0.matrix @ v0
    weight = rho[None, :, :] * m[:, :, None] * m.conj()[:, None, :]
    support = epst[:, None, None] - 0.5 * (eps0[:, None] + eps0[None, :])
    keep = np.flatnonzero(np.abs(weight) >= 1e-14)
    k, ij = np.divmod(keep, m.size)
    i, j = np.divmod(ij, len(m))
    return i, j, k, support.ravel()[keep], weight.ravel()[keep]


def pure_superposition(drive, rng):
    """A pure state with random complex amplitudes on every ``H(0)`` level."""
    amplitudes = rng.normal(size=drive.dim) + 1j * rng.normal(size=drive.dim)
    v0 = drive.boundary_eigensystems[1]
    return pure_state_density(v0 @ (amplitudes / np.linalg.norm(amplitudes)))


STATES = ("mixed", "mixture", "superposition")
FOLD_CASES = [
    (make, dim, state) for make in (random_case, degenerate_case) for dim in (1,) + DIMS for state in STATES
]
FOLD_IDS = [f"{make.__name__}-d{dim}-{state}" for make, dim, state in FOLD_CASES]


@pytest.mark.parametrize("make,dim,state", FOLD_CASES, ids=FOLD_IDS)
def test_folded_statistics_match_unfolded_reference(make, dim, state):
    drive, rho = make(dim, 0)
    if state == "mixture":
        rho = dephase(rho, drive.h_start)
    elif state == "superposition":
        rho = pure_superposition(drive, np.random.default_rng(7000 + dim))
    terms = spectral_decomposition(rho, drive)
    i, j, k, support, weight = unfolded_terms(rho, drive)
    upper = i <= j
    assert np.array_equal(terms.k, k[upper]) and np.array_equal(terms.i, i[upper])
    assert np.max(np.abs(terms.pair_weight - weight[upper])) <= 1e-15
    labels = _level_groups(drive.boundary_eigensystems[0], 1e-9)
    if state == "mixture":
        # coherences between distinct levels are rounding-level, so every
        # weight that pairs two of them is pruned
        assert np.array_equal(labels[terms.i], labels[terms.j])
    # bins: same count, weights within 1e-15, centres within half a bin width
    bin_tol = 1e-9 * max(1.0, float(np.max(np.abs(support))))
    dist = quasi_distribution(terms)
    centres, merged = merge_support_points(support, weight, bin_tol)
    assert len(dist.support) == len(centres)
    assert np.max(np.abs(dist.weights - merged.real)) <= 1e-15
    assert np.max(np.abs(dist.support - centres)) <= 0.5 * bin_tol
    # moments and the split, relative to the sum of the term magnitudes
    for n in (1, 2, 3, 4):
        scale = np.sum(np.abs(weight) * np.abs(support) ** n)
        assert abs(moment(terms, n) - np.sum(weight * support**n).real) <= 1e-12 * scale
    diagonal = labels[i] == labels[j]
    reference = np.sum(weight[diagonal].real * support[diagonal])
    scale = np.sum(np.abs(weight) * np.abs(support))
    classical, coherent = coherent_classical_split(terms)
    assert abs(classical - reference) <= 1e-12 * scale
    assert abs(coherent - (np.sum(weight * support).real - reference)) <= 1e-12 * scale
    # G from the real folded terms is the two-kick G
    grid = symmetric_grid(3.0, 21)
    from_terms = np.exp(1j * np.outer(grid.lambdas, terms.support)) @ terms.weight
    assert np.max(np.abs(characteristic_function(terms, grid).values - from_terms)) <= 1e-12


@pytest.mark.parametrize("make,dim,seed", CASES, ids=IDS)
def test_characteristic_function_matches_references(make, dim, seed):
    drive, rho = make(dim, seed)
    grid = symmetric_grid(3.0, 21)
    terms = spectral_decomposition(rho, drive)
    values = characteristic_function(terms, grid).values
    from_terms = np.array([np.sum(terms.weight * np.exp(1j * lam * terms.support)) for lam in grid.lambdas])
    assert np.max(np.abs(values - from_terms)) <= 1e-12
    assert np.max(np.abs(values - two_kick_g(rho, drive, grid.lambdas))) <= 1e-12
    assert abs(values[grid.index_of(0.0)] - 1.0) <= 1e-12
    assert np.max(np.abs(values[::-1] - np.conj(values))) <= 1e-12


@pytest.mark.parametrize("make,dim,seed", CASES, ids=IDS)
def test_first_moment_is_energy_balance(make, dim, seed):
    drive, rho = make(dim, seed)
    terms = spectral_decomposition(rho, drive)
    scale = max(1.0, float(np.max(np.abs(terms.support))))
    assert moment(terms, 1) == pytest.approx(energy_balance(rho, drive), abs=1e-10 * scale)
    classical, coherent = coherent_classical_split(terms)
    assert classical + coherent == pytest.approx(moment(terms, 1), abs=1e-12 * scale)


@pytest.mark.parametrize("make,dim,seed", CASES, ids=IDS)
def test_tmp_matches_projector_form(make, dim, seed):
    drive, rho = make(dim, seed)
    outcomes = tmp_distribution(spectral_decomposition(rho, drive))
    table = projector_tmp(rho, drive)
    kept = {key: value for key, value in table.items() if value[0] >= 1e-14}
    assert len(outcomes) == len(kept)
    for g, h, probability, work in zip(outcomes.i, outcomes.k, outcomes.probability, outcomes.work):
        assert probability == pytest.approx(kept[(g, h)][0], abs=1e-13)
        assert work == kept[(g, h)][1]
    assert abs(np.sum(outcomes.probability) - 1.0) <= 1e-12
    assert np.all(outcomes.probability >= 0.0)


@pytest.mark.parametrize("make,dim,seed", CASES, ids=IDS)
def test_mixture_equals_tmp(make, dim, seed):
    drive, rho = make(dim, seed)
    mixture = dephase(rho, drive.h_start)
    terms = spectral_decomposition(mixture, drive)
    outcomes = tmp_distribution(terms)
    # the first measurement ignores the coherences that dephasing removes
    coherent_outcomes = tmp_distribution(spectral_decomposition(rho, drive))
    assert len(coherent_outcomes) == len(outcomes)
    assert np.max(np.abs(coherent_outcomes.probability - outcomes.probability)) <= 1e-12
    scale = max(1.0, float(np.max(np.abs(terms.support))))
    classical, coherent = coherent_classical_split(terms)
    assert classical == pytest.approx(tmp_moment(outcomes, 1), abs=1e-10 * scale)
    assert abs(coherent) <= 1e-10 * scale
    for n in (1, 2, 3):
        assert moment(terms, n) == pytest.approx(tmp_moment(outcomes, n), abs=1e-9 * scale**n)
    grid = symmetric_grid(2.0, 15)
    fcs_values = characteristic_function(terms, grid).values
    assert np.max(np.abs(fcs_values - tmp_characteristic(outcomes, grid).values)) <= 1e-10
    dist = quasi_distribution(terms)
    tmp_u, tmp_w = merge_support_points(outcomes.work, outcomes.probability, 1e-9 * scale)
    assert len(tmp_u) == len(dist.support)
    assert np.max(np.abs(dist.support - tmp_u)) <= 1e-9 * scale
    assert np.max(np.abs(dist.weights - tmp_w)) <= 1e-10
    assert dist.min_weight >= -1e-12


def test_degenerate_case_has_grouped_levels():
    drive, rho = degenerate_case(8, 1)
    for h in (drive.h_start, drive.h_end):
        values, _ = eig_hermitian(h)
        assert np.sum(np.diff(values) <= 1e-12) == 4
    outcomes = tmp_distribution(spectral_decomposition(rho, drive))
    assert set(outcomes.i) == {0, 1, 2, 3}
    assert set(outcomes.k) == {0, 1, 2, 3}


OPEN_DIMS = ((2, 2), (2, 4), (3, 2), (2, 8))
OPEN_CASES = [(d_s, d_e, seed) for d_s, d_e in OPEN_DIMS for seed in (0, 1)]
OPEN_IDS = [f"s{d_s}-e{d_e}-s{seed}" for d_s, d_e, seed in OPEN_CASES]


def open_case(d_s, d_e, seed, n_steps, coupling_scale=0.3, constant=False):
    """A random composite on ``n_steps`` steps and random initial states, the same
    for every ``n_steps``; ``constant`` holds the drive at its ``H(0)``."""
    rng = np.random.default_rng(9000 + 31 * d_s + 7 * d_e + seed)
    protocol = random_ramp_protocol(d_s, 1.5, rng)
    if constant:
        protocol = constant_protocol(protocol(0.0), 1.5)
    composite = DiscretizedComposite(
        discretize(protocol, n_steps),
        random_hermitian(d_e, rng),
        random_hermitian(d_s * d_e, rng),
        coupling_scale=coupling_scale,
    )
    return composite, random_density(d_s, rng), random_density(d_e, rng)


def kron_block(composite, k, lam):
    """``exp(-i lam/2 H_S^k (x) 1) E_k exp(+i lam/2 H_S^k (x) 1)`` with explicit Kronecker products."""
    drive = composite.drive
    h_s = drive.hamiltonians[k]
    eye_e = np.eye(composite.dim_e)
    step = expm_unitary(composite_hamiltonian(composite, h_s), drive.dt).matrix
    return (
        tensor(expm_unitary(h_s, 0.5 * lam).matrix, eye_e)
        @ step
        @ tensor(expm_unitary(h_s, -0.5 * lam).matrix, eye_e)
    )


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_blocks_match_kron_reference(d_s, d_e, seed):
    composite, _, _ = open_case(d_s, d_e, seed, 6)
    lams = (-1.3, 0.0, 0.7)
    for k in (0, 3, 5):
        blocks = step_slice(composite, k).counting_operators(np.array(lams), "heat")
        assert_unitary(blocks)
        for lam, block in zip(lams, blocks):
            assert np.max(np.abs(block - kron_block(composite, k, lam))) <= 1e-12


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_characteristic_function_invariants(d_s, d_e, seed):
    composite, rho_s, rho_e = open_case(d_s, d_e, seed, 8)
    grid = symmetric_grid(2.5, 11)
    for counting in ("work", "heat"):
        g = composite.characteristic_function(rho_s, rho_e, grid, counting=counting).values
        assert abs(g[grid.index_of(0.0)] - 1.0) <= 1e-12
        assert np.max(np.abs(g[::-1] - np.conj(g))) <= 1e-12


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_ledger_and_increment_form(d_s, d_e, seed):
    composite, rho_s, rho_e = open_case(d_s, d_e, seed, 12)
    for refresh_every in (None, 3):
        ledger, increments = composite.trajectory(rho_s, rho_e, refresh_every=refresh_every)
        assert abs(ledger.work - (ledger.internal_energy_change - ledger.heat)) <= 1e-12
        assert abs(increments - ledger.work) <= 1e-12


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_decoupled_work_counting_is_closed_two_kick(d_s, d_e, seed):
    composite, _, _ = open_case(d_s, d_e, seed, 8, coupling_scale=0.0)
    free_env = expm_unitary(composite.h_env, composite.drive.duration).matrix
    lams = (-0.9, 0.0, 1.6)
    works = composite.counting_operators(np.array(lams), "work")
    assert_unitary(works)
    for lam, work in zip(lams, works):
        closed = two_kick_propagator(composite.drive, lam).matrix
        assert np.max(np.abs(work - tensor(closed, free_env))) <= 1e-12


def multi_block_steps(dim):
    """A step count that spans at least three of the engine's batched blocks
    of one counting field on dimension ``dim`` and ends in a partial block."""
    size = max(1, open_system._STEP_BLOCK // (dim * dim))
    return 2 * size + size // 2 + 1


def kron_steps(composite):
    """Every step propagator ``exp(-i dt H^k)``, from the Kronecker form of
    ``H^k`` and a batched eigendecomposition."""
    drive = composite.drive
    w, v = np.linalg.eigh(composite_hamiltonian(composite, drive.hamiltonians))
    return (v * np.exp(-1j * drive.dt * w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))


def kron_kicks(h, angle, dim_e):
    """``exp(-i angle h) (x) 1`` for a stack of system Hamiltonians ``h``."""
    w, v = np.linalg.eigh(h)
    return np.kron((v * np.exp(-1j * angle * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2)), np.eye(dim_e))


def partial_trace(rho, d_s, d_e):
    return np.trace(rho.reshape(d_s, d_e, d_s, d_e), axis1=1, axis2=3)


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_counting_operators_match_kron_product(d_s, d_e, seed):
    for n in (1, 2, 7, multi_block_steps(d_s * d_e)):
        composite, _, _ = open_case(d_s, d_e, seed, n)
        drive = composite.drive
        steps = kron_steps(composite)
        lams = (-1.3, 0.7)
        heat_ops, work_ops = (composite.counting_operators(np.array(lams), c) for c in ("heat", "work"))
        assert_unitary(heat_ops)
        assert_unitary(work_ops)
        for lam, heat_op, work_op in zip(lams, heat_ops, work_ops):
            blocks = kron_kicks(drive.hamiltonians, 0.5 * lam, d_e) @ steps
            blocks = blocks @ kron_kicks(drive.hamiltonians, -0.5 * lam, d_e)
            heat = np.eye(d_s * d_e, dtype=complex)
            for block in blocks:  # B_{n-1} ... B_1 B_0, one step at a time
                heat = block @ heat
            h_end, h_start = drive.h_end.matrix, drive.h_start.matrix
            work = kron_kicks(h_end, -0.5 * lam, d_e) @ heat @ kron_kicks(h_start, 0.5 * lam, d_e)
            assert np.max(np.abs(heat_op - heat)) <= 1e-12
            assert np.max(np.abs(work_op - work)) <= 1e-12


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_environment_counting_matches_kron_product(d_s, d_e, seed):
    eye_s = np.eye(d_s)
    for n in (1, 2, 7, multi_block_steps(d_s * d_e)):
        composite, _, _ = open_case(d_s, d_e, seed, n, constant=True)
        step = expm_unitary(composite_hamiltonian(composite, composite.drive.h_start), composite.drive.dt).matrix
        plain = np.eye(d_s * d_e, dtype=complex)
        for _ in range(n):
            plain = step @ plain
        lams = (-1.3, 0.7)
        operators = composite.counting_operators(np.array(lams), "environment")
        assert_unitary(operators)
        for lam, operator in zip(lams, operators):
            reference = (
                tensor(eye_s, expm_unitary(composite.h_env, -0.5 * lam).matrix)
                @ plain
                @ tensor(eye_s, expm_unitary(composite.h_env, 0.5 * lam).matrix)
            )
            assert np.max(np.abs(operator - reference)) <= 1e-12


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_heat_increments_match_kron_evolution(d_s, d_e, seed):
    composite, rho_s, rho_e = open_case(d_s, d_e, seed, multi_block_steps(d_s * d_e))
    drive = composite.drive
    steps = kron_steps(composite)
    for refresh_every in (None, 3):
        rho = tensor(rho_s, rho_e)
        reduced, heat = rho_s.matrix, []
        for k, (h_s, step) in enumerate(zip(drive.hamiltonians, steps)):
            rho = step @ rho @ step.conj().T
            after = partial_trace(rho, d_s, d_e)
            heat.append(np.trace(h_s @ (after - reduced)).real)
            reduced = after
            if refresh_every is not None and (k + 1) % refresh_every == 0:
                rho = tensor(reduced, rho_e)
        ledger, _ = composite.trajectory(rho_s, rho_e, refresh_every=refresh_every)
        assert np.max(np.abs(ledger.heat_increments - np.array(heat))) <= 1e-12


# ---------------------------------------------------------------------------
# step rules

RULE_CASES = [(dim, seed) for dim in (2, 3, 5) for seed in (0, 1)]
RULE_IDS = [f"d{dim}-s{seed}" for dim, seed in RULE_CASES]


def curved_protocol(dim, seed):
    """``H(t) = A + t B + sin(3t) C`` with random Hermitian ``A, B, C``, so
    every derivative of ``H`` is nonzero and no step rule is exact."""
    rng = np.random.default_rng(7000 + 13 * dim + seed)
    a, b, c = (random_hermitian(dim, rng, 0.5).matrix for _ in range(3))

    def at(t):
        t = t[:, None, None]
        return a + t * b + np.sin(3.0 * t) * c

    return DriveProtocol(1.0, at)


def doubling_ratios(protocol, rule, counts):
    """``dev(N) / dev(2N)`` with ``dev(N) = max|U_N - U_2N|``; ``2^p`` at order ``p``."""
    u = [discretize(protocol, n, rule).propagator.matrix for n in counts]
    devs = [np.max(np.abs(a - b)) for a, b in zip(u, u[1:])]
    return [a / b for a, b in zip(devs, devs[1:])]


@pytest.mark.parametrize(
    "rule,counts,window",
    [("left", (64, 128, 256, 512), (1.7, 2.3)), ("magnus4", (8, 16, 32, 64), (12.0, 20.0))],
    ids=["left-order-1", "magnus4-order-4"],
)
@pytest.mark.parametrize("dim,seed", RULE_CASES, ids=RULE_IDS)
def test_step_rule_observed_order(dim, seed, rule, counts, window):
    ratios = doubling_ratios(curved_protocol(dim, seed), rule, counts)
    assert all(window[0] <= r <= window[1] for r in ratios), ratios


@pytest.mark.parametrize("dim,seed", RULE_CASES, ids=RULE_IDS)
def test_magnus4_agrees_with_fine_left_product(dim, seed):
    # U_N - U_2N estimates the left rule's own error at 2N (first order)
    protocol = curved_protocol(dim, seed)
    fine = discretize(protocol, 1 << 16).propagator.matrix
    own_error = np.max(np.abs(discretize(protocol, 1 << 15).propagator.matrix - fine))
    magnus = discretize(protocol, 64, "magnus4").propagator.matrix
    assert np.max(np.abs(magnus - fine)) <= 1.05 * own_error


@pytest.mark.parametrize("kind", ["closed", "tmp-compare"])
def test_default_auto_run_picks_32_magnus4_steps(kind):
    report = run_scenario(Scenario.from_kind(kind), tol_report=True).report
    assert report["results"]["n_steps"] == 32
    assert all(check["pass"] for check in report["checks"])


@pytest.mark.parametrize("kind", ["closed", "tmp-compare"])
def test_auto_run_at_duration_5_picks_106_magnus4_steps(kind):
    scenario = Scenario.from_kind(kind).with_overrides({"drive.duration": 5})
    assert run_scenario(scenario).report["results"]["n_steps"] == 106


PROPAGATOR_CASES = [(d, n) for d in (1, 2, 3, 8, 64) for n in (1, 7, 9, 64, 1000) if d < 64 or n <= 64]
# step phase dt * max spectral radius -> max|U - U_eigh| allowed
PHASE_TOLERANCES = {1e-3: 1e-13, 0.3: 1e-13, 3.0: 1e-13, 50.0: 1e-12}


def random_step_drive(dim, n, phase, seed):
    """``n`` random Hermitian steps with ``dt * max_k rho(H^k) = phase``."""
    rng = np.random.default_rng(9000 + 101 * dim + n + seed)
    g = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    h = 0.5 * (g + g.conj().transpose(0, 2, 1))
    dt = phase / np.abs(np.linalg.eigvalsh(h)).max()
    edge = HermitianOperator(h[0])
    return DiscretizedDrive(hamiltonians=h, dt=dt, h_start=edge, h_end=edge)


def eigh_propagator(drive):
    """Step exponentials from ``eigh``, reduced over the same pairwise tree."""
    w, v = np.linalg.eigh(drive.hamiltonians)
    steps = (v * np.exp(-1j * drive.dt * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return ordered_product(steps)


@pytest.mark.parametrize("dim,n", PROPAGATOR_CASES, ids=[f"d{d}-n{n}" for d, n in PROPAGATOR_CASES])
def test_propagator_matches_eigh_step_exponentials(dim, n):
    for seed, (phase, tol) in enumerate(PHASE_TOLERANCES.items()):
        drive = random_step_drive(dim, n, phase, seed)
        u = evolution_operator(drive).matrix
        assert np.max(np.abs(u - eigh_propagator(drive))) <= tol, phase
        assert np.array_equal(u, evolution_operator(drive).matrix)
