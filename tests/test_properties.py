"""Seeded property tests of the work statistics over random fixtures.

Each closed case draws a random drive and state with NumPy's generator and
checks the array spectral core against brute-force references written out
here: the triple-loop expansion of ``G``, the two-kick trace formula for
``G``, and the projector form of the two-measurement distribution. On top of
that it checks the invariants: unit weight sum, ``G(-lam) = conj G(lam)``,
mixture equals TMP, and the first moment equals the energy balance.

Each open case draws a random composite model (drive, ``H_E``, ``H_SE``) and
states, and checks the measurement blocks against their Kronecker-product
form, the normalization and symmetry of ``G``, the ledger identity, the
increment form, and the decoupled limit against the closed two-kick
propagator.

Each step-rule case draws a random curved drive and checks the observed
order of the step product from successive doublings: 1 for ``left``, 4 for
``magnus4``.
"""

import numpy as np
import pytest

from qworkstats import (
    CompositeModel,
    DiscretizedDrive,
    DriveProtocol,
    HermitianOperator,
    Scenario,
    characteristic_function,
    coherent_classical_split,
    dephase,
    discretize,
    eig_hermitian,
    evolution_operator,
    expm_unitary,
    moment,
    quasi_distribution,
    random_density,
    random_hermitian,
    random_ramp_protocol,
    random_unitary,
    spectral_decomposition,
    symmetric_grid,
    tensor,
    tmp_average,
    tmp_characteristic,
    tmp_distribution,
    tmp_moment,
    two_kick_propagator,
)
from qworkstats.fcs import merge_support_points
from qworkstats.runner import run_scenario

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
    drive = DiscretizedDrive(np.arange(4) * 0.25, steps, 0.25, *boundary)
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
    assert len(terms) == len(rows)
    i, j, k, support, weight = (np.array(col) for col in zip(*rows))
    assert np.array_equal(terms.i, i) and np.array_equal(terms.j, j) and np.array_equal(terms.k, k)
    assert np.max(np.abs(terms.support - support)) <= 1e-14 * max(1.0, np.max(np.abs(support)))
    assert np.max(np.abs(terms.weight - weight)) <= 1e-15
    assert abs(np.sum(terms.weight) - 1.0) <= 1e-10


@pytest.mark.parametrize("make,dim,seed", CASES, ids=IDS)
def test_characteristic_function_matches_references(make, dim, seed):
    drive, rho = make(dim, seed)
    grid = symmetric_grid(3.0, 21)
    values = characteristic_function(rho, drive, grid).values
    terms = spectral_decomposition(rho, drive)
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
    outcomes = tmp_distribution(rho, drive)
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
    outcomes = tmp_distribution(mixture, drive)
    # the first measurement ignores the coherences that dephasing removes
    coherent_outcomes = tmp_distribution(rho, drive)
    assert len(coherent_outcomes) == len(outcomes)
    assert np.max(np.abs(coherent_outcomes.probability - outcomes.probability)) <= 1e-12
    terms = spectral_decomposition(mixture, drive)
    scale = max(1.0, float(np.max(np.abs(terms.support))))
    classical, coherent = coherent_classical_split(terms)
    assert classical == pytest.approx(tmp_average(outcomes), abs=1e-10 * scale)
    assert abs(coherent) <= 1e-10 * scale
    for n in (1, 2, 3):
        assert moment(terms, n) == pytest.approx(tmp_moment(outcomes, n), abs=1e-9 * scale**n)
    grid = symmetric_grid(2.0, 15)
    fcs_values = characteristic_function(mixture, drive, grid).values
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
    outcomes = tmp_distribution(rho, drive)
    assert set(outcomes.i) == {0, 1, 2, 3}
    assert set(outcomes.k) == {0, 1, 2, 3}


OPEN_DIMS = ((2, 2), (2, 4), (3, 2), (2, 8))
OPEN_CASES = [(d_s, d_e, seed) for d_s, d_e in OPEN_DIMS for seed in (0, 1)]
OPEN_IDS = [f"s{d_s}-e{d_e}-s{seed}" for d_s, d_e, seed in OPEN_CASES]


def open_case(d_s, d_e, seed, coupling_scale=0.3):
    rng = np.random.default_rng(9000 + 31 * d_s + 7 * d_e + seed)
    model = CompositeModel(
        random_ramp_protocol(d_s, 1.5, rng),
        random_hermitian(d_e, rng),
        random_hermitian(d_s * d_e, rng),
        coupling_scale=coupling_scale,
    )
    return model, random_density(d_s, rng), random_density(d_e, rng)


def kron_block(model, drive, k, lam):
    """``exp(-i lam/2 H_S^k (x) 1) E_k exp(+i lam/2 H_S^k (x) 1)`` with explicit Kronecker products."""
    h_s = drive.hamiltonians[k]
    eye_e = np.eye(model.dim_e)
    step = expm_unitary(model.step_hamiltonian(h_s), drive.dt).matrix
    return (
        tensor(expm_unitary(h_s, 0.5 * lam).matrix, eye_e)
        @ step
        @ tensor(expm_unitary(h_s, -0.5 * lam).matrix, eye_e)
    )


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_blocks_match_kron_reference(d_s, d_e, seed):
    model, _, _ = open_case(d_s, d_e, seed)
    composite = model.discretize(6)
    for k in (0, 3, 5):
        for lam in (-1.3, 0.0, 0.7):
            reference = kron_block(model, composite.drive, k, lam)
            assert np.max(np.abs(composite.block(k, lam).matrix - reference)) <= 1e-12


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_characteristic_function_invariants(d_s, d_e, seed):
    model, rho_s, rho_e = open_case(d_s, d_e, seed)
    composite = model.discretize(8)
    grid = symmetric_grid(2.5, 11)
    for counting in ("work", "heat"):
        g = composite.characteristic_function(rho_s, rho_e, grid, counting=counting).values
        assert abs(g[grid.index_of(0.0)] - 1.0) <= 1e-12
        assert np.max(np.abs(g[::-1] - np.conj(g))) <= 1e-12


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_ledger_and_increment_form(d_s, d_e, seed):
    model, rho_s, rho_e = open_case(d_s, d_e, seed)
    composite = model.discretize(12)
    for refresh_every in (None, 3):
        ledger, increments = composite.trajectory(rho_s, rho_e, refresh_every=refresh_every)
        assert abs(ledger.work - (ledger.internal_energy_change - ledger.heat)) <= 1e-12
        assert abs(increments - ledger.work) <= 1e-12


@pytest.mark.parametrize("d_s,d_e,seed", OPEN_CASES, ids=OPEN_IDS)
def test_open_decoupled_work_counting_is_closed_two_kick(d_s, d_e, seed):
    model, _, _ = open_case(d_s, d_e, seed, coupling_scale=0.0)
    composite = model.discretize(8)
    free_env = expm_unitary(model.h_env, composite.drive.duration).matrix
    for lam in (-0.9, 0.0, 1.6):
        closed = two_kick_propagator(composite.drive, lam).matrix
        work = composite.counting_operator(lam, "work").matrix
        assert np.max(np.abs(work - tensor(closed, free_env))) <= 1e-12


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

    return DriveProtocol(1.0, at, "random-curved")


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
