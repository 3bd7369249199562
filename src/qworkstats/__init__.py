"""Work, heat and internal-energy statistics of driven quantum systems.

The package contrasts two ways of asking how much energy a drive puts into a
small quantum system:

* the two-measurement protocol (projective energy measurements before and
  after the drive), a classical probability distribution that destroys
  initial coherences, and
* the detector-phase counting-field protocol, whose characteristic function
  generates all moments and whose Fourier transform is a quasi-probability
  that can go negative for coherent initial states while agreeing with the
  two-measurement result for statistical mixtures.

For open systems, sequential detector couplings per drive step track the
dissipated heat through system observables alone, with an exactly evolved
small environment and a per-step heat ledger obeying ``W = dU - Q``.
"""

from .linalg import (
    DensityOperator,
    HermitianOperator,
    NumericalError,
    UnitaryOperator,
    eig_hermitian,
    eigenstate_density,
    expm_unitary,
    gibbs_state,
    partial_trace_env,
    pure_state_density,
    random_density,
    random_hermitian,
    random_unitary,
    tensor,
    von_neumann_entropy,
)
from .drive import (
    DiscretizedDrive,
    DriveProtocol,
    constant_protocol,
    cyclic_qubit_drive,
    cyclic_qubit_hamiltonian,
    cyclic_qubit_protocol,
    cyclic_qubit_state,
    cyclic_qubit_unitary,
    discretize,
    discretize_to_tolerance,
    evolution_operator,
    gap_ramp_protocol,
    linear_ramp_protocol,
    piecewise_constant_protocol,
    rabi_protocol,
    random_ramp_protocol,
    reversed_protocol,
)
from .fcs import (
    CharacteristicSamples,
    CountingGrid,
    QuasiDistribution,
    SpectralExpansion,
    characteristic_function,
    coherent_classical_split,
    fd_stencil_grid,
    fourier_grid_for_supports,
    fourier_quasi_weights,
    moment,
    moment_fd,
    quasi_distribution,
    spectral_decomposition,
    symmetric_grid,
    two_kick_propagator,
)
from .tmp import TmpDistribution, dephase, tmp_characteristic, tmp_distribution, tmp_moment
from .open_system import (
    DiscretizedComposite,
    HeatLedger,
    fast_decoherence_run,
    oscillator_environment,
    qubit_exchange_environment,
    two_qubit_exchange_environment,
)
from .paths import (
    PathEnsemble,
    boundary_beta,
    counting_weighted_sum,
    enumerate_paths,
    kicked_product,
    path_sum,
)
from .scenario import Scenario, ScenarioError

__version__ = "0.1.0"
