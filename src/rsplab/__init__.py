"""Remote-state-preparation fidelity, geometric discord, and local
qubit channels for two-qubit states.

The package computes the payoff of the canonical remote-state-preparation
protocol and the Hilbert-Schmidt geometric discord from a state's Pauli
decomposition, models single-qubit channels as Pauli transfer matrices
(built from Kraus operators, checked through the Choi matrix),
and analyzes when symmetric local amplitude damping raises the fidelity of
a Bell-diagonal state that starts at zero.
"""

from .channels import (
    ChannelFactorization,
    QubitChannel,
    amplitude_damping,
    apply_local,
    bit_flip,
    bit_phase_flip,
    channel_from_json,
    depolarizing,
    discord_raising,
    factorize,
    identity_channel,
    phase_flip,
)
from .enhancement import (
    EnhanceReport,
    EvolutionTrace,
    enhance_report,
    evolve_closed_form,
    f_under_damping,
    dg_under_damping,
    is_enhancible,
    p_opt,
    profile_line,
    q1,
    scan_tetrahedron,
    sweep_best_p,
    trace_evolution,
)
from .measures import MeasureReport, gmqd, measure_pair, rsp_fidelity
from .oracles import (
    OracleReport,
    discord_raising_check,
    gmqd_search_oracle,
    nonunital_increase_witness,
    protocol_fidelity_oracle,
    sample_unital_local,
    unital_monotonicity_suite,
)
from .states import (
    BellDiagonalParams,
    TwoQubitState,
    bell_diagonal,
    bell_eigenvalues,
    local_unitary,
    state_from_json,
    state_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BellDiagonalParams",
    "ChannelFactorization",
    "EnhanceReport",
    "EvolutionTrace",
    "MeasureReport",
    "OracleReport",
    "QubitChannel",
    "TwoQubitState",
    "amplitude_damping",
    "apply_local",
    "bell_diagonal",
    "bell_eigenvalues",
    "bit_flip",
    "bit_phase_flip",
    "channel_from_json",
    "depolarizing",
    "dg_under_damping",
    "discord_raising",
    "discord_raising_check",
    "enhance_report",
    "evolve_closed_form",
    "f_under_damping",
    "factorize",
    "gmqd",
    "gmqd_search_oracle",
    "identity_channel",
    "is_enhancible",
    "local_unitary",
    "measure_pair",
    "nonunital_increase_witness",
    "p_opt",
    "phase_flip",
    "profile_line",
    "protocol_fidelity_oracle",
    "q1",
    "rsp_fidelity",
    "sample_unital_local",
    "scan_tetrahedron",
    "state_from_json",
    "state_to_json",
    "sweep_best_p",
    "trace_evolution",
    "unital_monotonicity_suite",
    "__version__",
]
