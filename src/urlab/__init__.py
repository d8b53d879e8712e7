"""urlab: numerically verify ordinary and state-extended uncertainty relations
for tuples of Hermitian observables across one or more quantum states."""

__version__ = "0.1.0"

from .errors import ConfigError, InputError, NumericError, TruncationError
from .linalg import (
    SLACK_RTOL,
    TOL_PSD,
    char_coeffs,
    entangled_char_gap,
    gram,
    split,
    superadditive_char_gap,
)
from .model import (
    DensityMatrix,
    Observable,
    PureState,
    QuantumState,
    coherent_state,
    fock_operators,
    fock_state,
    quad_mix,
    quad_plus,
    sample,
    spin_operators,
    squeezed_state,
)
from .moments import (
    GramUR,
    MomentSet,
    gram_centered,
    gram_raw,
    moment_set,
    robertson_matrix,
    transform_observables,
    transform_states,
)
from .catalog import (
    URReport,
    characteristic,
    coherent_fixed,
    entangled_heisenberg,
    evaluate_ur,
    extended_schrodinger,
    heisenberg,
    char_gap_check,
    robertson,
    schrodinger,
    type_1_2,
    type_2_1,
    type_2_2,
    type_2_m,
    type_3_1,
)
from .analysis import (
    MinimizationResult,
    PrecisionStats,
    SaturationTransferAudit,
    SaturationCertificate,
    compare_precision,
    divergence,
    gaussian_pair_ensemble,
    minimize_slack,
    saturation_transfer_audit,
    saturation_1_2a,
    triangle_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
