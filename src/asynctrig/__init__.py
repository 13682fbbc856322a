"""Self-triggered sensor scheduling for sampled-data linear systems.

A controller that holds a zero-order-hold state estimate refreshed by at most
one sensor per period, and schedules whole horizons of sensor actions at a
time.  The package covers the full pipeline: exact discretization, horizon
enumeration, Lyapunov/LMI certificate synthesis, conic state-space
partitioning, four triggering mechanisms (online/offline, with and without
disturbance), and a closed-loop simulator with CSV/SVG reporting.
"""

from .certificates import (
    PerturbedOfflineCertificate,
    PerturbedOnlineCertificate,
    UnperturbedCertificate,
    build_U_c,
    certificate_from_dict,
    certificate_to_dict,
    choose_sigma_star,
    decay_factor,
    region_forms,
    reverify_certificate,
    synthesize_perturbed_offline,
    synthesize_perturbed_online,
    synthesize_unperturbed,
    ultimate_bound,
    verify_lmi_pair,
)
from .errors import ConfigError, InfeasibleError, ResourceCapError
from .horizons import (
    action_codes,
    avg_idle_metric,
    enumerate_horizons,
    horizon_from_text,
    horizon_to_text,
)
from .matrix_core import (
    is_psd,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sym_eig_bounds,
    zoh_pair,
)
from .partition import (
    ConicRegion,
    make_partition,
    partition_to_dict,
    region_of,
)
from .plant import (
    DiscretePlant,
    PlantModel,
    disturbance_step_bound,
    growth_constants,
    refresh_masks,
    step_matrices,
    transition_table,
)
from .presets import PRESET_NAMES, preset_config
from .simulation import (
    Prepared,
    SimConfig,
    SimTrace,
    certify,
    prepare,
    read_trace_csv,
    simulate,
    utilization_metrics,
    write_decision_csv,
    write_trace_csv,
)
from .svgplots import emit_plots, parse_polyline
from .triggers import (
    GatedPolicy,
    OnlinePolicy,
    TablePolicy,
    TriggerDecision,
    table_to_dict,
)

__version__ = "0.1.0"
