"""Simulation and exact-oracle laboratory for coalescing random walks and
the dual voter model on finite graphs."""

__version__ = "0.10.0"

from .graphs import (  # noqa: F401
    DegreeDistribution,
    Graph,
    size_biased,
    sample_configuration_model,
    make_transitive,
    is_connected,
    vertex_expansion_exact,
    read_graph,
    write_graph,
)
from .chains import (  # noqa: F401
    MarkovChain,
    Spectrum,
    build_generator,
    product_chain,
    transition_matrix,
    spectrum,
)
from .meeting import (  # noqa: F401
    MeetingProfile,
    pairwise_meeting_times,
    mean_meeting_time,
    alpha_survival,
    kac_residual,
    aldous_brown_check,
    eigentime_residual,
    mc_pair_meeting,
)
from .crw import (  # noqa: F401
    DensityEstimate,
    simulate_crw,
    estimate_density,
    exact_occupancy_density,
    exact_occupancy_cov,
    exact_k_particle_law,
    sample_tau_coal,
    sample_tau_coal_many,
)
from .voter import (  # noqa: F401
    simulate_voter,
    sample_nhat_ancestral,
    duality_gap,
    gamma_ks,
    gamma22_cdf,
    size_bias_histogram,
)
from .theory import (  # noqa: F401
    Prediction,
    mean_field_predictions,
    bg_prediction,
    psi_d,
    psi_d_horizon,
    estimate_psi_d,
    estimate_alpha_D,
    alpha_regular_tree,
    kingman_tau_coal,
    enumerate_patterns,
    branching_integral_mc,
    reversal_identity_residual,
)
from .runner import run_experiment  # noqa: F401
from .config import ExperimentConfig, load_config  # noqa: F401
