"""Inductivity/resistivity analysis of lossy RL power networks."""

from .allocate import (AllocationProblem, AllocationResult, allocation_landscape,
                       design_nonuniform, design_uniform, optimize_allocation)
from .errors import (NetinductError, ParseError, SingularMatrixError,
                     SpectralMismatchError, ValidationError)
from .kron import (AngleTable, BranchRecord, ReducedAdmittance, angle_table_csv,
                   kron_reduce_real, line_angles, phasor_reduce)
from .measures import (AugmentedDynamics, MeasureReport, assemble_dynamics,
                       measure_report, psi_nir_nonuniform, psi_nir_uniform)
from .network import (EdgeSpec, NodeSpec, PowerNetwork, WeightedLaplacian,
                      build_laplacian, load_network, network_from_dict,
                      network_from_json, network_to_dict, save_network)
from .simulate import (DecayRates, EnvelopeVerdict, Trajectory, default_time_grid,
                       fit_decay_rates, homogeneous_solution, trajectory_csv,
                       verify_envelopes)
from .spectra import (Connectivity, Spectrum, algebraic_connectivity, eig_product,
                      eig_symmetric)

__version__ = "0.1.0"
