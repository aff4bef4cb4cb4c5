"""notchlab: notch-filtered superconducting-qubit readout circuits.

Distributed and lumped models of MTL-coupled quarter-wave readout/filter
resonator pairs, Purcell-limit predictions, a semi-classical simulator of
the multiplexed readout network, reflection-spectrum fitting, and readout
error-budget analytics.
"""

from .equiv import (CouplerBranch, EquivCap, LumpedPair, LumpedResonator,
                    equivalent_cap, equivalent_pair, j_capacitive, j_mtl,
                    map_resonator, notch_branch, two_port_z, z21_lumped)
from .errors import (BracketError, CompositionPoleError, DegenerateNotchError,
                     NotchlabError, NumericalError, PassivityError, PoleError,
                     SingularSystemError, UnboundedCouplerError,
                     ValidationError)
from .metrics import (ErrorBudget, FidelityResult, ReadoutCounts,
                      ShotAnalysis, ShotStats, coherence_limits,
                      error_budget, fidelities, incident_from_resonator,
                      matched_filter_weights, photons_from_stark,
                      rabi_to_omega, separation_error, shot_analysis,
                      stark_linear_fit, t1_from_drive, wilson_interval)
from .mtl import (C_LIGHT, CoupledPairGeometry, LineParams, MtlCouplerParams,
                  coupling_diagnostics, find_zero, lambda4_frequency,
                  notch_frequency, z21_capacitive, z21_general,
                  z21_homogeneous, z21_multi)
from .mux import (DrivePulse, FieldTraces, MuxNetwork, NormalMode,
                  PulseSegment, QubitInfo, ReadoutChannel, SeparationResult,
                  critical_photon, drive_for_photon_number, gamma_filter,
                  gamma_incident, mode_dispersive_shifts, noise_photon_bound,
                  normal_modes, propagate, separation, shunt_reflection,
                  steady_state, system_matrix)
from .purcell import (QubitCoupling, ShuntLC, T1Result, c_ext_from_kappa,
                      c_qr_from_g, capacitive_twin, constrained_pair,
                      enhancement_bandwidth, enhancement_factor,
                      mtl_pair_and_twin, mtl_vs_cap_t1_ratio, notch_from_xi,
                      re_input_admittance, t1_purcell)
from .specfit import (FitConfig, FitResult, PhaseSpectrum, fit_reflection,
                      model_phase, synth_spectrum, wrap_phase)

__version__ = "0.1.0"
