"""notchlab: notch-filtered superconducting-qubit readout circuits.

Distributed and lumped models of MTL-coupled quarter-wave readout/filter
resonator pairs, Purcell-limit predictions, a semi-classical simulator of
the multiplexed readout network, reflection-spectrum fitting, and readout
error-budget analytics.

Each exported name loads its module on first use (PEP 562).
"""

import importlib

_EXPORTS = {
    "equiv": "CouplerBranch EquivCap LumpedPair LumpedResonator "
             "equivalent_cap equivalent_pair j_capacitive j_mtl map_resonator "
             "notch_branch two_port_z",
    "errors": "BracketError CompositionPoleError DegenerateNotchError "
              "NotchlabError NumericalError PassivityError PoleError "
              "SingularSystemError UnboundedCouplerError ValidationError",
    "metrics": "ErrorBudget FidelityResult ReadoutCounts ShotAnalysis "
               "ShotStats coherence_limits error_budget fidelities "
               "incident_from_resonator photons_from_stark rabi_to_omega "
               "separation_error shot_analysis stark_linear_fit t1_from_drive",
    "mtl": "C_LIGHT CoupledPairGeometry LineParams MtlCouplerParams QubitInfo "
           "ReadoutChannel ShuntLC find_zero lambda4_frequency "
           "notch_frequency z21_capacitive z21_general z21_homogeneous",
    "mux": "DrivePulse FieldTraces MuxNetwork NormalMode PulseSegment "
           "SeparationResult critical_photon gamma_filter gamma_incident "
           "mode_dispersive_shifts noise_photon_bound normal_modes propagate "
           "separation shunt_reflection steady_state system_matrix",
    "purcell": "QubitCoupling T1Result c_ext_from_kappa c_qr_from_g "
               "capacitive_twin constrained_pair enhancement_bandwidth "
               "enhancement_factor mtl_pair_and_twin mtl_vs_cap_t1_ratio "
               "notch_from_xi re_input_admittance t1_purcell",
    "specfit": "FitConfig FitResult PhaseSpectrum fit_reflection model_phase "
               "synth_spectrum wrap_phase",
}
_HOME = {n: m for m, names in _EXPORTS.items() for n in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
