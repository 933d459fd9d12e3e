"""Shear and Hall viscosities of disordered Dirac electrons.

Kubo stress-stress response with a self-consistent Born disorder
self-energy, in zero field (momentum-basis quadrature) and in a
perpendicular magnetic field (Landau-level sums), static and dynamic,
cross-validated against closed-form limits.
"""

__version__ = "0.1.0"

from .model import (HBAR_OVER_E, XX_MINUS_YY, XY, LandauSpectrum, ModelParams,
                    VertexReport, build_spectrum, effective_cyclotron,
                    landau_energy, magnetic_length,
                    stress_element_xx_minus_yy, stress_element_xy,
                    stress_kspace, vertex_correction_b0,
                    vertex_correction_landau)
from .scba import (ConvergenceError, SelfEnergySolution, dos,
                   relaxation_time, self_energy_b0_asymptotic,
                   self_energy_dirac_point_bfield, self_energy_overlapped,
                   self_energy_separated, solve_self_energy_b0,
                   solve_self_energy_landau)
from .kubo_static import (B_ZERO, OVERLAPPED, SEPARATED, ViscosityValue,
                          detect_regime, hall_static_analytic,
                          hall_static_numeric, shear_b0_analytic,
                          shear_b0_numeric, shear_bfield_analytic,
                          shear_bfield_dirac_limit, shear_bfield_numeric)
from .kubo_dynamic import (ELECTRON_ELECTRON, ELECTRON_HOLE, HOLE_HOLE,
                           Transition, StaticLimitReport, hall_dynamic,
                           shear_dynamic_b0, shear_dynamic_b0_ee_limit,
                           shear_dynamic_b0_eh_limit, shear_dynamic_bfield,
                           static_limit_check, transition_table)
from .sweep import (GridSpec, SweepResult, SweepRow, SweepSpec, figure_preset,
                    parse_csv_config, result_to_csv, result_to_json,
                    result_to_svg, run_sweep)

__all__ = [
    "__version__",
    "HBAR_OVER_E", "XY", "XX_MINUS_YY",
    "ModelParams", "LandauSpectrum", "build_spectrum", "magnetic_length",
    "landau_energy", "effective_cyclotron", "stress_element_xy",
    "stress_element_xx_minus_yy", "stress_kspace",
    "ConvergenceError", "SelfEnergySolution", "solve_self_energy_b0",
    "solve_self_energy_landau", "self_energy_b0_asymptotic",
    "self_energy_separated", "self_energy_overlapped",
    "self_energy_dirac_point_bfield", "dos", "relaxation_time",
    "ViscosityValue", "B_ZERO", "SEPARATED",
    "OVERLAPPED", "detect_regime",
    "shear_b0_numeric", "shear_b0_analytic", "shear_bfield_numeric",
    "shear_bfield_analytic", "shear_bfield_dirac_limit",
    "hall_static_numeric", "hall_static_analytic",
    "Transition", "transition_table", "shear_dynamic_b0",
    "ELECTRON_ELECTRON", "ELECTRON_HOLE", "HOLE_HOLE",
    "shear_dynamic_b0_eh_limit", "shear_dynamic_b0_ee_limit",
    "shear_dynamic_bfield", "hall_dynamic", "static_limit_check",
    "StaticLimitReport",
    "VertexReport", "vertex_correction_b0", "vertex_correction_landau",
    "GridSpec", "SweepSpec", "SweepRow", "SweepResult", "run_sweep",
    "figure_preset", "result_to_csv", "result_to_json", "result_to_svg",
    "parse_csv_config",
]
