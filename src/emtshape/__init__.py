"""Contracted elastic moment tensors of a planar inclusion and analytic
two-step recovery of its boundary."""

from .materials import (
    LameConstants,
    DerivedConstants,
    MaterialPair,
    derive_constants,
    kelvin_matrix,
    elastic_tensor_apply,
)
from .geometry import (
    Disk,
    Ellipse,
    Kite,
    Starfish,
    PerturbedDisk,
    FourierCurve,
    BoundaryCurve,
    sample,
    fourier_coefficient,
    descriptor_to_json,
    descriptor_from_json,
)
from .transmission import (
    BackgroundField,
    DensityPair,
    SolverError,
    evaluate_background,
    assemble_and_solve,
    solve_densities,
    evaluate_exterior,
    residual_norms,
    rigid_motion_residuals,
)
from .disk import (
    DiskSolution,
    disk_density_coefficients,
    disk_solution,
    disk_interior_field,
    disk_exterior_field,
    disk_modified_emt,
    disk_emt_general,
    recentering_matrix,
)
from .emt import (
    EmtTable,
    NoiseModel,
    contracted_emt,
    emt_table,
    apply_noise,
    table_to_json,
    table_from_json,
)
from .reconstruct import (
    InversionError,
    DiskEstimate,
    ShapeEstimate,
    ShapeError,
    estimate_disk,
    modified_emts,
    deltas,
    fourier_coefficients,
    reconstruct,
    reconstruct_curve,
    shape_error,
    shape_estimate_to_json,
    shape_estimate_from_json,
)

__version__ = "0.1.0"
