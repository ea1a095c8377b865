"""Spectra of self-similar group actions on the binary rooted tree.

The package computes, at finite truncation, the spectral theory of the
four-generator self-similar action: word problem and boundary dynamics
(group), Schreier and orbital graphs (schreier), operator assembly and the
Schur renormalization step (hecke), the parameter-plane dynamics and slice
spectra (renorm), and numerical spectral utilities (spectra).  The `selfsim`
command line drives batch reproductions.
"""

from .errors import (
    LevelTooLarge,
    MissingLabel,
    NotSymmetric,
    PoleAtBeta,
    PoleHit,
    RadiusTooSmall,
    SelfsimError,
)
from .group import (
    GENERATORS,
    BoundaryPoint,
    WreathDecomposition,
    act_boundary_prefix,
    act_vertex,
    activity_count,
    boundary_image,
    is_identity,
    is_subexp_bounded_sample,
    reduce_word,
    rigidity_depth,
    wreath_decompose,
)
from .schreier import (
    MarkedGraph,
    balls_isomorphic,
    induced_ball,
    level_graph,
    local_iso_probe,
    orbital_ball,
)
from .hecke import (
    AlgebraElement,
    OperatorMatrix,
    SchurReport,
    assemble_level,
    assemble_orbital,
    delta_element,
    generator_sum_element,
    groupoid_block,
    schur_step_check,
    word_perm,
)
from .renorm import (
    CurveCheck,
    IntervalUnion,
    MapOrbit,
    Param,
    curve_invariance_check,
    curve_points,
    gamma_residual,
    h_orbit,
    in_omega,
    lambda_slice,
    omega_svg,
    renorm_map,
    slice_spectrum_samples,
)
from .spectra import (
    EigReport,
    Histogram,
    ShiftReport,
    eig_histogram,
    hausdorff_to_set,
    spectral_shift_check,
    sym_eigs,
    sym_eigvals,
)

__version__ = "0.1.0"

__all__ = [
    "SelfsimError",
    "LevelTooLarge",
    "MissingLabel",
    "NotSymmetric",
    "RadiusTooSmall",
    "PoleAtBeta",
    "PoleHit",
    "GENERATORS",
    "BoundaryPoint",
    "WreathDecomposition",
    "reduce_word",
    "wreath_decompose",
    "act_vertex",
    "act_boundary_prefix",
    "boundary_image",
    "is_identity",
    "activity_count",
    "is_subexp_bounded_sample",
    "rigidity_depth",
    "MarkedGraph",
    "level_graph",
    "orbital_ball",
    "induced_ball",
    "balls_isomorphic",
    "local_iso_probe",
    "AlgebraElement",
    "OperatorMatrix",
    "SchurReport",
    "word_perm",
    "delta_element",
    "generator_sum_element",
    "assemble_level",
    "assemble_orbital",
    "groupoid_block",
    "schur_step_check",
    "Param",
    "renorm_map",
    "in_omega",
    "gamma_residual",
    "curve_points",
    "curve_invariance_check",
    "CurveCheck",
    "IntervalUnion",
    "lambda_slice",
    "slice_spectrum_samples",
    "MapOrbit",
    "h_orbit",
    "omega_svg",
    "EigReport",
    "sym_eigvals",
    "sym_eigs",
    "hausdorff_to_set",
    "ShiftReport",
    "spectral_shift_check",
    "Histogram",
    "eig_histogram",
]
