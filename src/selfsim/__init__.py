"""Spectra of self-similar group actions on the binary rooted tree.

The package computes, at finite truncation, the spectral theory of the
four-generator self-similar action: word problem and boundary dynamics
(group), orbital-graph balls (schreier), operator assembly and the
Schur renormalization step (hecke), the parameter-plane dynamics and slice
spectra (renorm), and numerical spectral utilities (spectra).  The `selfsim`
command line drives batch reproductions.
"""

from .group import (
    GENERATORS,
    BoundaryPoint,
    reduce_word,
    rigidity_depth,
)
from .schreier import orbital_ball
from .hecke import (
    AlgebraElement,
    assemble_level,
    assemble_orbital,
    delta_element,
    generator_sum_element,
    groupoid_block,
    schur_step_check,
)
from .renorm import (
    IntervalUnion,
    curve_invariance_check,
    lambda_slice,
    omega_svg,
    renorm_map,
    slice_spectrum_samples,
)
from .spectra import (
    hausdorff_to_set,
    sym_eigs,
)

__version__ = "0.1.0"

__all__ = [
    "GENERATORS",
    "BoundaryPoint",
    "reduce_word",
    "rigidity_depth",
    "orbital_ball",
    "AlgebraElement",
    "delta_element",
    "generator_sum_element",
    "assemble_level",
    "assemble_orbital",
    "groupoid_block",
    "schur_step_check",
    "renorm_map",
    "curve_invariance_check",
    "IntervalUnion",
    "lambda_slice",
    "slice_spectrum_samples",
    "omega_svg",
    "sym_eigs",
    "hausdorff_to_set",
]
