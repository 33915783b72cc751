"""Exact machinery for products of skew Schur functions.

Partitions and their boundary point model, semistandard skew tableaux, the
bijection with nonintersecting lattice paths, overlays with bicoloured-path
recolouring, and verified expansion identities for products of skew Schur
functions, all in exact integer arithmetic.
"""

from .partitions import (
    Partition,
    PointSet,
    SkewShape,
    StripSpec,
    add_strip,
    build_nu,
    canonical_shape,
    peel_complete,
    peel_down,
    peel_up,
    to_points,
)
from .tableaux import (
    CellViolation,
    Tableau,
    enumerate_ssyt,
    first_tableau,
    last_tableau,
    random_tableau,
    validate_tableau,
    weight,
)
from .paths import (
    LatticePath,
    PathFamily,
    endpoints,
    family_from_paths,
    paths_to_tableau,
    tableau_to_paths,
)
from .overlay import (
    BicolouredPath,
    CircularConfiguration,
    Colour,
    ColouredPoint,
    Matching,
    Overlay,
    admissible_flip_sets,
    all_bicoloured,
    enumerate_admissible_matchings,
    recolour,
    trace_bicoloured,
)
from .schur import (
    Polynomial,
    bareiss_determinant,
    complete_homogeneous_values,
    dominant_terms,
    h_values,
    skew_schur,
    skew_schur_eval,
    skew_schur_evaluator,
)
from .identities import (
    Identity,
    ProductTerm,
    VerificationReport,
    border_strip_identity,
    configuration_from_shapes,
    estimate_expansion_size,
    minimal_alphabet,
    recolouring_expansion,
    verify_identity,
)
from .render import render_configuration, render_ferrers, render_overlay

__version__ = "0.1.0"
