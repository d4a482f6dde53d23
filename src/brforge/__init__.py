"""Exact commutative algebra over small prime fields: Groebner bases,
syzygies, free resolutions, Hilbert series, and randomized constructions of
arithmetically Gorenstein subschemes as kernel sections, with Gorenstein
liaison on top.
"""

from .ring import Rng
from .poly import FreeModuleElement, Polynomial, PolyRing
from .ideals import (
    ConstructionError,
    Ideal,
    InvariantError,
    affine_dimension,
    draw_regular_sequence,
    ideal_intersection,
    ideal_quotient,
    linear_saturation,
    regular_sequence,
    saturation,
    top_dimensional_part,
)
from .hilbert import (
    HilbertReport,
    hilbert_function_values,
    hilbert_numerator,
    hilbert_report,
)
from .resolution import (
    BettiTable,
    GorensteinCertificate,
    GradedMatrix,
    Resolution,
    free_resolution,
    gorenstein_certificate,
    regularity,
    syzygy_matrix,
)
from .chern import (
    ChernReport,
    ExpectedShape,
    GenBRSpec,
    TwistSpec,
    chern_coefficients,
    degree_formula_r3,
    elementary_symmetric,
    expected_resolution,
    expected_resolution_aci,
    expected_resolution_r3,
)
from .construct import (
    ConstructionSpec,
    ConstructionReport,
    KernelSectionRun,
    SectionResult,
    check_expected_codim,
    combine_columns,
    construction_matrix,
    kernel_section_run,
    minors_ideal,
    pfaffian,
    pfaffian_ideal,
    random_graded_matrix,
    section,
    verify_construction,
)
from .liaison import (
    GenBRRun,
    LinkRecord,
    common_section,
    generalized_br_run,
    gorenstein_link,
    module_intersection,
)
from .io import (
    ideal_text,
    matrix_text,
    read_ideal,
    read_matrix,
    write_ideal,
    write_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Rng",
    "FreeModuleElement",
    "Polynomial",
    "PolyRing",
    "ConstructionError",
    "Ideal",
    "InvariantError",
    "affine_dimension",
    "draw_regular_sequence",
    "ideal_intersection",
    "ideal_quotient",
    "linear_saturation",
    "regular_sequence",
    "saturation",
    "top_dimensional_part",
    "HilbertReport",
    "hilbert_function_values",
    "hilbert_numerator",
    "hilbert_report",
    "BettiTable",
    "GorensteinCertificate",
    "GradedMatrix",
    "Resolution",
    "free_resolution",
    "gorenstein_certificate",
    "regularity",
    "syzygy_matrix",
    "ChernReport",
    "ExpectedShape",
    "GenBRSpec",
    "TwistSpec",
    "chern_coefficients",
    "degree_formula_r3",
    "elementary_symmetric",
    "expected_resolution",
    "expected_resolution_aci",
    "expected_resolution_r3",
    "ConstructionSpec",
    "ConstructionReport",
    "KernelSectionRun",
    "SectionResult",
    "check_expected_codim",
    "combine_columns",
    "construction_matrix",
    "kernel_section_run",
    "minors_ideal",
    "pfaffian",
    "pfaffian_ideal",
    "random_graded_matrix",
    "section",
    "verify_construction",
    "GenBRRun",
    "LinkRecord",
    "common_section",
    "generalized_br_run",
    "gorenstein_link",
    "module_intersection",
    "ideal_text",
    "matrix_text",
    "read_ideal",
    "read_matrix",
    "write_ideal",
    "write_matrix",
    "main",
]


def main(argv=None) -> int:
    from .cli import main as _main

    return _main(argv)
