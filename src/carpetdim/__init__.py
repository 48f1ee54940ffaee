"""Exact lift counting and dimension bounds for coded self-affine carpets.

The package takes a shift of finite type with a one-block letter map
(or a torus carpet description, which induces one) and computes, with
tracked error bounds: exact preimage counts, partition sums, two-sided
pressure and Hausdorff-dimension brackets, finite-depth cylinder
measures with their Gibbs-type envelopes, almost-additivity scans, and
growth rates of lift counts at eventually periodic points.
"""

from .counting import (
    DEFAULT_NODE_BUDGET,
    CollapsedEngine,
    ExactEngine,
    LogReal,
    PartitionSum,
    dn_count,
    is_image_point,
    partition_series,
    partition_sum,
    preimage_count,
    viable_sets,
)
from .errors import (
    CarpetDimError,
    NonMixingError,
    NotFullShiftError,
    PreconditionError,
    ResourceError,
    SpecError,
)
from .measures import (
    AdditivityScanReport,
    CylinderDistribution,
    GibbsEnvelope,
    UniquenessReport,
    additivity_scan,
    cesaro_average,
    cesaro_defect,
    gibbs_scan,
    nu_marginal,
    uniqueness_report,
)
from .pressure import (
    CompensationEstimate,
    DimensionEstimate,
    PressureEstimate,
    SuperadditiveConstants,
    compensation_at_periodic,
    convergence_rows,
    hausdorff_dimension,
    mcmullen_closed_form,
    perron_eigenvalue,
    pressure_interval,
    superadditive_constants,
)
from .render import RasterImage, render_carpet, write_pbm
from .sft import (
    CarpetSpec,
    EventuallyPeriodicPoint,
    FactorSystem,
    Sft,
    StructureReport,
    carpet_to_factor,
    singleton_clumps,
    validate_sft,
)
from .specfile import (
    SCHEMA_VERSION,
    load_system,
    parse_system,
    system_doc,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Sft",
    "StructureReport",
    "FactorSystem",
    "CarpetSpec",
    "EventuallyPeriodicPoint",
    "validate_sft",
    "singleton_clumps",
    "carpet_to_factor",
    "CarpetDimError",
    "SpecError",
    "PreconditionError",
    "NonMixingError",
    "NotFullShiftError",
    "ResourceError",
    "DEFAULT_NODE_BUDGET",
    "LogReal",
    "PartitionSum",
    "CollapsedEngine",
    "ExactEngine",
    "preimage_count",
    "partition_sum",
    "partition_series",
    "dn_count",
    "is_image_point",
    "viable_sets",
    "SuperadditiveConstants",
    "PressureEstimate",
    "DimensionEstimate",
    "CompensationEstimate",
    "superadditive_constants",
    "pressure_interval",
    "convergence_rows",
    "hausdorff_dimension",
    "mcmullen_closed_form",
    "compensation_at_periodic",
    "perron_eigenvalue",
    "CylinderDistribution",
    "GibbsEnvelope",
    "AdditivityScanReport",
    "UniquenessReport",
    "nu_marginal",
    "gibbs_scan",
    "cesaro_average",
    "cesaro_defect",
    "additivity_scan",
    "uniqueness_report",
    "RasterImage",
    "render_carpet",
    "write_pbm",
    "SCHEMA_VERSION",
    "parse_system",
    "load_system",
    "system_doc",
]
