"""divkit: divergence operators on charts, their axioms, and reconstruction."""

from .errors import (
    ChartMismatch,
    DivkitError,
    DomainError,
    SpecError,
    SupportError,
    ValidationError,
)
from .expr import EvalDomainError, Expr, ParseError, UnknownIdentifierError, parse_expr
from .geometry import (
    Chart,
    OneForm,
    Path,
    VectorField,
    VolumeForm,
    apply_field,
    bracket,
    d_function,
    d_oneform,
    lie_derivative_top,
    line_integral,
    sample_points,
)
from .quadrature import (
    QuadratureRule,
    bump_field,
    default_rule,
    grid_integral,
    integral_vanishing_check,
)
from .operators import (
    Connection,
    DivOperator,
    Metric,
    blackbox_operator,
    div_affine,
    div_metric,
    div_sdensity,
    div_volume,
    levi_civita,
    parallel_residual,
    perturbed_operator,
)
from .axioms import (
    CheckConfig,
    ResidualReport,
    cartan_identity_residual,
    check_axioms,
    cocycle_residual,
    leibniz_residual,
    library_fields,
)
from .reconstruct import (
    Classification,
    ClassifyConfig,
    NumericScalarField,
    NumericVolume,
    PointwiseOneForm,
    classify,
    closedness_residual,
    extract_oneform,
    integrate_potential,
    monodromy_period,
    rebuild_volume,
    star_shaped_subchart,
    tensoriality_residual,
)
from .specfile import SpecFile, parse_spec_text, parse_specfile

__version__ = "0.1.0"
