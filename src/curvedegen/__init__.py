"""Limit measures of degenerating one-parameter families of curves.

The package has two halves.  The exact half (no floating point) works with
dual graphs of degenerate fibers: validation, contraction to minimal
models, stable dual graphs and essential skeletons, limit measures on
curve complexes, and their pushforwards.  The numerical half checks the
local convergence statements behind those limits on annular node charts
and computes sup-type masses on marked rational curves.
"""
from .bundles import BundleDescriptor, bundle_for, h0
from .errors import (
    CurveDegenError,
    InternalConsistencyError,
    LiftError,
    ModelValidationError,
    NumericalConvergenceError,
    ParseError,
)
from .density import (
    OptimizerSpec,
    SectionSystem,
    ns_density,
    pairing_matrix,
    pb_density,
    pseudonorm,
    region_tau_mass,
)
from .dsl import ModelDocument, emit_model, parse_model
from .dotio import emit_dot, emit_stable_dot
from .experiments import (
    ExperimentResult,
    norm_asymptotics_experiment,
    pairing_experiments,
    region_mass_experiment,
)
from .genus0 import generic_configuration, moebius_points, ns_mass_genus0
from .laurent import LaurentFamily
from .limits import (
    DimensionSummary,
    dimension_summary,
    large_m_limit_fixed_divisor,
    large_m_limit_fixed_qdivisor,
    ns_limit_measure,
    pb_limit_measure,
    pushforward_to_fiber,
    pushforward_to_hyb,
    stable_curve_ns_measure,
)
from .measures import (
    UNKNOWN,
    Atom,
    CCMeasure,
    ComponentMeasure,
    ComponentPoint,
    EdgePoint,
    Estimate,
    FiberMeasure,
    HybMeasure,
    Unknown,
)
from .model import (
    Component,
    DualGraphModel,
    Edge,
    MarkedPoint,
    ModelParams,
    ValidationReport,
    Violation,
    arithmetic_genus,
    canonical_form,
    is_isomorphic,
    make_model,
    require_valid,
    total_mark_degree,
    validate,
)
from .reduction import (
    ChainEdge,
    DominationMap,
    NodeCollapse,
    Skeleton,
    SmoothCollapse,
    StableDualGraph,
    blowup_node,
    blowup_smooth_point,
    compose_maps,
    essential_skeleton,
    is_minimal,
    lift_measure,
    minimal_snc_model,
    pushforward_measure,
    stable_dual_graph,
)

__version__ = "0.1.0"
