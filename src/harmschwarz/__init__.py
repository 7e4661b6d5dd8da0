"""harmschwarz: Schwarzian machinery for planar harmonic mappings.

The package computes the pre-Schwarzian P_f and Schwarzian S_f of any
locally univalent harmonic map f = h + conj(g) on the unit disk, the
constructions that produce such maps (shear, affine composition,
precomposition, the Jacobian-homothety group), hyperbolic sup-norms,
and a Becker-type univalence criterion.  Three independent oracles
cross-validate S_f at any point.

Quick start::

    from harmschwarz import catalog, schwarzian, hyperbolic_sup

    K = catalog("K")                  # the harmonic Koebe map
    schwarzian(K, 0.0)                # -9.5
    hyperbolic_sup(K, "S").value      # 9.5
"""

from . import errors
from .errors import ToolkitError
from .expr import (
    AnalyticFunction,
    ExprFunction,
    eval_jet,
    parse,
    to_text,
)
from .jets import DEFAULT_ORDER, Jet, bivariate_extract
from .maps import (
    AffineMap,
    AntiderivativeFunction,
    HarmonicMap,
    HarmonicMobius,
    MobiusMap,
    affine_compose,
    best_harmonic_mobius,
    catalog,
    catalog_map,
    conjugate,
    disk_automorphism,
    evaluate,
    group_apply,
    map_from_json,
    map_to_json,
    partner_map,
    precompose,
    shear,
)
from .norms import (
    BeckerReport,
    NormReport,
    SearchConfig,
    becker_check,
    becker_lhs,
    finite_norm_compare,
    hyperbolic_sup,
    omega_second_derivative_probe,
)
from .operators import (
    cdo_schwarzian,
    classical_pre_schwarzian,
    classical_schwarzian,
    dbar_pre_schwarzian,
    jacobian,
    lemma1_schwarzian,
    mixed_laplacian_schwarzian,
    pre_schwarzian,
    schwarzian,
    schwarzian_via_jacobian_fd,
    tamanoi_schwarzian,
)
from .quadrature import integrate_segment, integrate_segments

__version__ = "0.1.0"
