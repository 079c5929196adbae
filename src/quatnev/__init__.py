"""quatnev — quaternionic Nevanlinna theory at desk scale.

A numerical library and CLI for slice-regular/semiregular function theory
over the quaternions: left polynomials and semiregular rationals under the
*-product, total-order zero/pole divisors, the corrected Jensen formula,
and the Nevanlinna functions N, m, H, T with Monte-Carlo spherical
integration.
"""

from .quat_core import (
    CHUNK,
    DivisionByZero,
    Quaternion,
    SliceComplex,
    SphereSampler,
    mul,
)
from .star_poly import (
    GL2H,
    DegenerateTransform,
    EvalAtPole,
    LeftPoly,
    RealPoly,
    RealPointDegenerate,
    SemiregularRational,
    UndefinedAtZeroPole,
    ZeroFunctionReciprocal,
    corollary_decomposition_check,
    linear_fractional,
    spherical_conjugate,
    spherical_derivative,
    star_eval_identity_check,
    star_mul,
)
from .divisor import (
    BoundaryDivisor,
    SphereDivisor,
    UnbalancedDivisor,
    ZeroCenter,
    ZeroPolynomial,
    analytic_characterization_check,
    angular_identity_check,
    angular_term,
    complex_roots,
    jensen_kernel,
    N_integrated,
    N_via_unintegrated,
    total_order_divisor,
)
from .sph_integral import (
    IntegratorConfig,
    SphericalMean,
    TooManyRejections,
    mean_columns,
)
from .nevanlinna import (
    CenterIsZeroOrPole,
    JensenReport,
    NevanlinnaProfile,
    admissible_radii,
    characteristic,
    characteristic_algebra_suite,
    counting_arbiter,
    harmonic_remainder,
    mpb_defect,
    n_bound_check,
    proximity,
    verify_fmt,
    verify_jensen,
)

__version__ = "0.1.0"
