"""Group-averaging symmetry reduction of CCR algebras and quasi-free states.

Linear scalar fields are represented by Gaussian positive-frequency
amplitudes; the package provides the symplectic form and vacuum scalar
product, their averages over a compact rotation group and over the
non-compact group of discrete x-translations, y-boosts and z-translations
of the massless theory, the projections to the reduced phase spaces, and
the identification of the non-compact reduction with the mode-sequence
forms of the flat Gowdy-type model.
"""

from .averaging import (
    AverageResult,
    average_bform_bhp_direct,
    average_bform_bhp_gave,
    average_bform_bhp_reduced,
    average_bform_circle,
    average_field_bhp,
    average_form_circle,
    bhp_reduced_integrand,
    poisson_check,
    substitution_check,
    zero_mode_divergence_probe,
)
from .corpus import generate_corpus, load_corpus
from .errors import (
    CcrReduceError,
    DomainError,
    GroupMismatchError,
    MassMismatchError,
    NegativeFormError,
    NonSymplecticError,
    QuadratureError,
    ZeroModeDivergenceError,
    ZeroModeUndefinedError,
)
from .forms import (
    FormValue,
    WeylWord,
    apply_A,
    bform,
    commutator_check,
    mu,
    omega,
    qf_bound_check,
    state_value,
    weyl_identity,
    weyl_multiply,
    weyl_star,
)
from .groups import (
    BHPElement,
    RotationElement,
    apply_group,
    compose,
    inverse,
)
from .modes import (
    FieldVector,
    GaussianPacket,
    TransformedPacket,
    add,
    evaluate_amplitude,
    evaluate_field,
    field_from_json,
    field_to_json,
    scale,
)
from .quadrature import QuadratureConfig
from .reduction import (
    AxisymmetricAmplitude,
    GowdySolution,
    ReducedSequence,
    axisym_domain,
    gowdy_forms,
    gowdy_from_sequence,
    gowdy_value,
    null_space_analysis,
    project_axisymmetric,
    project_bhp,
    reduced_forms_axisym,
    reduced_forms_bhp,
    transform_zero_mode,
    zero_mode_symplectic_map,
)
from .specfun import (
    SpecialFunctionResult,
    bessel_j0,
    bessel_y0,
    hankel2_0,
    hankel2_0_integral,
)

__version__ = "0.1.0"
