"""podforge: exact construction and certification of line-symmetric mobile
infinity-pods via projective isometry/leg models and their sphere-condition
duality."""

from .fields import GF, QQ, FieldError, field_from_descriptor
from .rings import DEGREVLEX, Polynomial, RingContext, RingMap
from .linalg import matrix_kernel
from .groebner import (
    BudgetExceeded,
    HilbertData,
    Ideal,
    buchberger,
    eliminate,
    hilbert_data,
    linear_part,
    normal_form,
    saturate,
)
from .models import (
    IsometryPoint,
    Leg,
    LegPoint,
    euler_rho,
    ideal_X,
    ideal_X_inv,
    ideal_X_p,
    ideal_X_pinv,
    ideal_Y,
    ideal_Y_inv,
    ideal_Y_p,
    ideal_Y_pinv,
    ideal_Z_inv,
    project_model,
)
from .duality import (
    BilinearForm,
    ComplexLegError,
    DualityError,
    LinearSubspace,
    bsc17,
    bsc_planar10,
    dual_space,
    leg_to_point,
    point_to_leg,
    recover_leg_pairs,
    sbsc11,
    sbsc_planar7,
    sphere_value,
)
from .constructions import (
    ConstructionSeed,
    DegenerateSeedError,
    InfinityPodBundle,
    SymmetroidPencil,
    base_curve,
    conic_product_legs,
    create_infinity_pod,
    cubic_line_symmetric,
    duporcq_sixth_leg,
    hexapod_leg_curve,
    symmetroid_pencil,
)
from .verify import (
    PodReport,
    check_pod,
    real_configurations,
    real_legs,
    sample_curve_points,
)

__version__ = "0.1.0"
