"""Non-abelian q-tensor and q-exterior products of Lie algebras, exactly.

Finitely presented Lie algebras over Z and Z/m, their q-tensor and
q-exterior squares and ideal products, the six centers at each q, and the
capability decision procedures -- all in arbitrary-precision integer
arithmetic through a single Smith-normal-form pipeline.
"""

__version__ = "0.1.0"

from lieq.capability import (  # noqa: F401
    center_report,
    coincidence_check,
    ellis_centers,
    exterior_center,
    is_q_capable,
    is_strongly_q_capable,
    tensor_center,
)
from lieq.exactlin import (  # noqa: F401
    FpModule,
    IntMatrix,
    ModuleHom,
    Submodule,
    is_free_over,
    quotient,
    snf,
)
from lieq.io_catalog import Catalog, load, parse, serialize, write_report  # noqa: F401
from lieq.liealg import (  # noqa: F401
    Ideal,
    LieAlgebra,
    center,
    derivations,
    hash_product,
    inner_q_derivations,
    is_q_perfect,
    lie_algebra,
    q_center,
    quotient_algebra,
    validate,
)
from lieq.qtensor import (  # noqa: F401
    check_brace_identity,
    curly_image,
    gamma,
    product_action,
    q_exterior_product,
    q_tensor_product,
    xi,
)
