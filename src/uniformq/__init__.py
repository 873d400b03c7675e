"""uniformq: exact-arithmetic toolkit for uniform structures, dual
adjacency matrix candidates and Q-polynomial certification on bipartite
graphs.

Scalars are arbitrary-precision rationals and quadratic-extension
numbers a + c*sqrt(m); every computation in the package is exact, with
no floating point anywhere.
"""

from .candidate import (
    DualCandidate,
    SearchResult,
    candidate_search,
    closed_form_theta,
    entrywise_oracle,
    verify_relation,
    verify_tridiagonal,
)
from .generators import (
    FormSpec,
    SizeCapError,
    dual_polar,
    expected_intersection_numbers,
    hamming,
    hypercube,
    intersection_numbers,
)
from .graphs import (
    BaseContext,
    Graph,
    LFRSplit,
    bfs_context,
    format_edge_list,
    full_bipartite,
    lfr_split,
    parse_edge_list,
    walk_shape_count,
)
from .linalg import (
    ExactMatrix,
    nullspace,
    rank,
    solve_linear,
)
from .poly import Poly, poly_gcd
from .scalars import (
    QuadExt,
    exact_sqrt,
    quad,
    rational_power,
    scalar_from_json,
    scalar_to_json,
    squarefree_decompose,
)
from .spectra import (
    Spectrum,
    check_q_ordering,
    closed_form_spectrum,
    eigenspace_bases,
    even_odd_ordering,
    idempotent_pattern,
    krawtchouk_charpoly,
    module_eigenvalues,
    module_pattern,
    natural_ordering,
    odd_even_ordering,
    spectrum_exact,
    verify_krat_scaling,
)
from .uniform import (
    Decomposition,
    TModule,
    UniformParams,
    closed_form_x,
    decompose_modules,
    fit_uniform,
    fit_uniform_constant,
    solve_x_scalars,
    validate_parameter_matrix,
    verify_uniform,
)

__version__ = "1.0.0"
kernel_backend = "python"  # the only kernel backend
