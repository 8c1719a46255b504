"""Branching schemes for 64-dimensional typical representations of basic
classical Lie superalgebras, and the search for breaking patterns matching
the degeneracy of the standard genetic code."""

from .lie_core import (
    FormalCharacter,
    RootSystem,
    SemisimpleAlgebra,
    build_root_system,
    casimir2,
    irrep_character,
    peel,
    weyl_dimension,
)
from .super_branch import (
    CATALOG,
    branch_to_even,
    build_super,
    catalog_entry,
    drop_abelian_charges,
    is_typical,
    typical_dimension,
)
from .embed_chains import (
    CHAINS,
    REGISTRY,
    apply_chain,
    branch_embedding,
    builtin_registry,
    diagonal_clebsch,
    first_step_distribution,
)
from .phase2 import (
    Couplings,
    Multiplet,
    PhaseOp,
    apply_op,
    distribution_stats,
    from_distribution,
    hamiltonian_eigenvalue,
    phase2_stats,
)
from .search import (
    GENETIC_CODE_TARGET,
    InvalidTargetError,
    apply_plan,
    enumerate_phase2,
    full_search,
    match_target,
    prune,
    solve_freezing,
)

__version__ = "0.1.0"
