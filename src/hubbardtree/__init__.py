"""Kneading sequences, admissibility, tree reconstruction and embeddings."""

__version__ = "0.1.0"

from .admissibility import (
    BranchSpectrumEntry,
    FailureDiagnostic,
    OrbitKind,
    branch_spectrum,
    diagnostics_record,
    evil_arm_count,
    failing_periods,
    fails_for_period,
    is_admissible,
    tame_arm_count,
)
from .atlas import (
    AtlasRow,
    CrossCheckError,
    analyze_sequence,
    embedding_census,
    enumerate_rows,
    star_periodic_sequences,
)
from .embedding import (
    EmbeddedTree,
    EvilOrbitError,
    count_embeddings,
    enumerate_embeddings,
    euler_phi,
    generate_embedding,
    verify_embedding,
)
from .sequences import (
    INFINITY,
    InternalAddress,
    Itinerary,
    KneadingSequence,
    ParseError,
    StructuralError,
    address_to_sequence,
    critical_orbit_itinerary,
    exact_period,
    first_mismatch,
    internal_address,
    mismatch_orbit,
    orbit_contains,
    upper_lower,
)
from .tree import (
    HubbardTree,
    MarkedPoint,
    SpectrumMismatchError,
    arm_permutation,
    build_tree,
    characteristic_point,
    classify_orbits,
    closest_precritical_itinerary,
    lies_between,
    marked_points,
    verify_axioms,
)
from .triods import (
    Branch,
    Middle,
    TriodError,
    TriodResult,
    UnrealizedPointError,
    classify_triod,
)

# the names the README's Library section documents; the rest stay importable
__all__ = [
    "KneadingSequence",
    "internal_address",
    "failing_periods",
    "branch_spectrum",
    "build_tree",
    "classify_orbits",
    "verify_axioms",
    "count_embeddings",
    "enumerate_embeddings",
]
