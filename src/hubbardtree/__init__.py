"""Kneading sequences, admissibility, tree reconstruction and embeddings.

Every name below resolves on first access, importing only the module that
defines it, so ``import hubbardtree.cli`` pays for no layer its command
does not run.
"""

from importlib import import_module

__version__ = "0.1.0"

# the re-exported names, by the module that defines each
_EXPORTS = {
    "admissibility": """BranchSpectrumEntry FailureDiagnostic OrbitKind branch_spectrum
        diagnostics_record evil_arm_count failing_periods fails_for_period is_admissible
        tame_arm_count""",
    "atlas": """AtlasRow analyze_sequence embedding_census enumerate_rows
        star_periodic_sequences""",
    "embedding": """EmbeddedTree EvilOrbitError count_embeddings enumerate_embeddings
        euler_phi generate_embedding verify_embedding""",
    "sequences": """INFINITY CrossCheckError InternalAddress Itinerary KneadingSequence
        ParseError StructuralError address_to_sequence critical_orbit_itinerary
        exact_period first_mismatch internal_address mismatch_orbit orbit_contains
        upper_lower""",
    "tree": """HubbardTree MarkedPoint SpectrumMismatchError arm_permutation build_tree
        characteristic_point classify_orbits closest_precritical_itinerary lies_between
        marked_points verify_axioms""",
    "triods": """Branch Middle TriodError TriodResult UnrealizedPointError
        classify_triod""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

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


def __getattr__(name: str):
    if name in _EXPORTS:  # a layer itself, as `hubbardtree.tree`
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
