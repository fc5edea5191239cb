"""Exact divisor calculus behind the classification of Gorenstein Fano
threefolds whose anticanonical system has base points.

Everything is integer arithmetic: linear-system dimensions and
intersection numbers on rational normal scrolls, Hirzebruch-surface
divisor classes, the elliptic-pencil lattice on the anticanonical K3,
weighted Hilbert series with Riemann-Roch counts, branch-divisor
degenerations of anticanonical double covers, blowup degree chains,
and the thirteen-case classification table that ties them together.

The package namespace is lazy: ``import fanobase`` imports no
submodule, and each submodule is imported on first use, so a process that
needs one kernel module pays for that module only.  A public name is read
from its home module on every access and never stored here, so a name
rebound there (patched, traced, restored) reads the same here.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module of every public name
_EXPORTS = {
    "blowup": (
        "BlowupStep", "NormalBundle", "blowup_degree", "cone_case_normal_bundle",
        "decomposition_fiber_coeff", "exceptional_surface_index", "product_degree",
    ),
    "classify": (
        "CaseVerdict", "CheckResult", "ClassificationCase", "PruneKind", "case_checks",
        "cone_case", "enumerate_cases", "prune", "verify_case",
    ),
    "cover": (
        "BranchReport", "DoubleCoverSpec", "Verdict", "analyze_cover",
        "branch_for_taut_anticanonical", "cover_degree",
    ),
    "errors": (
        "ArityMismatch", "BandTooWide", "CheckFailure", "EmptySystem", "FanobaseError",
        "Inconsistent", "IndexOutOfRange", "InvalidDegree", "InvalidM", "ModelTooLarge",
        "NegativeDegree", "NegativeTwist", "NoSection", "NonIntegralChi", "NotEffectiveShape",
        "NotElephantShape", "NotRigid", "OutOfRange", "RankMismatch", "SurfaceMismatch",
        "TooFewSummands", "WrongDimension", "WrongRank", "WrongSurface",
    ),
    "hirzebruch": (
        "SurfaceClass", "canonical_surface_class", "forced_minimal_decomposition",
        "from_scroll", "genus", "intersect2", "minimal_section", "to_scroll",
    ),
    "k3pencil": (
        "PencilClass", "base_locus_dimension", "blowup_section_reduce", "cover_pullback",
        "dot", "fano_degree", "saint_donat_form", "square",
    ),
    "report": ("Report", "build_report"),
    "scroll": (
        "INFINITE", "DivisorClass", "Scroll", "canonical_class", "fiber_multiplicity_at",
        "fixed_component_multiplicity", "h0", "intersect", "minimal_degree_data",
        "monomial_support", "restrict_to_subscroll", "support_size",
    ),
    "wps": ("WeightedCI", "anticanonical_degree", "hilbert_coeffs", "infer_ring", "rr_chi"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Read a public name from its home module, importing that module on first use."""
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
