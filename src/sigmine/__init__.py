"""Significant subgraph mining with family-wise error control.

The pipeline in one line: mine frequent subgraphs, keep those frequent enough
to ever reach significance, and exact-test them at a threshold corrected by
the size of that testable family (or by a permutation-calibrated effective
test count).

Each public name loads its submodule on first use (PEP 562), so that
``import sigmine`` imports no numpy. The CLI relies on this: it must set its
BLAS threading before numpy is first imported, and both of its entry points
import this package first.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "graphs": (
        "GraphDatabase",
        "LabeledGraph",
        "LabelError",
        "ParseError",
        "ValidityError",
        "parse_database",
        "serialize_database",
    ),
    "mining": (
        "MinerConfig",
        "MiningOutcome",
        "Pattern",
        "code_string",
        "mine",
        "minimum_code",
    ),
    "permute": (
        "PermutationPlan",
        "effective_num_tests",
        "empirical_fwer",
        "min_p_distribution",
    ),
    "report": ("Report", "RunConfig", "run_pipeline"),
    "search": (
        "RootSearchResult",
        "SignificanceRecord",
        "find_root",
        "score_patterns",
    ),
    "stats": (
        "min_attainable_pvalue",
        "min_testable_frequency",
        "pvalues_over_support",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
