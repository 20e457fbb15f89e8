"""Significant subgraph mining with family-wise error control.

The pipeline in one line: mine frequent subgraphs, keep those frequent enough
to ever reach significance, and exact-test them at a threshold corrected by
the size of that testable family (or by a permutation-calibrated effective
test count).
"""

from .graphs import (
    GraphDatabase,
    LabeledGraph,
    LabelError,
    ParseError,
    ValidityError,
    parse_database,
    serialize_database,
)
from .mining import (
    MinerConfig,
    MiningOutcome,
    Pattern,
    code_string,
    mine,
    minimum_code,
)
from .permute import (
    PermutationPlan,
    effective_num_tests,
    empirical_fwer,
    min_p_distribution,
)
from .report import Report, RunConfig, run_pipeline, write_report
from .search import (
    RootSearchResult,
    SignificanceRecord,
    find_root,
    score_patterns,
)
from .stats import (
    min_attainable_pvalue,
    min_testable_frequency,
    pvalues_over_support,
)

__version__ = "0.1.0"

__all__ = [
    "GraphDatabase",
    "LabelError",
    "LabeledGraph",
    "MinerConfig",
    "MiningOutcome",
    "ParseError",
    "Pattern",
    "PermutationPlan",
    "Report",
    "RootSearchResult",
    "RunConfig",
    "SignificanceRecord",
    "ValidityError",
    "code_string",
    "effective_num_tests",
    "empirical_fwer",
    "find_root",
    "min_attainable_pvalue",
    "min_p_distribution",
    "min_testable_frequency",
    "mine",
    "minimum_code",
    "parse_database",
    "pvalues_over_support",
    "run_pipeline",
    "score_patterns",
    "serialize_database",
    "write_report",
]
