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
    MiningTimeout,
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
    permutation_mask,
)
from .report import Report, RunConfig, run_pipeline, write_report
from .search import (
    RootSearchResult,
    SignificanceRecord,
    count_m_of_k,
    find_root,
    score_patterns,
    significant_set,
)
from .stats import (
    ContingencyTable,
    TestResult,
    fisher_pvalue,
    min_attainable_pvalue,
    min_testable_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "ContingencyTable",
    "GraphDatabase",
    "LabelError",
    "LabeledGraph",
    "MinerConfig",
    "MiningOutcome",
    "MiningTimeout",
    "ParseError",
    "Pattern",
    "PermutationPlan",
    "Report",
    "RootSearchResult",
    "RunConfig",
    "SignificanceRecord",
    "TestResult",
    "ValidityError",
    "code_string",
    "count_m_of_k",
    "effective_num_tests",
    "empirical_fwer",
    "find_root",
    "fisher_pvalue",
    "min_attainable_pvalue",
    "min_p_distribution",
    "min_testable_frequency",
    "mine",
    "minimum_code",
    "parse_database",
    "permutation_mask",
    "run_pipeline",
    "score_patterns",
    "serialize_database",
    "significant_set",
    "write_report",
]
