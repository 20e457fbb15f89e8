"""The public surface, pinned.

A failure here means a public name or a result field changed. Make the
change deliberately, update these lists and write it up in CHANGES.md.
"""

from dataclasses import fields

import pytest

import sigmine
from sigmine.search import TraceEntry

EXPORTED = [
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
]

FIELDS = {
    sigmine.Pattern: ("code", "occurrences", "x", "x_prime"),
    sigmine.MiningOutcome: ("patterns",),
    sigmine.MinerConfig: ("min_frequency", "max_vertices", "count_singletons"),
    TraceEntry: ("sigma", "budget", "status", "emitted", "millis"),
    sigmine.RootSearchResult: (
        "status", "min_testable_frequency", "root_frequency", "testable", "trace",
    ),
    sigmine.SignificanceRecord: ("pattern", "p_value", "min_p", "significant", "code_string"),
    sigmine.Report: ("summary", "records", "search", "min_p_samples"),
    sigmine.RunConfig: (
        "input", "labels", "alpha", "tail", "strategy", "max_vertices", "correction",
        "permutations", "fwer_permutations", "seed", "format", "count_singletons",
        "bf_timeout",
    ),
    sigmine.PermutationPlan: ("iterations", "seed"),
}


def test_exported_names():
    assert sigmine.__all__ == EXPORTED
    for name in EXPORTED:
        assert hasattr(sigmine, name)
    # the names load on first use, so star-import and dir() must see them too
    star = {}
    exec("from sigmine import *", star)
    assert set(EXPORTED) <= set(star)
    assert set(EXPORTED) <= set(dir(sigmine))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_result_and_config_fields(cls):
    assert tuple(f.name for f in fields(cls)) == FIELDS[cls]
