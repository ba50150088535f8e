"""Yes-no Bloom filters.

A yes-no Bloom filter splits its m bits into a classic Bloom "yes" filter
and r small "no" filters that record the yes-filter's known false positives
among the queries the deployment will actually see. Queries pass through
both stages; the no stage cancels recorded false positives while a
construction-time guard keeps member answers exact.
"""

from .analysis import (
    FilterShape,
    PrResult,
    bit_zero_prob,
    expected_fp_count,
    f_E_single_no_filter,
    fp_prob_approx,
    fp_prob_exact,
    pr_E,
    pr_E_given_not_S,
    pr_false_positive,
    pr_positive,
)
from .bitcore import (
    MODE_DOUBLE,
    MODE_RANDOM,
    BloomFilter,
    HashFamily,
    derive_seed,
)
from .yesno import (
    Classification,
    ConstructionReport,
    ElementSketch,
    QueryResult,
    Sketcher,
    YesNoFilter,
    YesNoParams,
)

__all__ = [
    "HashFamily", "BloomFilter", "derive_seed",
    "MODE_RANDOM", "MODE_DOUBLE",
    "FilterShape", "PrResult", "bit_zero_prob", "fp_prob_exact",
    "fp_prob_approx", "pr_positive", "pr_false_positive", "pr_E",
    "pr_E_given_not_S", "f_E_single_no_filter", "expected_fp_count",
    "YesNoParams", "ElementSketch", "Sketcher", "QueryResult",
    "ConstructionReport", "Classification", "YesNoFilter",
]

__version__ = "0.1.0"
