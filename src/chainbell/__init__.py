"""Chained-Bell box systems, adversarial partitions, and exact verification.

Exact-arithmetic construction of chained-Bell non-signalling boxes, the
two-part biased decomposition an adversary can hold against any hash of
the outputs, exhaustive verification of every non-signalling condition,
and the resulting distance-from-uniform of the hashed key.
"""

from .adversary import (
    HashFunction,
    PivotalProfile,
    PivotRecord,
    ZeroCountTree,
    and_function,
    build_attack_partition,
    build_pivotal_profile,
    function_from_hex,
    is_almost_balanced,
    majority_function,
    or_function,
    parse_function_spec,
    pivotal_index,
    pivotal_threshold,
    random_function,
    trivial_strategy,
    xor_function,
)
from .analysis import (
    AttackReport,
    ScanRow,
    distance_details,
    run_attack,
    scan,
    theorem_bound,
)
from .boxes import (
    FLOAT_ATOL,
    BoxParams,
    SinglePairBox,
    allowed_pairs,
    bell_value,
    bias_box,
    build_unbiased_box,
    cross_probability,
    quantum_eps,
)
from .nonsignalling import (
    DEFAULT_EVAL_CAP,
    InfeasibleSizeError,
    NsReport,
    NsViolation,
    check_ab,
    check_subset,
    check_time_ordered,
    materialize,
    replay_violation,
)
from .systems import (
    AttackedSystem,
    BoxProductSystem,
    Partition,
    PartitionReport,
    ProductSystem,
    SystemEvaluator,
    build_product_system,
    verify_partition,
)

__version__ = "0.1.0"
