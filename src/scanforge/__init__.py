"""scanforge: one set of prefix-scan kernels reused for computation,
parallel execution, data-flow diagrams, and correctness verification."""

from .kernels import (
    BRENT_KUNG,
    BRENT_KUNG_8,
    SERIAL,
    ContractError,
    ScanKernel,
    get_kernel,
    scan_brent_kung,
    scan_brent_kung_8,
    scan_serial,
    scan_then_fan,
    scan_then_fan_kernel,
)
from .ops import AssocOp, builtin_ops, check_associative
from .render import Diagram, Gate, layout, svg_string
from .runtime import (
    Cluster,
    TaskGraph,
    bench,
    critical_path,
    run_parallel,
    run_virtual,
    speedup_model,
)
from .stores import ListStore, ScanStore
from .tracing import (
    Transaction,
    infer_depths,
    run_traced,
    trace_from_json,
    trace_to_json,
)
from .verify import (
    IDENTITY,
    TOP,
    Range,
    interval_plus,
    verify_parallel,
    verify_race_free,
    verify_serial,
)

__version__ = "0.1.0"
