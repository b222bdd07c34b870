"""scanforge: one set of prefix-scan kernels reused for computation,
parallel execution, data-flow diagrams, and correctness verification.

The package root holds the names of README's library sketch, the entry
points that the benchmark calls there, and ContractError. Every other
public name lives in its module: kernels, ops, stores, runtime, tracing,
render or verify."""

from .kernels import ContractError, get_kernel, scan_brent_kung
from .ops import builtin_ops
from .render import layout, svg_string
from .runtime import bench, run_parallel, run_virtual, speedup_model
from .stores import ListStore
from .tracing import infer_depths, run_traced
from .verify import verify_parallel, verify_serial

__version__ = "0.1.0"
