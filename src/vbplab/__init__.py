"""Online graph coloring / vector bin packing reduction laboratory.

Exact small-instance oracles (chromatic number, fractional chromatic
number, optimal vector packing), the coloring -> packing reductions that
tie them together, blow-up ("copies") colorings, the randomized
pool-sampling simulation, instance generators (crown graphs among them),
and a verification harness. Everything is pure Python; the
branch-and-bound searches behind the exact oracles live in vbplab.kernels.
"""

__version__ = "0.1.0"

from .copies import (
    CopiesInstance,
    GreedyCcp,
    blow_up_explicit,
    check_sandwich,
    chromatic_number_copies_exact,
    fractional_coloring_from_copies,
    greedy_online_ccp,
    validate_copies_coloring,
)
from .errors import InputError, ProtocolError, ResourceLimitError
from .generators import (
    all_connected_graphs,
    all_graphs,
    gen_complete,
    gen_crown,
    gen_cycle,
    gen_empty,
    gen_gnp,
    gen_path,
)
from .graphs import (
    FractionalColoring,
    Graph,
    chromatic_number_exact,
    events_from_graph,
    fractional_chromatic_exact,
    graph_from_edges,
    greedy_online_coloring,
    is_independent_set,
    validate_coloring,
    validate_fractional_coloring,
)
from .pool import (
    fail_probability_bound,
    monte_carlo_verify,
    run_algorithm_b,
    sampling_probability,
)
from .reductions import (
    VbpBackedCcp,
    ccp_to_vbp,
    coloring_to_vbp,
    packing_to_copies_coloring,
    reduce_copies,
    reduce_graph,
)
from .vbp import (
    Bin,
    FirstFitPacker,
    PackingState,
    VbpInstance,
    first_fit_online,
    lower_bound,
    make_instance,
    make_item,
    opt_exact,
    validate_packing,
)
from .verify import run_verification_suite
