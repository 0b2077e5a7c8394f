"""Linear repair schemes for Reed-Solomon codes on subspace evaluation sets.

The package computes repair I/O cost and bandwidth three independent ways
(direct matrix counting, a weight-enumerator identity, exact exponential
sums), evaluates lower bounds, and builds the two scheme families that meet
them.  See README.md for the CLI and the acceptance suite.
"""

from .gf import FieldTower, field_create
from .basis import BasisPair, dual_basis
from .subspace import Subspace
from .rs import RSCode
from .errors import CrossCheckMismatch, RSRepairError
from .scheme import (
    AccessCounter,
    MetricsReport,
    NormalForm,
    RepairScheme,
    load_scheme,
    metrics_direct,
    metrics_expsum,
    metrics_weight,
    normalize,
    repair_matrix,
    repair_node,
    save_scheme,
    transform,
)
from .expsum import CharSum, char_sum, io_cost_expsum, subspace_char_sum, weil_check
from .bounds import (
    bandwidth_lower_bound,
    bmin_bruteforce,
    bmin_literal,
    io_lower_bound,
    r3cond_max_bruteforce,
)
from .constructions import (
    QPolynomial,
    construction1,
    construction2,
    qpoly_annihilator,
)
from .tables import emit_table
from .suites import random_normalized_scheme, run_suite

__all__ = [
    "AccessCounter",
    "BasisPair",
    "CharSum",
    "CrossCheckMismatch",
    "FieldTower",
    "MetricsReport",
    "NormalForm",
    "QPolynomial",
    "RSCode",
    "RSRepairError",
    "RepairScheme",
    "Subspace",
    "bandwidth_lower_bound",
    "bmin_bruteforce",
    "bmin_literal",
    "char_sum",
    "construction1",
    "construction2",
    "dual_basis",
    "emit_table",
    "field_create",
    "io_cost_expsum",
    "io_lower_bound",
    "load_scheme",
    "metrics_direct",
    "metrics_expsum",
    "metrics_weight",
    "normalize",
    "qpoly_annihilator",
    "r3cond_max_bruteforce",
    "random_normalized_scheme",
    "repair_matrix",
    "repair_node",
    "run_suite",
    "save_scheme",
    "subspace_char_sum",
    "transform",
    "weil_check",
]
