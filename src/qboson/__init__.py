"""Numerical spectral theory of the q-Boson particle system.

Bethe-ansatz eigenfunctions for the q-Boson zero-range process and its
deformations, the transform pair with its partition-indexed expansion over
spectral strings, solvers for the evolution equations, q-TASEP duality
moment formulas, and the Hall-Littlewood / semi-discrete degenerations.
Every theorem-level identity in scope is exposed as a named verification
check; see ``qboson.registry`` and the ``qboson`` command line tool.
"""

from qboson.qcore import (
    CompactFn,
    Partition,
    WeylVector,
    check_q,
    cluster_decompose,
    cq_weight,
    cq_weight_inv,
    partitions_of,
    q_factorial,
    q_pochhammer,
    string_points,
    weyl_vectors_in_box,
)

__version__ = "0.1.0"

__all__ = [
    "CompactFn",
    "Partition",
    "WeylVector",
    "check_q",
    "cluster_decompose",
    "cq_weight",
    "cq_weight_inv",
    "partitions_of",
    "q_factorial",
    "q_pochhammer",
    "string_points",
    "weyl_vectors_in_box",
    "__version__",
]
