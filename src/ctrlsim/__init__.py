"""Simulation toolkit for adding quantum control to unknown operations.

Subpackages by concern:

* :mod:`ctrlsim.hilbert` - composite spaces, states, operators,
  subsystem and direct-sum embeddings, fidelities, partial trace, Haar
  sampling.
* :mod:`ctrlsim.photonic` - single-photon interferometers: the control
  and order-control networks, the monitored (collapsing) device, the
  two-photon product construction.
* :mod:`ctrlsim.ion` - two trapped ions with a shared vibrational
  mode: ideal pulse maps and the control / order-control sequences.
* :mod:`ctrlsim.nogo` - fixed-circuit search showing the strict
  circuit wiring cannot reach the controlled target for unknown
  operations, while the direct-sum constructions can.
* :mod:`ctrlsim.cli` - reporting front end (``ctrlsim run|nogo|emit-scheme``).
"""

__version__ = "0.1.0"

from .hilbert import (
    DEFAULT_TOL,
    DensityMatrix,
    DirectSumBlock,
    HilbertSpace,
    Operator,
    StateVector,
    basis_state,
    fidelity_mixed,
    fidelity_pure,
    haar_unitary,
    partial_trace,
    random_unit_vector,
    subspace_embed,
    subsystem_embed,
)

__all__ = [
    "DEFAULT_TOL",
    "DensityMatrix",
    "DirectSumBlock",
    "HilbertSpace",
    "Operator",
    "StateVector",
    "__version__",
    "basis_state",
    "fidelity_mixed",
    "fidelity_pure",
    "haar_unitary",
    "partial_trace",
    "random_unit_vector",
    "subspace_embed",
    "subsystem_embed",
]
