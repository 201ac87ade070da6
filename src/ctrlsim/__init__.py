"""Simulation toolkit for adding quantum control to unknown operations.

Modules by concern; each name is imported from its module, and the
package itself holds only ``__version__``:

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
