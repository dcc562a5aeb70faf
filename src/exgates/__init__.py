"""Exchange-only entangling gates for three-spin DFS logical qubits.

A real combination of exchange interactions is a pair map: a dict from
transposition (i, j), 1 <= i, j <= 6, to its real coefficient.  The
schedule builders, ``trotter_product`` and the ``*projected_rep`` and
``rep_element`` functions take one; representation matrices come back as
plain arrays, read-only where they are cached.

Submodules:

* ``symrep``   - partitions, tableaux, Young's orthogonal form, pair-map sums
* ``encoding`` - computational-basis embeddings and Pauli dictionaries
* ``decouple`` - block sums, decoupler unitaries, decoupling average
* ``schedule`` - pulse steps and schedules, their run and numeric forms
* ``trotter``  - product formulas, CNOT constructions, consolidation, files
* ``gates``    - one-qubit and canonical two-qubit gate schedules
* ``products`` - product plans of repeated schedules, for the evolve
* ``metrics``  - simulation, fidelity, leakage, benchmark tables
* ``oracle``   - independent 64-dimensional physical-space validation
* ``cli``      - command-line front end
"""

from .encoding import SpinSector
from .gates import CanonicalGateSpec, canonical_two_qubit_schedule, single_qubit_schedule
from .metrics import CNOT, SynthesisReport, entanglement_fidelity, leakage, report, simulate
from .schedule import PulseSchedule, PulseStep, normalized_time
from .symrep import Partition, Permutation, StandardTableau
from .trotter import (
    cancel_negatives,
    cnot_spin1,
    cnot_spin_independent,
    consolidate,
    decoupled_evolution,
    trotter_product,
)

__version__ = "0.1.0"

__all__ = [
    "SpinSector",
    "CNOT",
    "SynthesisReport",
    "entanglement_fidelity",
    "leakage",
    "report",
    "simulate",
    "Partition",
    "Permutation",
    "StandardTableau",
    "CanonicalGateSpec",
    "PulseSchedule",
    "PulseStep",
    "cancel_negatives",
    "canonical_two_qubit_schedule",
    "cnot_spin1",
    "cnot_spin_independent",
    "consolidate",
    "decoupled_evolution",
    "normalized_time",
    "single_qubit_schedule",
    "trotter_product",
    "__version__",
]
