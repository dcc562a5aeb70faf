"""One-qubit and canonical two-qubit gate schedules on the two DFS qubits.

``single_qubit_schedule`` realizes exp(i a X) exp(i b Z) exp(i g X) on one
block through the within-block exchange dictionary, identically in both
sectors.  ``canonical_two_qubit_schedule`` realizes
K1 exp(i(a XX + b YY + c ZZ)) K2 with ``trotter.decoupled_evolution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .encoding import LOCAL_TO_PAULI, SpinSector, hamiltonian_from_pauli
from .linalg import real_coefficient
from .schedule import PulseSchedule, PulseStep, _merge_steps
from .trotter import _ITERATIONS, _checked_int, decoupled_evolution

__all__ = ["CanonicalGateSpec", "single_qubit_schedule", "canonical_two_qubit_schedule"]


def _local_step(axis: str, block: int, angle: float) -> PulseStep:
    """exp(i angle X) or exp(i angle Z) on one block's qubit: ``LOCAL_TO_PAULI``'s (12),(13) entry, or (45),(46)."""
    pairs, coeff = LOCAL_TO_PAULI[0]
    offset = 0 if block == 1 else 3
    row = coeff["xz".index(axis)]
    return PulseStep.make({(i + offset, j + offset): angle * c for (i, j), c in zip(pairs, row)})


def _local_factor_steps(factors: Sequence[tuple[str, int, float]], what: Callable[[int], str]) -> list[PulseStep]:
    """Steps of ("x" | "z", block, angle) factors, angle i named what(i); zero angles give no step but are checked."""
    checked = []
    for i, (axis, block, angle) in enumerate(factors):
        if axis not in ("x", "z"):
            raise ValueError(f"local factors must be x or z, got {axis!r}")
        checked.append((axis, _checked_int(block, "block", range(1, 3)), real_coefficient(angle, what(i))))
    return [_local_step(axis, block, angle) for axis, block, angle in checked if angle != 0.0]


def single_qubit_schedule(
    block: int, alpha: float, beta: float, gamma: float, delta: float = 0.0
) -> PulseSchedule:
    """Local gate exp(i d) exp(i a X) exp(i b Z) exp(i g X) on one qubit.

    Realized through the within-block dictionary (X from the pair
    (12),(13) or (45),(46); Z from minus the first local transposition),
    so the action is identical in both sectors.
    """
    block = _checked_int(block, "block", range(1, 3))
    factors = (("x", block, alpha), ("z", block, beta), ("x", block, gamma))
    steps = _local_factor_steps(factors, ("alpha", "beta", "gamma").__getitem__)
    if (delta := real_coefficient(delta, "delta")) != 0.0:
        if steps:
            steps[0] = PulseStep.make(steps[0].coefficients(), steps[0].phase + delta)
        else:
            steps.append(PulseStep.make({}, delta))
    return PulseSchedule(tuple(steps), name=f"local-block{block}", order=1, n=1)


@dataclass(frozen=True)
class CanonicalGateSpec:
    """Canonical two-qubit gate data: K1 exp(i(a XX + b YY + c ZZ)) K2.

    The local factors are sequences of ("x" | "z", block, angle) Pauli
    exponentials, leftmost factor applied last.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    k1: tuple[tuple[str, int, float], ...] = ()
    k2: tuple[tuple[str, int, float], ...] = ()


_INDEPENDENT_ANGLES = (-np.pi / 2, 0.0, np.pi / 2)


def _xx_conjugator(sign: float) -> PulseStep:
    theta = sign * np.pi / 4
    return _merge_steps(_local_step("x", 1, theta), _local_step("x", 2, theta))


def canonical_two_qubit_schedule(
    gate: CanonicalGateSpec, n: int, sector: SpinSector | None = None
) -> PulseSchedule:
    """Schedule for a canonical two-qubit gate via decoupled evolution.

    With ``sector`` given, the entangling exponentials use that sector's
    exchange dictionary and the gate is exact there up to Trotter error.
    With ``sector=None`` the schedule is sector-independent, which
    restricts the canonical angles to multiples of pi/2 (the cross-block
    scaling -3 then shifts the phase by full periods).  The YY factor
    conjugates a ZZ evolution with exp(i pi/4 (XI + IX)).
    """
    n = _checked_int(n, "iteration count", _ITERATIONS)
    angles = [real_coefficient(getattr(gate, name), name) for name in ("alpha", "beta", "gamma")]
    independent = sector is None
    basis_sector = SpinSector.SPIN1 if independent else sector
    if independent:
        for angle in angles:
            if not any(abs(angle - v) <= 1e-12 for v in _INDEPENDENT_ANGLES):
                raise ValueError(
                    "sector-independent mode requires canonical angles in "
                    f"{{-pi/2, 0, pi/2}}; got {angle}"
                )

    steps = _local_factor_steps(gate.k1, "k1[{}] angle".format)
    for angle, word, conjugated in zip(angles, ("XX", "ZZ", "ZZ"), (False, True, False)):
        if angle != 0.0:
            h = hamiltonian_from_pauli({word: 1.0}, basis_sector)
            core = decoupled_evolution(h, angle, n).steps
            if conjugated:
                core = (_xx_conjugator(+1.0), *core, _xx_conjugator(-1.0))
            steps.extend(core)
    steps.extend(_local_factor_steps(gate.k2, "k2[{}] angle".format))
    return PulseSchedule(tuple(steps), name="canonical-gate", order=1, n=n)
