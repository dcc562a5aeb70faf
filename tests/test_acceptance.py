"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each test prints a PASS line with the observed worst deviation once its
assertions hold, so a verbose run doubles as a human-readable report.
"""

import numpy as np

from exgates.decouple import decouple_map, decoupler, joint_eigenbasis, local_sums
from exgates.encoding import (
    ALL_PAIRS,
    SpinSector,
    pauli_word,
    projected_rep,
    projector,
    verify_cross_pauli_table,
    verify_local_pauli_table,
)
from exgates.linalg import expi
from exgates.metrics import CNOT, entanglement_fidelity, report, simulate
from exgates.oracle import oracle_fidelity, oracle_projected_rep
from exgates.symrep import Permutation, rep_element, rep_permutation
from exgates.schedule import normalized_time
from exgates.trotter import cancel_negatives, cnot_spin1, cnot_spin_independent, trotter_product

TABLE1 = {
    3: (39, 8.5, 0.99136, 0.00552),
    5: (63, 12.5, 0.99888, 0.00070),
    9: (111, 20.5, 0.99989, 0.00007),
}
TABLE2 = {
    2: (21, 9.8, 0.99849, 0.00067),
    3: (31, 13.8, 0.99970, 0.00014),
    4: (41, 17.8, 0.99990, 0.00004),
}


def _table_check(builder, table):
    worst_f = worst_l = worst_t = 0.0
    for n, (cycles, time, fid, leak) in table.items():
        r = report(builder(n))
        assert r.cycles == cycles, f"n={n}: cycles {r.cycles} != {cycles}"
        assert abs(r.normalized_time - time) <= 0.05
        assert abs(r.fidelity["SPIN1"] - fid) <= 1e-5
        assert abs(r.leakage["SPIN1"] - leak) <= 1e-5
        worst_f = max(worst_f, abs(r.fidelity["SPIN1"] - fid))
        worst_l = max(worst_l, abs(r.leakage["SPIN1"] - leak))
        worst_t = max(worst_t, abs(r.normalized_time - time))
    return worst_f, worst_l, worst_t


def test_criterion_1_table1_reproduction():
    worst_f, worst_l, worst_t = _table_check(cnot_spin_independent, TABLE1)
    print(
        f"PASS criterion 1 (table 1): |dF| <= {worst_f:.2e}, |dL| <= {worst_l:.2e}, "
        f"|dt| <= {worst_t:.3f}, cycles exact"
    )


def test_criterion_2_table2_reproduction():
    worst_f, worst_l, worst_t = _table_check(cnot_spin1, TABLE2)
    print(
        f"PASS criterion 2 (table 2): |dF| <= {worst_f:.2e}, |dL| <= {worst_l:.2e}, "
        f"|dt| <= {worst_t:.3f}, cycles exact"
    )


def test_criterion_3_pauli_dictionaries():
    worst = 0.0
    for sector in SpinSector:
        local = verify_local_pauli_table(sector)
        cross = verify_cross_pauli_table(sector)
        assert all(c.ok for c in local), [c for c in local if not c.ok]
        assert all(c.ok for c in cross), [c for c in cross if not c.ok]
        worst = max(worst, *(c.deviation for c in local + cross))
    print(f"PASS criterion 3 (pauli dictionaries): max dev {worst:.2e} <= 1e-12")


def test_criterion_4_decoupling_identities():
    rng = np.random.default_rng(424242)
    worst_sigma = worst_diag = worst_cross = worst_agree = 0.0
    for sector in SpinSector:
        for sig in local_sums():
            worst_sigma = max(worst_sigma, np.max(np.abs(projected_rep(sig, sector))))
        basis = joint_eigenbasis(sector)
        us = decoupler(sector, "pair")
        if sector is SpinSector.SPIN0:
            want = np.diag([1, 1, 1, 1, -1.0])
            worst_diag = max(worst_diag, np.max(np.abs(basis.T @ us[1] @ basis - want)))
        else:
            wa = np.diag([1, 1, 1, 1, -1, -1, 1, 1, -1.0])
            wb = np.diag([1, 1, 1, 1, 1, 1, -1, -1, -1.0])
            worst_diag = max(
                worst_diag,
                np.max(np.abs(basis.T @ us[1] @ basis - wa)),
                np.max(np.abs(basis.T @ us[2] @ basis - wb)),
            )
        pi = projector(sector)
        pi_perp = np.eye(sector.dim) - pi.T @ pi
        for _ in range(100):
            x = {p: rng.normal() for p in ALL_PAIRS}
            h = rep_element(sector.partition, x)
            dp = decouple_map(h, sector, "pair")
            dw = decouple_map(h, sector, "power")
            worst_cross = max(
                worst_cross,
                np.max(np.abs(pi @ dp @ pi_perp)),
                np.max(np.abs(pi @ dw @ pi_perp)),
            )
            # the two decoupler families implement the same decoupling:
            # identical computational blocks (entrywise equality holds in
            # the five-dimensional sector; see the decisions notes on the
            # spin-1 complement)
            worst_agree = max(worst_agree, np.max(np.abs(pi @ (dp - dw) @ pi.T)))
            if sector is SpinSector.SPIN0:
                worst_agree = max(worst_agree, np.max(np.abs(dp - dw)))
    assert worst_sigma <= 1e-12
    assert worst_diag <= 1e-12
    assert worst_cross <= 1e-12
    assert worst_agree <= 1e-12
    print(
        f"PASS criterion 4 (decoupling): sigma proj {worst_sigma:.2e}, diag {worst_diag:.2e}, "
        f"cross terms {worst_cross:.2e}, pair/power {worst_agree:.2e}"
    )


def test_criterion_5_spin_independence():
    x = {(1, 4): 1.0, (1, 5): -1.0, (2, 4): -1.0, (2, 5): 1.0}
    target = 1j * pauli_word("XX")
    worst = 0.0
    for sector in SpinSector:
        m = expi((3 * np.pi / 4) * projected_rep(x, sector).real)
        worst = max(worst, np.max(np.abs(m - target)))
    assert worst <= 1e-12
    margins = []
    for n in (3, 5, 9):
        r = report(cnot_spin_independent(n))
        assert r.fidelity["SPIN0"] >= r.fidelity["SPIN1"]
        margins.append(r.fidelity["SPIN0"] - r.fidelity["SPIN1"])
    print(
        f"PASS criterion 5 (spin independence): iXX identity dev {worst:.2e}; "
        f"spin0-spin1 fidelity margins {['%.1e' % m for m in margins]}"
    )


def test_criterion_6_negative_cancellation():
    worst_dt = worst_df = worst_dl = 0.0
    for builder, ns in ((cnot_spin_independent, (3, 5, 9)), (cnot_spin1, (2, 3, 4))):
        for n in ns:
            base = builder(n)
            r0 = report(base)
            # all Hamiltonian-step coefficients nonnegative, time up by the
            # canceled magnitude, and fidelity/leakage invariant: the
            # all-transposition sum is central, a pure per-sector phase
            full = cancel_negatives(base)
            for step in full.steps:
                if step.is_cross_block():
                    assert min(step.coeffs) >= 0.0
            worst_dt = max(worst_dt, abs(normalized_time(full) - r0.normalized_time - 1.3))
            r1 = report(full)
            for sector in ("SPIN0", "SPIN1"):
                worst_df = max(worst_df, abs(r1.fidelity[sector] - r0.fidelity[sector]))
                worst_dl = max(worst_dl, abs(r1.leakage[sector] - r0.leakage[sector]))
    assert worst_dt <= 0.05
    assert worst_df <= 1e-5
    assert worst_dl <= 1e-5
    print(
        f"PASS criterion 6 (cancellation): time +1.3 within {worst_dt:.3f}, "
        f"|dF| <= {worst_df:.2e}, |dL| <= {worst_dl:.2e}"
    )


def test_criterion_7_oracle_equivalence():
    worst_rep = 0.0
    for sector in SpinSector:
        for pair in ALL_PAIRS:
            x = {pair: 1.0}
            worst_rep = max(
                worst_rep,
                np.max(np.abs(oracle_projected_rep(x, sector) - projected_rep(x, sector))),
            )
    assert worst_rep <= 1e-10
    worst_fl = 0.0
    schedules = [cnot_spin_independent(n) for n in (3, 5, 9)] + [
        cnot_spin1(n) for n in (2, 3, 4)
    ]
    for schedule in schedules:
        r = report(schedule)
        for sector in SpinSector:
            f, leak = oracle_fidelity(schedule, sector, CNOT)
            worst_fl = max(
                worst_fl,
                abs(f - r.fidelity[sector.name]),
                abs(leak - r.leakage[sector.name]),
            )
    assert worst_fl <= 1e-8
    print(
        f"PASS criterion 7 (oracle): transposition dev {worst_rep:.2e} <= 1e-10, "
        f"end-to-end F/L dev {worst_fl:.2e} <= 1e-8 on all six schedules"
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(88)
    worst_hom = 0.0
    for _ in range(200):
        a = Permutation(tuple(int(v) for v in rng.permutation(6) + 1))
        b = Permutation(tuple(int(v) for v in rng.permutation(6) + 1))
        for sector in SpinSector:
            shape = sector.partition
            lhs = rep_permutation(shape, a * b)
            rhs = rep_permutation(shape, a) @ rep_permutation(shape, b)
            worst_hom = max(worst_hom, np.max(np.abs(lhs - rhs)))
    assert worst_hom <= 1e-12

    total = {p: 1.0 for p in ALL_PAIRS}
    worst_central = 0.0
    for sector, c in ((SpinSector.SPIN0, 3.0), (SpinSector.SPIN1, 5.0)):
        m = rep_element(sector.partition, total)
        worst_central = max(worst_central, np.max(np.abs(m - c * np.eye(sector.dim))))
    assert worst_central <= 1e-12

    a = {(1, 2): 0.9, (3, 4): -0.4}
    b = {(2, 3): 0.7, (4, 5): 0.5}
    sector = SpinSector.SPIN1
    exact = expi(rep_element(sector.partition, {**a, **b}))

    def err(n):
        return np.linalg.norm(simulate(trotter_product([a, b], 1.0, n, 1), sector) - exact, 2)

    ratio = err(8) / err(16)
    assert ratio >= 3.5

    g = simulate(cnot_spin_independent(2), SpinSector.SPIN1)
    f0 = entanglement_fidelity(g, CNOT, SpinSector.SPIN1)
    worst_phase = max(
        abs(entanglement_fidelity(np.exp(1j * t) * g, CNOT, SpinSector.SPIN1) - f0)
        for t in np.linspace(-np.pi, np.pi, 17)
    )
    assert worst_phase <= 1e-12
    print(
        f"PASS criterion 8 (properties): homomorphism {worst_hom:.2e}, central {worst_central:.2e}, "
        f"trotter ratio {ratio:.2f} >= 3.5, phase invariance {worst_phase:.2e}"
    )
