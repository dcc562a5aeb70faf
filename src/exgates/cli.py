"""Command-line front end: verify, tables, synthesize, simulate."""

from __future__ import annotations

import argparse
import os
import random
import sys

import numpy as np

from . import decouple, encoding, metrics, oracle, trotter
from .encoding import CheckResult, SpinSector
from .linalg import max_abs
from .schedule import pair_stack
from .symrep import Permutation, rep_adjacent, rep_element, rep_permutation, standard_tableaux

# Irrep dimension, and the constant the all-transposition sum acts as, per sector.
_SECTOR_FACTS = {SpinSector.SPIN0: (5, 3.0), SpinSector.SPIN1: (9, 5.0)}
# Largest |dF| or |dL| between the oracle and the irrep scores that passes.
_ORACLE_TOL = 1e-8
# Diagonals of the pair decouplers Ua and Ub in the joint eigenbasis, per sector.
_DECOUPLER_DIAGONALS = {
    SpinSector.SPIN0: ((1, 1, 1, 1, -1), (1, 1, 1, 1, -1)),
    SpinSector.SPIN1: ((1, 1, 1, 1, -1, -1, 1, 1, -1), (1, 1, 1, 1, 1, 1, -1, -1, -1)),
}


def _check(name: str, deviation: float, tol: float = 1e-12) -> CheckResult:
    return CheckResult(name, float(deviation), tol)


def _suite_symrep() -> list[CheckResult]:
    checks = []
    rng = random.Random(2024)
    for sector in SpinSector:
        shape = sector.partition
        want, central = _SECTOR_FACTS[sector]
        dim = len(standard_tableaux(shape))
        checks.append(_check(f"dim {shape} = {want}", abs(dim - want), 0))
        worst = 0.0
        # 50 random pairs (a, b); only .random() keys, a stream Python keeps across versions
        perms = [Permutation(tuple(sorted(range(1, 7), key=lambda _: rng.random()))) for _ in range(100)]
        for a, b in zip(perms[::2], perms[1::2]):
            lhs = rep_permutation(shape, a * b)
            rhs = rep_permutation(shape, a) @ rep_permutation(shape, b)
            worst = max(worst, max_abs(lhs - rhs))
        checks.append(_check(f"homomorphism on {shape} (50 random pairs)", worst))
        worst_inv = 0.0
        for i in range(1, 6):
            m = rep_adjacent(shape, i)
            worst_inv = max(
                worst_inv,
                max_abs(m @ m - np.eye(dim)),
                max_abs(m - m.T),
            )
        checks.append(_check(f"adjacent reps on {shape} are symmetric involutions", worst_inv))
        m = rep_element(shape, dict.fromkeys(encoding.ALL_PAIRS, 1.0))
        checks.append(
            _check(
                f"all-transposition sum on {shape} = {central:g} I",
                max_abs(m - central * np.eye(dim)),
            )
        )
    return checks


def _suite_encoding() -> list[CheckResult]:
    checks = []
    y_words = [encoding.pauli_word(w).conj().T for w in ("YI", "IY", "YX", "XY", "YZ", "ZY", "YY")]
    for sector in SpinSector:
        pi = encoding.projector(sector)
        checks.append(
            _check(f"{sector.name} computational basis orthonormal", max_abs(pi @ pi.T - np.eye(4)))
        )
        checks.extend(encoding.verify_local_pauli_table(sector))
        checks.extend(encoding.verify_cross_pauli_table(sector))
        worst_y = 0.0
        for pair in encoding.CROSS_PAIRS:
            p = encoding.projected_rep({pair: 1.0}, sector)
            for y in y_words:
                worst_y = max(worst_y, abs(np.trace(y @ p) / 4))
        checks.append(_check(f"{sector.name} cross projections have no Y component", worst_y))
    return checks


def _suite_decouple() -> list[CheckResult]:
    checks = []
    sigma_a, sigma_b = decouple.local_sums()
    for sector in SpinSector:
        for name, sig in (("sigma_a", sigma_a), ("sigma_b", sigma_b)):
            checks.append(_check(f"{sector.name} projected {name} = 0", max_abs(encoding.projected_rep(sig, sector))))
        basis = decouple.joint_eigenbasis(sector)
        pair = decouple.decoupler(sector, "pair")[1:3]
        for name, u, diag in zip(("Ua", "Ub"), pair, _DECOUPLER_DIAGONALS[sector]):
            checks.append(
                _check(
                    f"{sector.name} {name} = diag({','.join(map(str, diag))})",
                    max_abs(basis.T @ u @ basis - np.diag(diag)),
                )
            )
        u = decouple.decoupler(sector, "power")[1]
        checks.append(_check(f"{sector.name} U^4 = 1", max_abs(np.linalg.matrix_power(u, 4) - np.eye(sector.dim))))
        pi = encoding.projector(sector)
        checks.append(_check(f"{sector.name} U acts as identity on computational subspace",
                             max_abs(pi @ u @ pi.T - np.eye(4))))
        pi_perp = np.eye(sector.dim) - pi.T @ pi
        # D is linear and the 15 transpositions span every exchange Hamiltonian,
        # so the three claims checked on them hold for every H
        h = pair_stack(sector)
        dp = decouple.decouple_map(h, sector, "pair")
        dw = decouple.decouple_map(h, sector, "power")
        worst_cross = max(max_abs(pi @ d @ pi_perp) for d in (dp, dw))
        worst_block = max_abs(pi @ (dp - dw) @ pi.T)
        worst_idem = max_abs(decouple.decouple_map(dp, sector, "pair") - dp)
        checks.append(_check(f"{sector.name} D(H) computational cross terms vanish (15 transpositions)", worst_cross))
        checks.append(_check(f"{sector.name} pair/power agree on computational block", worst_block))
        checks.append(_check(f"{sector.name} D idempotent", worst_idem))
    return checks


def _oracle_deltas(schedule, rep: metrics.SynthesisReport, sectors, target: np.ndarray):
    """Per sector, (sector, |dF|, |dL|) of the oracle's scores against the irrep scores in ``rep``."""
    for sector in sectors:
        f, leak = oracle.oracle_fidelity(schedule, sector, target)
        yield sector, abs(f - rep.fidelity[sector.name]), abs(leak - rep.leakage[sector.name])


def _suite_oracle() -> list[CheckResult]:
    checks = []
    sigma_a, sigma_b = decouple.local_sums()
    for sector in SpinSector:
        worst = 0.0
        for pair in encoding.ALL_PAIRS:
            x = {pair: 1.0}
            worst = max(
                worst,
                max_abs(
                    oracle.oracle_projected_rep(x, sector)
                    - encoding.projected_rep(x, sector)
                ),
            )
        checks.append(_check(f"{sector.name} oracle vs irrep, all 15 transpositions", worst, 1e-10))
        phi = oracle.logical_frame(sector)
        checks.append(_check(f"{sector.name} frame orthonormal", max_abs(phi @ phi.T - np.eye(4))))
        for name, sig in (("sigma_a", sigma_a), ("sigma_b", sigma_b)):
            checks.append(
                _check(
                    f"{sector.name} frame annihilated by {name}",
                    max_abs(oracle.oracle_projected_rep(sig, sector)),
                )
            )
        total = dict.fromkeys(encoding.ALL_PAIRS, 1.0)
        c = _SECTOR_FACTS[sector][1]
        checks.append(
            _check(
                f"{sector.name} frame central constant {c:g}",
                max_abs(oracle.oracle_projected_rep(total, sector) - c * np.eye(4)),
            )
        )
    for schedule in (trotter.cnot_spin_independent(3), trotter.cnot_spin1(2)):
        rep = metrics.report(schedule)
        for sector, df, dl in _oracle_deltas(schedule, rep, SpinSector, metrics.CNOT):
            checks.append(
                _check(f"{schedule.name}(n={schedule.n}) {sector.name} oracle F/L match", max(df, dl), _ORACLE_TOL)
            )
    return checks


_SUITES = {
    "symrep": _suite_symrep,
    "encoding": _suite_encoding,
    "decouple": _suite_decouple,
    "oracle": _suite_oracle,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        print(f"[suite {name}]")
        for check in _SUITES[name]():
            status = "PASS" if check.ok else "FAIL"
            print(f"  {status}  {check.name}  (max dev {check.deviation:.3e}, tol {check.tol:.0e})")
            failed += 0 if check.ok else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _cmd_tables(args) -> int:
    rows = metrics.table_rows(args.which)
    if args.cancel_negatives:
        rows = rows + metrics.table_rows(args.which, cancel=True)
    renderer = {
        "md": metrics.render_markdown,
        "csv": metrics.render_csv,
        "json": metrics.render_json,
    }[args.format]
    print(renderer(rows))
    return 0


def _cmd_synthesize(args) -> int:
    if args.mode == "independent":
        schedule = trotter.cnot_spin_independent(args.n, order=args.order)
    elif args.order != 1:
        raise ValueError("--mode spin1 builds a first-order schedule only; use --order 1")
    else:
        schedule = trotter.cnot_spin1(args.n)
    if args.cancel_negatives:
        schedule = trotter.cancel_negatives(schedule)
    out = args.out or f"cnot-{args.mode}-n{args.n}.json"
    try:
        trotter.save_schedule(schedule, out)
    except OSError as exc:
        print(f"cannot write schedule: {exc}", file=sys.stderr)
        return 1
    rep = metrics.report(schedule)
    print(f"wrote {out}")
    _print_report(rep, SpinSector)
    return 0


def _print_report(rep: metrics.SynthesisReport, sectors) -> None:
    print(
        f"{rep.name} n={rep.n}: cycles {rep.cycles}, time {rep.normalized_time:.1f} "
        f"(benchmark {metrics.FONG_WANDZURA_CYCLES} cycles, {metrics.FONG_WANDZURA_TIME})"
    )
    for sector in sectors:
        print(
            f"  {sector.name}: fidelity {rep.fidelity[sector.name]:.5f}, "
            f"leakage {rep.leakage[sector.name]:.5f}"
        )
    if rep.negative_local_steps:
        print(f"  note: {rep.negative_local_steps} local step(s) carry negative coefficients")


def _cmd_simulate(args) -> int:
    try:
        schedule = trotter.load_schedule(args.schedule)
    except OSError as exc:
        print(f"cannot read schedule: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # invalid JSON (JSONDecodeError) or schedule contents
        print(f"malformed schedule JSON ({args.schedule}): {exc}", file=sys.stderr)
        return 2
    target = metrics.CNOT if args.target == "cnot" else np.eye(4, dtype=complex)
    sectors = {
        "0": [SpinSector.SPIN0],
        "1": [SpinSector.SPIN1],
        "both": list(SpinSector),
    }[args.sector]
    rep = metrics.report(schedule, target)
    _print_report(rep, sectors)
    if not args.oracle:
        return 0
    worst = 0.0
    for sector, df, dl in _oracle_deltas(schedule, rep, sectors, target):
        print(f"  oracle {sector.name}: |dF| = {df:.2e}, |dL| = {dl:.2e}")
        worst = max(worst, df, dl)
    if worst >= _ORACLE_TOL:
        print(f"exgates: oracle disagrees with the irrep scores by {worst:.2e} "
              f"(tolerance {_ORACLE_TOL:.0e})", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exgates",
        description="Synthesize and verify exchange-only entangling gates "
        "for two three-spin DFS qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run module invariant suites")
    p.add_argument("--suite", choices=["all", *_SUITES], default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tables", help="regenerate the CNOT benchmark tables")
    p.add_argument("--which", type=int, choices=[1, 2], required=True)
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")
    p.add_argument(
        "--cancel-negatives",
        action="store_true",
        help="append rows with negative coefficients canceled",
    )
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("synthesize", help="build a schedule and write it as JSON")
    p.add_argument("gate", choices=["cnot"])
    p.add_argument("--mode", choices=["independent", "spin1"], default="independent")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--order", type=int, choices=[0, 1], default=1)
    p.add_argument(
        "--cancel-negatives",
        action="store_true",
        help="remove negative Hamiltonian coefficients with the all-transposition sum",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="score a schedule file against a target")
    p.add_argument("schedule")
    p.add_argument("--sector", choices=["0", "1", "both"], default="both")
    p.add_argument("--target", choices=["cnot", "identity"], default="cnot")
    p.add_argument("--oracle", action="store_true", help="cross-check in the 64-dim space")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        # invalid arguments or schedule contents, reported like other usage errors
        print(f"exgates: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`exgates verify | head -1`).  Point stdout
        # at devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
