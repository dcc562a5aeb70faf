import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exgates
from exgates import cli, decouple, encoding
from exgates.cli import main
from exgates.encoding import SpinSector
from exgates.linalg import max_abs
from exgates.symrep import rep_element
from exgates.trotter import MAX_COEFFICIENT, MAX_ITERATIONS

HEADER = ["n", "cycles", "time", "fidelity", "leakage"]
# Rows of `exgates tables --format csv`, plain and with negatives canceled.
# The closest printed cell lies 6.2e-8 from its rounding boundary.
PINNED_ROWS = {
    1: (
        ["3,39,8.5,0.99136,0.00552", "5,63,12.5,0.99888,0.00071", "9,111,20.5,0.99989,0.00007"],
        ["3,39,9.8,0.99136,0.00552", "5,63,13.8,0.99888,0.00071", "9,111,21.8,0.99989,0.00007"],
    ),
    2: (
        ["2,21,9.8,0.99849,0.00067", "3,31,13.8,0.99970,0.00014", "4,41,17.8,0.99990,0.00005"],
        ["2,21,11.1,0.99849,0.00067", "3,31,15.1,0.99970,0.00014", "4,41,19.1,0.99990,0.00005"],
    ),
}

# `exgates verify` with each "max dev ..., " cut: the 86 check names in order
# and their tolerances, none of which depends on the LAPACK build.
VERIFY_LINES = """\
[suite symrep]
  PASS  dim (3,3) = 5  (tol 0e+00)
  PASS  homomorphism on (3,3) (50 random pairs)  (tol 1e-12)
  PASS  adjacent reps on (3,3) are symmetric involutions  (tol 1e-12)
  PASS  all-transposition sum on (3,3) = 3 I  (tol 1e-12)
  PASS  dim (4,2) = 9  (tol 0e+00)
  PASS  homomorphism on (4,2) (50 random pairs)  (tol 1e-12)
  PASS  adjacent reps on (4,2) are symmetric involutions  (tol 1e-12)
  PASS  all-transposition sum on (4,2) = 5 I  (tol 1e-12)
[suite encoding]
  PASS  SPIN0 computational basis orthonormal  (tol 1e-12)
  PASS  SPIN0 block1 (1, 2)/(1, 3) -> XI  (tol 1e-12)
  PASS  SPIN0 block1 (1, 2)/(1, 3) -> ZI  (tol 1e-12)
  PASS  SPIN0 block1 (1, 2)/(2, 3) -> XI  (tol 1e-12)
  PASS  SPIN0 block1 (1, 2)/(2, 3) -> ZI  (tol 1e-12)
  PASS  SPIN0 block1 (1, 3)/(2, 3) -> XI  (tol 1e-12)
  PASS  SPIN0 block1 (1, 3)/(2, 3) -> ZI  (tol 1e-12)
  PASS  SPIN0 block2 (4, 5)/(4, 6) -> IX  (tol 1e-12)
  PASS  SPIN0 block2 (4, 5)/(4, 6) -> IZ  (tol 1e-12)
  PASS  SPIN0 block2 (4, 5)/(5, 6) -> IX  (tol 1e-12)
  PASS  SPIN0 block2 (4, 5)/(5, 6) -> IZ  (tol 1e-12)
  PASS  SPIN0 block2 (4, 6)/(5, 6) -> IX  (tol 1e-12)
  PASS  SPIN0 block2 (4, 6)/(5, 6) -> IZ  (tol 1e-12)
  PASS  SPIN0 row 1 -> II  (tol 1e-12)
  PASS  SPIN0 row 2 -> IX  (tol 1e-12)
  PASS  SPIN0 row 3 -> IZ  (tol 1e-12)
  PASS  SPIN0 row 4 -> XI  (tol 1e-12)
  PASS  SPIN0 row 5 -> ZI  (tol 1e-12)
  PASS  SPIN0 row 6 -> XX  (tol 1e-12)
  PASS  SPIN0 row 7 -> XZ  (tol 1e-12)
  PASS  SPIN0 row 8 -> ZX  (tol 1e-12)
  PASS  SPIN0 row 9 -> ZZ  (tol 1e-12)
  PASS  SPIN0 cross projections have no Y component  (tol 1e-12)
  PASS  SPIN1 computational basis orthonormal  (tol 1e-12)
  PASS  SPIN1 block1 (1, 2)/(1, 3) -> XI  (tol 1e-12)
  PASS  SPIN1 block1 (1, 2)/(1, 3) -> ZI  (tol 1e-12)
  PASS  SPIN1 block1 (1, 2)/(2, 3) -> XI  (tol 1e-12)
  PASS  SPIN1 block1 (1, 2)/(2, 3) -> ZI  (tol 1e-12)
  PASS  SPIN1 block1 (1, 3)/(2, 3) -> XI  (tol 1e-12)
  PASS  SPIN1 block1 (1, 3)/(2, 3) -> ZI  (tol 1e-12)
  PASS  SPIN1 block2 (4, 5)/(4, 6) -> IX  (tol 1e-12)
  PASS  SPIN1 block2 (4, 5)/(4, 6) -> IZ  (tol 1e-12)
  PASS  SPIN1 block2 (4, 5)/(5, 6) -> IX  (tol 1e-12)
  PASS  SPIN1 block2 (4, 5)/(5, 6) -> IZ  (tol 1e-12)
  PASS  SPIN1 block2 (4, 6)/(5, 6) -> IX  (tol 1e-12)
  PASS  SPIN1 block2 (4, 6)/(5, 6) -> IZ  (tol 1e-12)
  PASS  SPIN1 row 1 -> II  (tol 1e-12)
  PASS  SPIN1 row 2 -> IX  (tol 1e-12)
  PASS  SPIN1 row 3 -> IZ  (tol 1e-12)
  PASS  SPIN1 row 4 -> XI  (tol 1e-12)
  PASS  SPIN1 row 5 -> ZI  (tol 1e-12)
  PASS  SPIN1 row 6 -> XX  (tol 1e-12)
  PASS  SPIN1 row 7 -> XZ  (tol 1e-12)
  PASS  SPIN1 row 8 -> ZX  (tol 1e-12)
  PASS  SPIN1 row 9 -> ZZ  (tol 1e-12)
  PASS  SPIN1 cross projections have no Y component  (tol 1e-12)
[suite decouple]
  PASS  SPIN0 projected sigma_a = 0  (tol 1e-12)
  PASS  SPIN0 projected sigma_b = 0  (tol 1e-12)
  PASS  SPIN0 Ua = diag(1,1,1,1,-1)  (tol 1e-12)
  PASS  SPIN0 Ub = diag(1,1,1,1,-1)  (tol 1e-12)
  PASS  SPIN0 U^4 = 1  (tol 1e-12)
  PASS  SPIN0 U acts as identity on computational subspace  (tol 1e-12)
  PASS  SPIN0 D(H) computational cross terms vanish (15 transpositions)  (tol 1e-12)
  PASS  SPIN0 pair/power agree on computational block  (tol 1e-12)
  PASS  SPIN0 D idempotent  (tol 1e-12)
  PASS  SPIN1 projected sigma_a = 0  (tol 1e-12)
  PASS  SPIN1 projected sigma_b = 0  (tol 1e-12)
  PASS  SPIN1 Ua = diag(1,1,1,1,-1,-1,1,1,-1)  (tol 1e-12)
  PASS  SPIN1 Ub = diag(1,1,1,1,1,1,-1,-1,-1)  (tol 1e-12)
  PASS  SPIN1 U^4 = 1  (tol 1e-12)
  PASS  SPIN1 U acts as identity on computational subspace  (tol 1e-12)
  PASS  SPIN1 D(H) computational cross terms vanish (15 transpositions)  (tol 1e-12)
  PASS  SPIN1 pair/power agree on computational block  (tol 1e-12)
  PASS  SPIN1 D idempotent  (tol 1e-12)
[suite oracle]
  PASS  SPIN0 oracle vs irrep, all 15 transpositions  (tol 1e-10)
  PASS  SPIN0 frame orthonormal  (tol 1e-12)
  PASS  SPIN0 frame annihilated by sigma_a  (tol 1e-12)
  PASS  SPIN0 frame annihilated by sigma_b  (tol 1e-12)
  PASS  SPIN0 frame central constant 3  (tol 1e-12)
  PASS  SPIN1 oracle vs irrep, all 15 transpositions  (tol 1e-10)
  PASS  SPIN1 frame orthonormal  (tol 1e-12)
  PASS  SPIN1 frame annihilated by sigma_a  (tol 1e-12)
  PASS  SPIN1 frame annihilated by sigma_b  (tol 1e-12)
  PASS  SPIN1 frame central constant 5  (tol 1e-12)
  PASS  cnot-independent(n=3) SPIN0 oracle F/L match  (tol 1e-08)
  PASS  cnot-independent(n=3) SPIN1 oracle F/L match  (tol 1e-08)
  PASS  cnot-spin1(n=2) SPIN0 oracle F/L match  (tol 1e-08)
  PASS  cnot-spin1(n=2) SPIN1 oracle F/L match  (tol 1e-08)
all checks passed
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def pinned_rows(which, cancel):
    plain, canceled = PINNED_ROWS[which]
    return plain + canceled if cancel else plain


class TestTables:
    def test_table1_markdown(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| n | cycles | time | fidelity | leakage |"
        row = lines[2].strip("| ").split(" | ")
        assert row[0] == "3" and row[1] == "39"
        assert float(row[2]) == pytest.approx(8.5, abs=0.05)
        assert float(row[3]) == pytest.approx(0.99136, abs=1e-5)
        assert float(row[4]) == pytest.approx(0.00552, abs=1e-5)

    def test_table2_csv_values(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "2", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:4]]
        expected = [
            (2, 21, 9.8, 0.99849, 0.00067),
            (3, 31, 13.8, 0.99970, 0.00014),
            (4, 41, 17.8, 0.99990, 0.00004),
        ]
        for row, (n, cycles, time, fid, leak) in zip(rows, expected):
            assert int(row[0]) == n
            assert int(row[1]) == cycles
            assert float(row[2]) == pytest.approx(time, abs=0.05)
            assert float(row[3]) == pytest.approx(fid, abs=1e-5)
            assert float(row[4]) == pytest.approx(leak, abs=1e-5)

    def test_cancel_negatives_appends_shifted_times(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "1", "--cancel-negatives", "--format", "csv")
        assert code == 0
        lines = out.splitlines()[1:]
        assert len(lines) == 6
        plain = [line.split(",") for line in lines[:3]]
        cancelled = [line.split(",") for line in lines[3:]]
        for p, c in zip(plain, cancelled):
            assert float(c[2]) == pytest.approx(float(p[2]) + 1.3, abs=0.05)
            # fidelity and leakage columns unchanged at displayed precision
            assert c[3] == p[3]
            assert c[4] == p[4]

    @pytest.mark.parametrize("cancel", [False, True], ids=["plain", "canceled"])
    @pytest.mark.parametrize("which", [1, 2])
    def test_csv_pinned_byte_exact(self, capsys, which, cancel):
        flags = ["--cancel-negatives"] if cancel else []
        code, out, _ = run(capsys, "tables", "--which", str(which), "--format", "csv", *flags)
        assert code == 0
        assert out == "\n".join([",".join(HEADER), *pinned_rows(which, cancel)]) + "\n"

    @pytest.mark.parametrize("cancel", [False, True], ids=["plain", "canceled"])
    @pytest.mark.parametrize("which", [1, 2])
    def test_md_and_json_cells_match_pin(self, capsys, which, cancel):
        rows = [line.split(",") for line in pinned_rows(which, cancel)]
        flags = ["--cancel-negatives"] if cancel else []
        code, md, _ = run(capsys, "tables", "--which", str(which), *flags)
        assert code == 0
        md_lines = md.splitlines()
        assert md_lines[0] == "| " + " | ".join(HEADER) + " |"
        assert [line.strip("| ").split(" | ") for line in md_lines[2:2 + len(rows)]] == rows
        assert md_lines[2 + len(rows)] == ""
        code, js, _ = run(capsys, "tables", "--which", str(which), "--format", "json", *flags)
        assert code == 0
        assert json.loads(js)["rows"] == [
            {key: json.loads(cell) for key, cell in zip(HEADER, row)} for row in rows
        ]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["benchmark"]["cycles"] == 13
        assert [r["n"] for r in payload["rows"]] == [2, 3, 4]


class TestSynthesizeSimulate:
    def test_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "cnot.json"
        code, out, _ = run(
            capsys, "synthesize", "cnot", "--mode", "spin1", "--n", "2", "--out", str(out_path)
        )
        assert code == 0
        assert "cycles 21" in out
        data = json.loads(out_path.read_text())
        assert data["version"] == 1
        assert data["n"] == 2

        code, out, _ = run(capsys, "simulate", str(out_path), "--sector", "1")
        assert code == 0
        assert "SPIN1: fidelity 0.99849" in out
        assert "SPIN0" not in out

    def test_synthesize_independent_matches_table(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        code, out, _ = run(
            capsys, "synthesize", "cnot", "--mode", "independent", "--n", "5", "--out", str(out_path)
        )
        assert code == 0
        assert "cycles 63" in out
        assert "SPIN1: fidelity 0.99888" in out

    @pytest.mark.parametrize("args", [
        ["cnot", "--n", "3", "--cancel-negatives"],
        ["--cancel-negatives", "cnot", "--n", "3"],
    ], ids=["flag-after-gate", "flag-before-gate"])
    def test_synthesize_cancel_negatives_mode(self, capsys, tmp_path, args):
        """A bare flag: it takes no value, so it cannot swallow the gate name."""
        from exgates.trotter import cancel_negatives, cnot_spin_independent, schedule_to_json

        out_path = tmp_path / "c.json"
        code, _, _ = run(capsys, "synthesize", *args, "--out", str(out_path))
        assert code == 0
        want = schedule_to_json(cancel_negatives(cnot_spin_independent(3)))
        assert json.loads(out_path.read_text()) == want

    def test_cancel_mode_option_removed(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        for option in (["--cancel-mode", "cross-sum"], ["--cancel-negatives", "full-sum"], ["--cancel-negatives", "cross-sum"]):
            with pytest.raises(SystemExit) as exc:
                main(["synthesize", "cnot", "--n", "3", *option, "--out", str(out_path)])
            assert exc.value.code == 2, option
            assert capsys.readouterr().err.count("usage:") == 1, option
            assert not out_path.exists(), option

    def test_simulate_both_sectors_worst_case(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        run(capsys, "synthesize", "cnot", "--mode", "independent", "--n", "3", "--out", str(out_path))
        code, out, _ = run(capsys, "simulate", str(out_path), "--sector", "both")
        assert code == 0
        fids = {}
        for line in out.splitlines():
            line = line.strip()
            if line.startswith("SPIN"):
                sector, rest = line.split(":")
                fids[sector] = float(rest.split(",")[0].split()[-1])
        assert fids["SPIN0"] >= fids["SPIN1"]

    def test_simulate_identity_target(self, capsys, tmp_path):
        from exgates.schedule import PulseSchedule
        from exgates.trotter import save_schedule

        path = tmp_path / "empty.json"
        save_schedule(PulseSchedule((), name="empty"), path)
        code, out, _ = run(capsys, "simulate", str(path), "--target", "identity")
        assert code == 0
        assert "fidelity 1.00000" in out

    def test_simulate_identity_target_passes_the_target_check(self, capsys, tmp_path):
        # ``--target identity`` is a unitary: a CNOT schedule scores against it with exit 0
        out_path = tmp_path / "c.json"
        run(capsys, "synthesize", "cnot", "--mode", "spin1", "--n", "2", "--out", str(out_path))
        code, out, _ = run(capsys, "simulate", str(out_path), "--target", "identity", "--oracle")
        assert code == 0
        assert "SPIN1: fidelity 0.25042" in out

    def test_simulate_oracle_deltas_small(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        run(capsys, "synthesize", "cnot", "--mode", "spin1", "--n", "2", "--out", str(out_path))
        code, out, _ = run(capsys, "simulate", str(out_path), "--oracle", "--sector", "both")
        assert code == 0
        oracle_lines = [line for line in out.splitlines() if "oracle" in line]
        assert len(oracle_lines) == 2
        for line in oracle_lines:
            deltas = [float(tok) for tok in line.replace(",", "").split() if "e" in tok and tok[0].isdigit()]
            assert deltas and all(d <= 1e-8 for d in deltas)

    @pytest.mark.parametrize(
        "scores,code",
        [((1.0, 0.0), 0), ((1.0, 0.99e-8), 0), ((1.0, 1e-8), 1), ((1.0 - 2**-20, 0.0), 1)],
    )
    def test_simulate_oracle_disagreement_exit_1(self, capsys, tmp_path, monkeypatch, scores, code):
        # the empty schedule scores F = 1, L = 0 against identity in the irreps
        from exgates import oracle
        from exgates.schedule import PulseSchedule
        from exgates.trotter import save_schedule

        path = tmp_path / "empty.json"
        save_schedule(PulseSchedule((), name="empty"), path)
        monkeypatch.setattr(oracle, "oracle_fidelity", lambda *args: scores)
        got, out, err = run(capsys, "simulate", str(path), "--target", "identity", "--oracle")
        assert got == code
        assert len([line for line in out.splitlines() if "oracle" in line]) == 2
        if code:
            assert len(err.strip().splitlines()) == 1 and "oracle" in err
        else:
            assert err == ""

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "simulate", str(bad))
        assert code == 2
        assert "malformed" in err

    def test_wrong_schema_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1}))
        code, _, err = run(capsys, "simulate", str(bad))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_top_level_list_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        code, _, err = run(capsys, "simulate", str(bad))
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100000 + "]" * 100000,
            '{"version": 1, "steps": ' + "[" * 100000 + "]" * 100000 + "}",
        ],
        ids=["alone", "as-steps"],
    )
    def test_deeply_nested_json_exit_2(self, capsys, tmp_path, text):
        bad = tmp_path / "deep.json"
        bad.write_text(text)
        code, out, err = run(capsys, "simulate", str(bad))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "step",
        [
            {"pairs": [[1, 4]], "coeffs": [float("nan")]},
            {"pairs": [[1, 4]], "coeffs": [float("inf")]},
            {"pairs": [[1, 4]], "coeffs": [0.5], "phase": float("nan")},
            {"pairs": [[1, 4]], "coeffs": ["0.5"]},
            {"pairs": [["1", "4"]], "coeffs": [0.5]},
            {"pairs": [[1.9, 4]], "coeffs": [0.5]},
            {"pairs": [[True, 4]], "coeffs": [0.5]},
            {"pairs": [[1, 4], [1, 4]], "coeffs": [0.5, 0.5]},
            {"pairs": [[1, 4], [4, 1]], "coeffs": [0.5, 0.5]},
        ],
    )
    def test_non_finite_or_non_numeric_value_exit_2(self, capsys, tmp_path, step):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "steps": [step]}))
        code, out, err = run(capsys, "simulate", str(bad))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "fields",
        [
            {"n": 2.5}, {"n": "3"}, {"n": -4}, {"n": 0}, {"n": True}, {"order": 2}, {"order": 1.0},
            {"version": True}, {"version": 1.0}, {"name": {"a": 1}}, {"name": None}, {"name": 3},
            {"n": MAX_ITERATIONS + 1},
        ],
    )
    def test_bad_n_or_order_exit_2(self, capsys, tmp_path, fields):
        bad = tmp_path / "bad.json"
        step = {"pairs": [[1, 4]], "coeffs": [0.5]}
        bad.write_text(json.dumps({"version": 1, "steps": [step], **fields}))
        code, out, err = run(capsys, "simulate", str(bad))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "steps, where",
        [
            ({"a": 1}, "steps must be a list"),
            (["x"], "step 0 must be an object"),
            (
                [{"pairs": [[1, 4]], "coeffs": [0.5]}, {"pairs": [[1, 2, 3]], "coeffs": [0.5]}],
                "step 1 pair [1, 2, 3] must have two entries",
            ),
        ],
        ids=["steps-object", "step-string", "pair-of-three"],
    )
    def test_step_faults_named_once(self, capsys, tmp_path, steps, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "steps": steps}))
        code, out, err = run(capsys, "simulate", str(bad))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.count("malformed") == 1
        assert where in err

    @pytest.mark.parametrize(
        "fields, step",
        [
            ({}, {"pairs": [[1, 4]], "coeffs": [list(range(200))]}),
            ({"name": list(range(200))}, None),
            ({"version": 10**300}, None),
            ({}, {"pairs": [[10**300, 4]], "coeffs": [0.5]}),
            ({"n": 10**300}, None),
            ({"order": 10**300}, None),
        ],
        ids=["list-coefficient", "list-name", "long-version", "long-pair-entry", "long-n", "long-order"],
    )
    def test_long_value_echoed_short(self, capsys, tmp_path, fields, step):
        bad = tmp_path / "bad.json"
        step = step or {"pairs": [[1, 4]], "coeffs": [0.5]}
        bad.write_text(json.dumps({"version": 1, "steps": [step], **fields}))
        code, out, err = run(capsys, "simulate", str(bad))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert len(err.strip()) - len(str(bad)) <= 200

    def test_huge_coefficient_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "steps": [{"pairs": [[1, 4]], "coeffs": [1e308]}]}))
        code, out, err = run(capsys, "simulate", str(bad), "--oracle")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    def test_coefficient_at_bound_accepted(self, capsys, tmp_path):
        path = tmp_path / "edge.json"
        step = {"pairs": [[1, 4], [2, 5]], "coeffs": [MAX_COEFFICIENT, -MAX_COEFFICIENT]}
        path.write_text(json.dumps({"version": 1, "steps": [step]}))
        code, out, _ = run(capsys, "simulate", str(path), "--oracle")
        assert code == 0
        oracle_lines = [line for line in out.splitlines() if "oracle" in line]
        assert len(oracle_lines) == 2
        for line in oracle_lines:
            deltas = [float(tok) for tok in line.replace(",", "").split() if "e" in tok and tok[0].isdigit()]
            assert len(deltas) == 2 and all(d <= 1e-8 for d in deltas)

    def test_synthesize_spin1_order_0_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        code, out, err = run(
            capsys, "synthesize", "cnot", "--mode", "spin1", "--order", "0", "--n", "2",
            "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    def test_synthesize_zero_iterations_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        for n in ("0", str(MAX_ITERATIONS + 1), "99999999999999999999"):
            code, _, err = run(capsys, "synthesize", "cnot", "--n", n, "--out", str(out_path))
            assert code == 2
            assert len(err.strip().splitlines()) == 1
            assert not out_path.exists()


def _per_matrix_suite_decouple():
    """Reference for ``cli._suite_decouple``: the same checks one transposition at a time,
    each from one ``rep_element`` and three 2-d ``decouple_map`` calls."""
    checks = []
    sigma_a, sigma_b = decouple.local_sums()
    for sector in SpinSector:
        for name, sig in (("sigma_a", sigma_a), ("sigma_b", sigma_b)):
            checks.append(cli._check(f"{sector.name} projected {name} = 0", max_abs(encoding.projected_rep(sig, sector))))
        basis = decouple.joint_eigenbasis(sector)
        pair = decouple.decoupler(sector, "pair")[1:3]
        for name, u, diag in zip(("Ua", "Ub"), pair, cli._DECOUPLER_DIAGONALS[sector]):
            checks.append(
                cli._check(
                    f"{sector.name} {name} = diag({','.join(map(str, diag))})",
                    max_abs(basis.T @ u @ basis - np.diag(diag)),
                )
            )
        u = decouple.decoupler(sector, "power")[1]
        checks.append(cli._check(f"{sector.name} U^4 = 1", max_abs(np.linalg.matrix_power(u, 4) - np.eye(sector.dim))))
        pi = encoding.projector(sector)
        checks.append(cli._check(f"{sector.name} U acts as identity on computational subspace",
                                 max_abs(pi @ u @ pi.T - np.eye(4))))
        pi_perp = np.eye(sector.dim) - pi.T @ pi
        worst_cross = 0.0
        worst_block = 0.0
        worst_idem = 0.0
        for p in encoding.ALL_PAIRS:
            h = rep_element(sector.partition, {p: 1.0})
            dp = decouple.decouple_map(h, sector, "pair")
            dw = decouple.decouple_map(h, sector, "power")
            for d in (dp, dw):
                worst_cross = max(worst_cross, max_abs(pi @ d @ pi_perp))
            worst_block = max(worst_block, max_abs(pi @ (dp - dw) @ pi.T))
            worst_idem = max(worst_idem, max_abs(decouple.decouple_map(dp, sector, "pair") - dp))
        checks.append(cli._check(f"{sector.name} D(H) computational cross terms vanish (15 transpositions)", worst_cross))
        checks.append(cli._check(f"{sector.name} pair/power agree on computational block", worst_block))
        checks.append(cli._check(f"{sector.name} D idempotent", worst_idem))
    return checks

class TestVerify:
    @pytest.mark.parametrize("suite", ["symrep", "encoding", "decouple", "oracle"])
    def test_single_suite_passes(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "FAIL" not in out
        assert "all checks passed" in out

    def test_checks_pinned_without_deviations(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert re.sub(r"\(max dev [^,]+, ", "(", out) == VERIFY_LINES
        assert out.count("  PASS  ") == 86

    def test_decouple_suite_equals_per_matrix_loop(self):
        assert cli._suite_decouple() == _per_matrix_suite_decouple()

    def test_verify_process_leaves_numpy_random_unimported(self):
        # numpy.random costs a cold process about 6 MB and 10-15 ms; verify draws from the standard library.
        # -X importtime lists every module the process imports on stderr, one a line.
        env = dict(os.environ)
        src = str(Path(exgates.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-W", "error", "-m", "exgates.cli", "verify"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("  PASS  ") == 86
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert {"exgates.decouple", "numpy"} <= imported
        assert not {m for m in imported if m == "numpy.random" or m.startswith("numpy.random.")}

    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--which", "1", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exit_1_without_traceback(self, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(exgates.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child starts, so before it writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "exgates.cli", "tables", "--which", "1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""
