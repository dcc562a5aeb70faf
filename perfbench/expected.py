"""Expected values the benchmark checks every job against.

A copy of the paper's two CNOT tables and of the tolerances the
acceptance suite uses, kept here so the benchmark does not depend on the
test tree.  Rows are ``n: (cycles, normalized time, SPIN1 fidelity,
SPIN1 leakage)``.
"""

TABLES = {
    1: {
        3: (39, 8.5, 0.99136, 0.00552),
        5: (63, 12.5, 0.99888, 0.00070),
        9: (111, 20.5, 0.99989, 0.00007),
    },
    2: {
        2: (21, 9.8, 0.99849, 0.00067),
        3: (31, 13.8, 0.99970, 0.00014),
        4: (41, 17.8, 0.99990, 0.00004),
    },
}

# Builder of each table, as a name in ``exgates.trotter``.
TABLE_BUILDERS = {1: "cnot_spin_independent", 2: "cnot_spin1"}

TIME_TOL = 0.05
FL_TOL = 1e-5
ORACLE_TOL = 1e-8
# Slack for 0 <= L <= 1 - F, which holds exactly only in exact arithmetic.
BOUND_TOL = 1e-12
# Slack for comparing printed decimals, e.g. 0.00071 - 0.0007 > 1e-5 in floats.
PRINT_SLACK = 1e-12

# Removing negative coefficients adds this much normalized time to every
# row and leaves cycles, F and L unchanged (F and L to CANCEL_FL_TOL).
CANCEL_TIME_SHIFT = 1.3
CANCEL_FL_TOL = 1e-9

# Closed forms of the two CNOT families at any n:
# cycles = a n + b and normalized time = c n + d.
FAMILIES = {
    "cnot_spin_independent": {"cycles": (12, 3), "time": (2.0, 2.5), "table": 1},
    "cnot_spin1": {"cycles": (10, 1), "time": (4.0, 1.8), "table": 2},
}
