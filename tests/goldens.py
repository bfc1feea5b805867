"""Frozen expected values for the bundled worked example.

The relaxed rows were derived once by exhaustive 3**9 enumeration over the
demo periods (each row is the value sequence of one solution for meter 1);
the joint grids and agreement sets were derived by exhaustive search over
all permutation tuples. Tests compare solver output against these as sets.
The example report is the whole `anonmeter example` text, captured while its
relaxed rows were still listed by a recursive walk separate from the solver.
"""

# all 22 relaxed solutions for meter 1 (value per period, periods 1..9)
RELAXED_VALUE_ROWS = frozenset({
    (362, 64, 119, 23, 140, 36, 108, 83, 56),
    (117, 64, 119, 149, 140, 117, 146, 83, 56),
    (362, 64, 119, 25, 49, 87, 146, 83, 56),
    (362, 64, 25, 149, 86, 117, 108, 24, 56),
    (362, 50, 119, 149, 49, 36, 146, 24, 56),
    (362, 89, 86, 25, 86, 117, 146, 24, 56),
    (362, 89, 86, 25, 86, 87, 108, 92, 56),
    (362, 89, 25, 149, 140, 36, 42, 92, 56),
    (362, 50, 86, 23, 140, 36, 146, 92, 56),
    (362, 64, 25, 149, 140, 36, 108, 83, 24),
    (362, 89, 86, 25, 140, 36, 146, 83, 24),
    (362, 64, 86, 23, 86, 117, 146, 83, 24),
    (362, 64, 119, 25, 140, 87, 146, 24, 24),
    (362, 64, 86, 149, 49, 87, 146, 24, 24),
    (362, 89, 119, 23, 49, 87, 146, 92, 24),
    (362, 50, 119, 25, 86, 87, 146, 92, 24),
    (362, 64, 86, 25, 140, 36, 108, 83, 87),
    (362, 64, 119, 149, 49, 36, 42, 83, 87),
    (362, 89, 25, 23, 140, 36, 146, 83, 87),
    (362, 64, 119, 23, 49, 117, 146, 24, 87),
    (362, 89, 25, 25, 86, 117, 108, 92, 87),
    (362, 64, 119, 23, 49, 87, 108, 92, 87),
})

# the 3 joint solutions as (meter x period) value grids
JOINT_VALUE_GRIDS = frozenset({
    (
        (362, 64, 119, 23, 140, 36, 108, 83, 56),
        (117, 50, 25, 25, 49, 117, 42, 24, 24),
        (104, 89, 86, 149, 86, 87, 146, 92, 87),
    ),
    (
        (362, 64, 86, 25, 140, 36, 108, 83, 87),
        (117, 50, 25, 23, 49, 87, 42, 24, 56),
        (104, 89, 119, 149, 86, 117, 146, 92, 24),
    ),
    (
        (362, 89, 86, 25, 140, 36, 146, 83, 24),
        (117, 50, 25, 23, 49, 87, 42, 24, 56),
        (104, 64, 119, 149, 86, 117, 108, 92, 87),
    ),
})

# cells every joint solution agrees on: meter -> {period: value}, 0-based indices
AGREED_BY_METER = {
    0: {0: 362, 4: 140, 5: 36, 7: 83},
    1: {0: 117, 1: 50, 2: 25, 4: 49, 6: 42, 7: 24},
    2: {0: 104, 3: 149, 4: 86, 7: 92},
}

# marginal counts for meter 1 by position, tallied from RELAXED_VALUE_ROWS
MARGINAL_COUNT_ROWS = (
    (1, 0, 21),
    (7, 3, 12),
    (5, 10, 7),
    (7, 8, 7),
    (6, 9, 7),
    (9, 7, 6),
    (2, 13, 7),
    (6, 9, 7),
    (9, 7, 6),
)

# the full `anonmeter example` report, byte for byte
EXAMPLE_REPORT = """\
bundled example: 3 meters, 9 periods
totals: 991, 473, 926

joint solutions (value-distinct): 3
  solution 1:
    meter 1: 362 + 64 + 86 + 25 + 140 + 36 + 108 + 83 + 87 = 991
    meter 2: 117 + 50 + 25 + 23 + 49 + 87 + 42 + 24 + 56 = 473
    meter 3: 104 + 89 + 119 + 149 + 86 + 117 + 146 + 92 + 24 = 926
  solution 2:
    meter 1: 362 + 64 + 119 + 23 + 140 + 36 + 108 + 83 + 56 = 991
    meter 2: 117 + 50 + 25 + 25 + 49 + 117 + 42 + 24 + 24 = 473
    meter 3: 104 + 89 + 86 + 149 + 86 + 87 + 146 + 92 + 87 = 926
  solution 3:
    meter 1: 362 + 89 + 86 + 25 + 140 + 36 + 146 + 83 + 24 = 991
    meter 2: 117 + 50 + 25 + 23 + 49 + 87 + 42 + 24 + 56 = 473
    meter 3: 104 + 64 + 119 + 149 + 86 + 117 + 108 + 92 + 87 = 926

assignments identical in every joint solution:
  meter 1: period 1 = 362, period 5 = 140, period 6 = 36, period 8 = 83
  meter 2: period 1 = 117, period 2 = 50, period 3 = 25, period 5 = 49, period 7 = 42, period 8 = 24
  meter 3: period 1 = 104, period 4 = 149, period 5 = 86, period 8 = 92

relaxed attack on meter 1: N = 22
  117 + 64 + 119 + 149 + 140 + 117 + 146 + 83 + 56 = 991
  362 + 89 + 25 + 23 + 140 + 36 + 146 + 83 + 87 = 991
  362 + 89 + 25 + 25 + 86 + 117 + 108 + 92 + 87 = 991
  362 + 89 + 25 + 149 + 140 + 36 + 42 + 92 + 56 = 991
  362 + 89 + 119 + 23 + 49 + 87 + 146 + 92 + 24 = 991
  362 + 89 + 86 + 25 + 86 + 87 + 108 + 92 + 56 = 991
  362 + 89 + 86 + 25 + 86 + 117 + 146 + 24 + 56 = 991
  362 + 89 + 86 + 25 + 140 + 36 + 146 + 83 + 24 = 991
  362 + 50 + 119 + 25 + 86 + 87 + 146 + 92 + 24 = 991
  362 + 50 + 119 + 149 + 49 + 36 + 146 + 24 + 56 = 991
  362 + 50 + 86 + 23 + 140 + 36 + 146 + 92 + 56 = 991
  362 + 64 + 25 + 149 + 86 + 117 + 108 + 24 + 56 = 991
  362 + 64 + 25 + 149 + 140 + 36 + 108 + 83 + 24 = 991
  362 + 64 + 119 + 23 + 140 + 36 + 108 + 83 + 56 = 991
  362 + 64 + 119 + 23 + 49 + 87 + 108 + 92 + 87 = 991
  362 + 64 + 119 + 23 + 49 + 117 + 146 + 24 + 87 = 991
  362 + 64 + 119 + 25 + 140 + 87 + 146 + 24 + 24 = 991
  362 + 64 + 119 + 25 + 49 + 87 + 146 + 83 + 56 = 991
  362 + 64 + 119 + 149 + 49 + 36 + 42 + 83 + 87 = 991
  362 + 64 + 86 + 23 + 86 + 117 + 146 + 83 + 24 = 991
  362 + 64 + 86 + 25 + 140 + 36 + 108 + 83 + 87 = 991
  362 + 64 + 86 + 149 + 49 + 87 + 146 + 24 + 24 = 991

per-period entropy for meter 1 (bits):
  period 1: 0.2668
  period 2: 1.3946
  period 3: 1.5285
  period 4: 1.5820
  period 5: 1.5644
  period 6: 1.5644
  period 7: 1.2886
  period 8: 1.5644
  period 9: 1.5644
average entropy: 1.3687 bits (max 1.5850)
"""
