"""Frozen expected values shared across test modules.

GOLDEN_24 lists the width-4 permutation writing of every n < 24.  Each row
is independently reproducible by enumerating the 24 permutations of
{0,1,2,3} and sorting them so that the larger entry at the highest position
where two differ comes first (the reference module does exactly that, by
their reversed tuples, without the library's comparator); the unit suites
re-derive them, the golden suites pin them.

The rule strings and term sets follow from the coefficient recurrence
w_j = j! mod k with balanced representatives in (-k/2, k/2], dropping pairs
once k | j!.
"""

GOLDEN_24 = {
    0: (0, 1, 2, 3),
    1: (1, 0, 2, 3),
    2: (0, 2, 1, 3),
    3: (2, 0, 1, 3),
    4: (1, 2, 0, 3),
    5: (2, 1, 0, 3),
    6: (0, 1, 3, 2),
    7: (1, 0, 3, 2),
    8: (0, 3, 1, 2),
    9: (3, 0, 1, 2),
    10: (1, 3, 0, 2),
    11: (3, 1, 0, 2),
    12: (0, 2, 3, 1),
    13: (2, 0, 3, 1),
    14: (0, 3, 2, 1),
    15: (3, 0, 2, 1),
    16: (2, 3, 0, 1),
    17: (3, 2, 0, 1),
    18: (1, 2, 3, 0),
    19: (2, 1, 3, 0),
    20: (1, 3, 2, 0),
    21: (3, 1, 2, 0),
    22: (2, 3, 1, 0),
    23: (3, 2, 1, 0),
}

RULE_RENDERINGS = {
    2: "inv(0,1)",
    3: "inv(0,1) - inv(0,2) - inv(1,2)",
    4: "inv(0,1) + 2(inv(0,2) + inv(0,3) + inv(1,2) + inv(1,3) + inv(2,3))",
    5: "inv(0,1) + inv(0,3) + inv(1,3) + inv(2,3) + 2(inv(0,2) + inv(1,2))"
       " - inv(0,4) - inv(1,4) - inv(2,4) - inv(3,4)",
    6: "inv(0,1) + 2(inv(0,2) + inv(1,2))",
}

RULE_TERM_SETS = {
    2: {(0, 1, 1)},
    3: {(0, 1, 1), (0, 2, -1), (1, 2, -1)},
    4: {(0, 1, 1), (0, 2, 2), (1, 2, 2), (0, 3, 2), (1, 3, 2), (2, 3, 2)},
    5: {
        (0, 1, 1),
        (0, 2, 2), (1, 2, 2),
        (0, 3, 1), (1, 3, 1), (2, 3, 1),
        (0, 4, -1), (1, 4, -1), (2, 4, -1), (3, 4, -1),
    },
    6: {(0, 1, 1), (0, 2, 2), (1, 2, 2)},
}
