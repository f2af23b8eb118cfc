"""Reference answers the benchmark checks each op against.

These tables are frozen here rather than read from the package, so that a
later change to the package cannot change what counts as a correct answer.
They are the tables of the paper as `skewmori.verify` states them; the
self-test checks that the two still agree.
"""

# The fifteen Mori chambers of A(8), each a simplicial cone given by its
# four extremal rays (coordinates in the basis H, E_1, E_2, E_3).
A8_CHAMBERS = [
    {(0, 0, 1, 0), (1, 0, 0, 0), (4, -3, -2, -1), (2, -1, 0, 0)},
    {(0, 0, 1, 0), (3, -2, -1, 0), (4, -3, -2, -1), (2, -1, 0, 0)},
    {(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (6, -3, -2, 0)},
    {(0, 1, 0, 0), (0, 0, 0, 1), (4, -3, -2, -1), (6, -3, -2, 0)},
    {(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0), (2, -1, 0, 0)},
    {(0, 0, 0, 1), (0, 0, 1, 0), (3, -2, -1, 0), (2, -1, 0, 0)},
    {(0, 0, 0, 1), (0, 0, 1, 0), (4, -3, -2, -1), (3, -2, -1, 0)},
    {(0, 0, 0, 1), (1, 0, 0, 0), (2, -1, 0, 0), (3, -2, -1, 0)},
    {(0, 0, 0, 1), (1, 0, 0, 0), (6, -3, -2, 0), (3, -2, -1, 0)},
    {(0, 0, 0, 1), (4, -3, -2, -1), (6, -3, -2, 0), (3, -2, -1, 0)},
    {(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (4, -3, -2, -1)},
    {(0, 1, 0, 0), (1, 0, 0, 0), (4, -3, -2, -1), (6, -3, -2, 0)},
    {(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)},
    {(1, 0, 0, 0), (4, -3, -2, -1), (2, -1, 0, 0), (3, -2, -1, 0)},
    {(1, 0, 0, 0), (4, -3, -2, -1), (6, -3, -2, 0), (3, -2, -1, 0)},
]

# Stable-base-locus regions of A(8) as sets of indices into A8_CHAMBERS:
# two merged pairs, two merged triples and five single chambers.
A8_REGIONS = [{0, 1}, {2, 3}, {4, 5, 6}, {7, 8, 9}, {10}, {11}, {12}, {13}, {14}]

# Degrees of the seven Cox generator families of A(8): T2, T4, T6, T8, S1..S3.
A8_DEGREES = [
    (1, 0, 0, 0), (2, -1, 0, 0), (3, -2, -1, 0), (4, -3, -2, -1),
    (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
]

# Sum of the rays of the nef chamber A8_CHAMBERS[13]: an interior class.
A8_NEF_CLASS = (10, -6, -3, -1)

# The eleven checks `skewmori verify` replays.
VERIFY_CHECKS = [
    "chamber-counts", "sbl-regions", "a8-chambers", "movable-cones",
    "cone-dualities", "fano-table", "multiplicity-grid", "secant-dimensions",
    "cox-generators", "region-conjecture", "property-suites",
]
