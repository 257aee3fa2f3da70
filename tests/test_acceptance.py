"""The acceptance gate: one test and one printed verdict line per criterion.

Criteria share an in-process cache (parabolic enumerations, centralizer
certificates), so this module keeps them in numeric order; criterion 6 warms
the certificate that 7 and 8 reuse.  Run with -s to watch the lines appear.
"""

from epicox.acceptance import run_criterion

RADIUS = 6

BUDGET_SECONDS = {
    1: 5, 2: 5, 3: 30, 4: 10, 5: 30, 6: 120, 7: 60, 8: 120, 9: 60,
}


def _run(number):
    res = run_criterion(number, RADIUS)
    print(res.line())
    assert res.passed, res.detail
    assert res.seconds < BUDGET_SECONDS[number], (
        f"criterion {number} took {res.seconds:.1f}s, "
        f"budget {BUDGET_SECONDS[number]}s")
    return res


def test_criterion_1_block_group_structure():
    _run(1)


def test_criterion_2_longest_element():
    _run(2)


def test_criterion_3_reduction_equivalence():
    _run(3)


def test_criterion_4_blocks_conjugacy_isolated():
    _run(4)


def test_criterion_5_commuting_mirrors_adjacency():
    _run(5)


def test_criterion_6_bounded_centralizer():
    _run(6)


def test_criterion_7_reconstruction():
    _run(7)


def test_criterion_8_lifts_induce_original():
    _run(8)


def test_criterion_9_engine_invariants():
    _run(9)
