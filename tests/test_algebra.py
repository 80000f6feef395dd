import itertools
import random

import pytest

from helpers import random_formula

from tml.algebra import (
    B,
    BOX,
    DESIGNATED,
    DIA,
    JOIN,
    MEET,
    N,
    NEG,
    ONE,
    SUCC,
    VALUES,
    ZERO,
    apply_op,
    check_identity,
    check_quasi_identity,
    designated,
    format_table,
    leq,
    run_identity_suites,
)
from tml.semantics import evaluate, valuations
from tml.syntax import And, Box, Neg, Or, Succ, Var, parse, render, variables


def test_value_inventory():
    assert VALUES == ("0", "n", "b", "1")
    assert DESIGNATED == {B, ONE}
    assert designated(B) and designated(ONE)
    assert not designated(ZERO) and not designated(N)


def test_negation_table():
    assert NEG == {"0": "1", "n": "n", "b": "b", "1": "0"}


def test_necessity_table():
    assert BOX == {"0": "0", "n": "0", "b": "0", "1": "1"}


def test_possibility_table():
    # Dual of necessity under negation.
    assert DIA == {"0": "0", "n": "1", "b": "1", "1": "1"}
    for v in VALUES:
        assert DIA[v] == NEG[BOX[NEG[v]]]


def test_succ_table_all_sixteen_entries():
    expected_rows = {
        ZERO: ("1", "1", "1", "1"),
        N: ("n", "1", "b", "1"),
        B: ("b", "n", "1", "1"),
        ONE: ("0", "n", "b", "1"),
    }
    for row, vals in expected_rows.items():
        assert tuple(SUCC[(row, col)] for col in VALUES) == vals


def test_order_pins():
    assert leq(ZERO, N) and leq(ZERO, B) and leq(ZERO, ONE)
    assert leq(N, ONE) and leq(B, ONE)
    assert not leq(N, B) and not leq(B, N)
    for v in VALUES:
        assert leq(v, v)


def test_order_is_a_partial_order():
    for a, b in itertools.product(VALUES, repeat=2):
        if leq(a, b) and leq(b, a):
            assert a == b
    for a, b, c in itertools.product(VALUES, repeat=3):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_meet_join_are_lattice_bounds():
    for a, b in itertools.product(VALUES, repeat=2):
        m, j = MEET[(a, b)], JOIN[(a, b)]
        assert leq(m, a) and leq(m, b)
        assert leq(a, j) and leq(b, j)
        for c in VALUES:
            if leq(c, a) and leq(c, b):
                assert leq(c, m)
            if leq(a, c) and leq(b, c):
                assert leq(j, c)


def test_succ_encodes_the_order():
    # x > y evaluates to 1 exactly when x <= y.
    for a, b in itertools.product(VALUES, repeat=2):
        assert (SUCC[(a, b)] == ONE) == leq(a, b)


def test_succ_matches_its_defining_formula():
    x, y = Var("x"), Var("y")

    def imp(a, b):
        return Or(Neg(Box(a)), b)

    defining = And(
        And(imp(x, y), imp(Neg(y), Neg(x))),
        imp(Or(Neg(x), y), Or(Box(Neg(x)), y)),
    )
    assert check_identity(Succ(x, y), defining).holds


def test_apply_op():
    assert apply_op("neg", ZERO) == ONE
    assert apply_op("and", N, B) == ZERO
    assert apply_op("or", N, B) == ONE
    assert apply_op("succ", B, N) == N
    assert apply_op("box", B) == ZERO
    assert apply_op("dia", N) == ONE
    assert apply_op("bot") == ZERO
    assert apply_op("top") == ONE


def test_apply_op_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_op("nand", ZERO, ZERO)
    with pytest.raises(ValueError):
        apply_op("neg", ZERO, ZERO)
    with pytest.raises(ValueError):
        apply_op("and", ZERO)
    with pytest.raises(ValueError):
        apply_op("neg", "x")
    with pytest.raises(ValueError):
        apply_op("bot", ZERO)


def test_check_identity_positive():
    assert check_identity(parse("[][]a"), parse("[]a")) == (True, None)
    assert check_identity(parse("(bot > bot) > x"), parse("x")).holds


def test_check_identity_failure_witness():
    res = check_identity(parse("[](a | b)"), parse("[]a | []b"))
    assert not res.holds
    assert res.witness == {"a": "n", "b": "b"}


def test_quasi_identity():
    good = check_quasi_identity(
        [(parse("x > (y > z)"), parse("top"))],
        parse("y > (x > z)"),
        parse("top"),
    )
    assert good.holds
    bad = check_quasi_identity([(parse("x"), parse("top"))], parse("y"), parse("top"))
    assert not bad.holds
    assert bad.witness == {"x": "1", "y": "0"}


def _first_witness(hypotheses, lhs, rhs):
    # The reference: the first valuation where every hypothesis pair takes
    # equal values and the two sides do not.
    names = set(variables(lhs) | variables(rhs))
    for l, r in hypotheses:
        names |= variables(l) | variables(r)
    for h in valuations(names):
        if all(evaluate(l, h) == evaluate(r, h) for l, r in hypotheses):
            if evaluate(lhs, h) != evaluate(rhs, h):
                return h
    return None


def test_identity_witnesses_match_a_direct_search():
    rng = random.Random(1618)
    for _ in range(300):
        def formula():
            return random_formula(rng, names=("x", "y", "z"), depth=3)

        hypotheses = [(formula(), formula()) for _ in range(rng.randint(1, 2))]
        lhs, rhs = formula(), formula()
        shown = ([(render(l), render(r)) for l, r in hypotheses], render(lhs), render(rhs))
        expected = _first_witness([], lhs, rhs)
        assert check_identity(lhs, rhs) == (expected is None, expected), shown
        expected = _first_witness(hypotheses, lhs, rhs)
        assert check_quasi_identity(hypotheses, lhs, rhs) == (expected is None, expected), shown


def test_identity_suites_all_hold():
    results = list(run_identity_suites())
    assert len(results) == 2 + 14 + 3 + 6 + 7 + 1
    for suite, name, res in results:
        assert res.holds, f"{suite}/{name} failed at {res.witness}"


def test_format_table():
    succ = format_table("succ")
    assert "succ | 0  n  b  1" in succ
    assert "   n | n  1  b  1" in succ
    assert "   1 | 0  n  b  1" in succ
    neg = format_table("neg")
    assert "   b | b" in neg
    assert format_table("bot") == "bot = 0\n"
    with pytest.raises(ValueError):
        format_table("xor")
