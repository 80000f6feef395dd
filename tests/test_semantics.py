import random

import pytest

from helpers import fold_and, modal_ladder, random_formula
from tml.algebra import MEET, check_identity, check_quasi_identity, leq
from tml.semantics import (
    CONJUGATE,
    TooManyVariables,
    conjugate,
    consequence,
    consequence_countermodel,
    countermodel,
    evaluate,
    truth_table,
    valid,
    valuations,
)
from tml.syntax import Succ, Var, parse, render, variables


def test_evaluate_pins():
    assert evaluate(parse("[]<>p"), {"p": "n"}) == "1"
    assert evaluate(parse("p > q"), {"p": "b", "q": "n"}) == "n"
    assert evaluate(parse("p & ~p"), {"p": "b"}) == "b"
    assert evaluate(parse("bot | top"), {}) == "1"
    assert evaluate(parse("<>(p & ~p)"), {"p": "n"}) == "1"
    assert evaluate(parse("<>(p & ~p)"), {"p": "1"}) == "0"


def test_evaluate_missing_binding():
    with pytest.raises(KeyError, match="no binding"):
        evaluate(parse("p & q"), {"p": "1"})


def test_valuation_enumeration_order():
    rows = list(valuations(["q", "p"]))
    assert len(rows) == 16
    assert rows[0] == {"p": "0", "q": "0"}
    assert rows[1] == {"p": "0", "q": "n"}
    assert rows[2] == {"p": "0", "q": "b"}
    assert rows[4] == {"p": "n", "q": "0"}
    assert rows[6] == {"p": "n", "q": "b"}
    assert rows[15] == {"p": "1", "q": "1"}
    assert list(valuations([])) == [{}]


def test_valid_pins():
    for text in ("p > p", "p > top", "bot > p", "p | ~[]p", "[]p > p", "p > []<>p"):
        assert valid(parse(text)), text
    for text in ("p", "p | ~p", "[]<>p > <>[]p", "top > bot"):
        assert not valid(parse(text)), text


def test_modal_ladder_instances():
    assert valid(modal_ladder(1, 1, 1, 1))
    assert valid(modal_ladder(2, 1, 0, 2))
    assert not valid(Succ(parse("[]<>p"), parse("<>[]p")))


def test_countermodel_pins():
    assert countermodel(parse("p | ~p")) == {"p": "n"}
    assert countermodel(parse("[]<>p > <>[]p")) == {"p": "n"}
    assert countermodel(parse("p & q")) == {"p": "0", "q": "0"}
    assert countermodel(parse("p > p")) is None
    assert countermodel(parse("top")) is None


def test_countermodel_is_first_in_enumeration_order():
    rng = random.Random(99)
    for _ in range(100):
        f = random_formula(rng, names=("p", "q"), depth=4)
        expected = None
        for h in valuations(variables(f)):
            if evaluate(f, h) != "1":
                expected = h
                break
        assert countermodel(f) == expected, render(f)


def test_variable_limit():
    names = [f"v{i:02d}" for i in range(13)]
    wide = parse(" | ".join(names))
    with pytest.raises(TooManyVariables):
        valid(wide)
    with pytest.raises(TooManyVariables):
        countermodel(wide)
    with pytest.raises(TooManyVariables):
        consequence([wide], parse("bot"))
    with pytest.raises(TooManyVariables):
        check_identity(wide, wide)
    with pytest.raises(TooManyVariables):
        check_quasi_identity([(wide, wide)], parse("p"), parse("p"))


def test_consequence_basics():
    assert consequence([], parse("p > p"))
    assert not consequence([], parse("p"))
    assert consequence([parse("p & q")], parse("p"))
    assert consequence([parse("p")], parse("p | q"))
    # Meets of premises, not designation: p together with ~p does not force bot.
    assert not consequence([parse("p"), parse("~p")], parse("bot"))
    assert consequence_countermodel([parse("p"), parse("~p")], parse("bot")) == {"p": "n"}
    # But the one-premise contrapositive form does hold.
    assert consequence([parse("p")], parse("~p > bot"))


def test_consequence_takes_a_thousand_premises():
    # Joined left-deep, this many premises exhaust evaluate's recursion.
    p = parse("p")
    assert consequence_countermodel([p] * 1000, p) is None
    assert consequence_countermodel([p] * 1000, parse("q")) == {"p": "n", "q": "0"}


def test_entailment_does_not_internalize():
    # A premise set can entail bot while the implication form fails.
    mark = "<>(({f}) & ~({f}))"
    alpha = " & ".join(
        [mark.format(f="p"), mark.format(f="q"), mark.format(f="p > q"), "p"]
    )
    assert consequence([parse(alpha), parse("q")], parse("bot"))
    res = consequence_countermodel([parse(alpha)], parse("q > bot"))
    assert res == {"p": "n", "q": "b"}


def test_consequence_witness_matches_a_direct_search():
    # The reference: the first valuation where the meet of the premise
    # values does not lie below the conclusion value.
    rng = random.Random(2718)
    for _ in range(300):
        premises = [random_formula(rng, names=("p", "q", "r"), depth=3)
                    for _ in range(rng.randint(1, 6))]
        conclusion = random_formula(rng, names=("p", "q", "r"), depth=3)
        names = set(variables(conclusion)).union(*map(variables, premises))
        expected = None
        for h in valuations(names):
            bound = "1"
            for p in premises:
                bound = MEET[(bound, evaluate(p, h))]
            if not leq(bound, evaluate(conclusion, h)):
                expected = h
                break
        got = consequence_countermodel(premises, conclusion)
        assert got == expected, ([render(p) for p in premises], render(conclusion))


def test_consequence_matches_implication_on_single_premises():
    rng = random.Random(4242)
    for _ in range(200):
        a = random_formula(rng, names=("p", "q", "r"), depth=3)
        b = random_formula(rng, names=("p", "q", "r"), depth=3)
        assert consequence([a], b) == valid(Succ(a, b)), f"{render(a)} vs {render(b)}"


def test_conjugation_swaps_n_and_b():
    assert conjugate({"p": "n", "q": "b", "r": "0", "s": "1"}) == {
        "p": "b",
        "q": "n",
        "r": "0",
        "s": "1",
    }


def test_conjugation_is_an_automorphism():
    rng = random.Random(7)
    for _ in range(150):
        f = random_formula(rng, names=("p", "q"), depth=4)
        for h in valuations(variables(f)):
            assert evaluate(f, conjugate(h)) == CONJUGATE[evaluate(f, h)]


def test_truth_table():
    rows = truth_table(parse("p & q"))
    assert len(rows) == 16
    assert rows[0] == ({"p": "0", "q": "0"}, "0")
    pinned = truth_table(parse("p"), names=("p", "q"))
    assert len(pinned) == 16
    with_extra = truth_table(parse("p"), names=("z",))
    assert all("z" in h and "p" in h for h, _ in with_extra)


def test_premise_order_and_multiplicity_do_not_matter():
    rng = random.Random(31)
    for _ in range(50):
        g1 = random_formula(rng, names=("p", "q"), depth=3)
        g2 = random_formula(rng, names=("p", "q"), depth=3)
        a = random_formula(rng, names=("p", "q"), depth=3)
        assert consequence([g1, g2], a) == consequence([g2, g1], a)
        assert consequence([g1, g2], a) == consequence([g1, g2, g1], a)
        assert consequence([g1, g2], a) == consequence([fold_and([g1, g2])], a)
