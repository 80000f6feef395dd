import copy
import gc
import hashlib
import itertools
import pickle
import random
import sys
import threading
import weakref

import pytest

from helpers import random_formula, reference_branch, reference_extract_model
from tml import cli, hashcons, syntax, tableau
from tml.algebra import VALUES
from tml.errors import InvariantViolation
from tml.semantics import consequence, evaluate, valid, valuations
from tml.syntax import (
    BOT,
    TOP,
    And,
    Bot,
    Box,
    Dia,
    Neg,
    Or,
    Signature,
    SignatureError,
    Succ,
    Top,
    Var,
    complexity,
    degree,
    in_signature,
    parse,
    render,
    translate,
    variables,
)
from tml.tableau import (
    Branch,
    F,
    Node,
    Proved,
    Refuted,
    SignedFormula,
    T,
    Tableau,
    complete,
    decide,
    decide_consequence,
    expand,
    expand_derived,
    extract_model,
    format_tableau,
    satisfies,
)

A = Var("a")
B = Var("b")
P = Var("p")
Q = Var("q")


def both_valuations():
    return list(valuations(["a", "b"]))


def alternatives_equivalent(premises, alternatives):
    """Every valuation satisfies all the premises iff it satisfies every
    member of some alternative.  This is the exact condition that makes a
    rule sound and invertible at once."""
    for h in both_valuations():
        lhs = all(satisfies(h, sf) for sf in premises)
        rhs = any(
            all(satisfies(h, sf) for sf in alt) for alt in alternatives
        )
        if lhs != rhs:
            return False, h
    return True, None


# --- signed formulas and satisfaction ---------------------------------------


def test_signed_formula_str():
    assert str(T(parse("p > q"))) == "T(p > q)"
    assert str(F(Neg(P))) == "F(~p)"


def test_sign_validation():
    with pytest.raises(ValueError):
        SignedFormula("X", P)


def test_signed_formulas_are_interned():
    f = parse("~(p > q)")
    assert T(f) is T(parse("~(p > q)")) is SignedFormula("T", f)
    assert T(f) is not F(f)
    for sf in (T(f), F(P)):
        assert copy.copy(sf) is sf
        assert copy.deepcopy(sf) is sf
        assert pickle.loads(pickle.dumps(sf)) is sf
    assert repr(T(P)) == "SignedFormula(sign='T', formula=Var(name='p'))"
    with pytest.raises(AttributeError):
        T(P).sign = "F"
    # The compiled rule rows build interned nodes; == on them is identity.
    first = expand(T(f), Signature.SUCC)[0]
    assert first[0] is T(P) and first[1] is F(Q)
    assert expand(T(f), Signature.SUCC) == expand(T(f), Signature.SUCC)


def test_signed_formulas_leave_the_table():
    gc.collect()
    before = len(hashcons.TABLE)
    signed = [T(Var(f"fresh{i}")) for i in range(20)]
    refs = [weakref.ref(sf) for sf in signed]
    assert len(hashcons.TABLE) == before + 2 * len(signed)
    del signed
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(hashcons.TABLE) == before


def test_satisfies_pins():
    assert satisfies({"p": "b"}, T(P))
    assert satisfies({"p": "1"}, T(P))
    assert not satisfies({"p": "n"}, T(P))
    assert satisfies({"p": "n"}, F(P))
    # negation flips the claim into the other diagonal
    assert satisfies({"p": "0"}, T(Neg(P)))
    assert satisfies({"p": "b"}, T(Neg(P)))
    assert satisfies({"p": "n"}, F(Neg(P)))
    assert satisfies({"p": "1"}, F(Neg(P)))


# --- rule tables -------------------------------------------------------------


def test_succ_rule_shapes():
    s = Succ(A, B)
    assert expand(T(s), Signature.SUCC) == [
        [T(B)],
        [T(Neg(A)), F(B), T(Neg(B))],
        [F(A), F(B), F(Neg(B))],
    ]
    assert expand(F(s), Signature.SUCC) == [
        [T(A), F(B), F(Neg(B))],
        [F(Neg(A)), F(B), T(Neg(B))],
    ]
    assert expand(T(Neg(s)), Signature.SUCC) == [
        [T(A), F(B), T(Neg(B))],
        [F(Neg(A)), T(B), T(Neg(B))],
    ]
    assert expand(F(Neg(s)), Signature.SUCC) == [
        [F(Neg(B))],
        [T(Neg(A)), T(B), T(Neg(B))],
        [F(A), F(B), T(Neg(B))],
    ]


def test_full_rule_shapes():
    assert expand(T(And(A, B)), Signature.FULL) == [[T(A), T(B)]]
    assert expand(F(And(A, B)), Signature.FULL) == [[F(A)], [F(B)]]
    assert expand(T(Or(A, B)), Signature.FULL) == [[T(A)], [T(B)]]
    assert expand(F(Or(A, B)), Signature.FULL) == [[F(A), F(B)]]
    assert expand(T(Box(A)), Signature.FULL) == [[T(A), F(Neg(A))]]
    assert expand(F(Box(A)), Signature.FULL) == [[F(A)], [T(Neg(A))]]
    assert expand(T(Neg(Box(A))), Signature.FULL) == [[F(Box(A))]]
    assert expand(F(Neg(Box(A))), Signature.FULL) == [[T(Box(A))]]
    assert expand(T(Neg(And(A, B))), Signature.FULL) == [[T(Neg(A))], [T(Neg(B))]]
    assert expand(F(Neg(And(A, B))), Signature.FULL) == [[F(Neg(A)), F(Neg(B))]]
    assert expand(T(Neg(Or(A, B))), Signature.FULL) == [[T(Neg(A)), T(Neg(B))]]
    assert expand(F(Neg(Or(A, B))), Signature.FULL) == [[F(Neg(A))], [F(Neg(B))]]


def test_double_negation_both_systems():
    for system in Signature:
        assert expand(T(Neg(Neg(A))), system) == [[T(A)]]
        assert expand(F(Neg(Neg(A))), system) == [[F(A)]]


def test_literals_have_no_rule():
    for lit in (P, Bot(), Top(), Neg(P), Neg(Bot()), Neg(Top())):
        for system in Signature:
            assert expand(T(lit), system) is None
            assert expand(F(lit), system) is None


def test_expand_rejects_foreign_connectives():
    with pytest.raises(SignatureError):
        expand(T(And(A, B)), Signature.SUCC)
    with pytest.raises(SignatureError):
        expand(F(Succ(A, B)), Signature.FULL)


def succ_rule_premises():
    s = Succ(A, B)
    return [T(s), F(s), T(Neg(s)), F(Neg(s)), T(Neg(Neg(A))), F(Neg(Neg(A)))]


def full_rule_premises():
    out = []
    for f in (And(A, B), Or(A, B), Box(A), Neg(And(A, B)), Neg(Or(A, B)),
              Neg(Box(A)), Neg(Neg(A))):
        out.append(T(f))
        out.append(F(f))
    return out


def table_premises(system):
    """The principal formula of each row of the system's rule table, signed
    and with its metavariables a, b read as variables."""
    return [SignedFormula(sign, parse(text)) for sign, text in tableau._RULES[system]]


def test_rule_table_rows():
    # the hand-written lists above pin which rows the table has
    assert sorted(map(str, table_premises(Signature.SUCC))) == sorted(
        map(str, succ_rule_premises()))
    assert sorted(map(str, table_premises(Signature.FULL))) == sorted(
        map(str, full_rule_premises()))
    assert set(tableau._DERIVED_RULES) == {("T", "T"), ("F", "F"), ("T", "F"), ("F", "T")}


@pytest.mark.parametrize("sf", table_premises(Signature.SUCC), ids=str)
def test_succ_rules_sound_and_invertible(sf):
    ok, h = alternatives_equivalent([sf], expand(sf, Signature.SUCC))
    assert ok, f"rule for {sf} wrong at {h}"


@pytest.mark.parametrize("sf", table_premises(Signature.FULL), ids=str)
def test_full_rules_sound_and_invertible(sf):
    ok, h = alternatives_equivalent([sf], expand(sf, Signature.FULL))
    assert ok, f"rule for {sf} wrong at {h}"


@pytest.mark.parametrize("system, measure",
                         [(Signature.SUCC, degree), (Signature.FULL, complexity)])
def test_rules_terminate(system, measure):
    """Every formula a row adds lies in the system's signature and is
    strictly smaller than the principal formula, so expansion terminates."""
    for sf in table_premises(system):
        for alt in expand(sf, system):
            for added in alt:
                assert in_signature(added.formula, system), (str(sf), str(added))
                assert measure(added.formula) < measure(sf.formula), (str(sf), str(added))


def test_derived_rules_terminate():
    s = Succ(A, B)
    for plain, neg in tableau._DERIVED_RULES:
        for alt in expand_derived(SignedFormula(plain, s), SignedFormula(neg, Neg(s))):
            for added in alt:
                assert in_signature(added.formula, Signature.SUCC), str(added)
                assert degree(added.formula) < degree(s), str(added)


@pytest.mark.parametrize("signs", list(tableau._DERIVED_RULES))
def test_derived_rules_sound_and_invertible(signs):
    s = Succ(A, B)
    plain = SignedFormula(signs[0], s)
    neg = SignedFormula(signs[1], Neg(s))
    alts = expand_derived(plain, neg)
    ok, h = alternatives_equivalent([plain, neg], alts)
    assert ok, f"derived rule {signs} wrong at {h}"
    # argument order must not matter
    assert expand_derived(neg, plain) == alts


def test_derived_rejects_non_pairs():
    with pytest.raises(ValueError):
        expand_derived(T(Succ(A, B)), F(Succ(A, B)))
    with pytest.raises(ValueError):
        expand_derived(T(Succ(A, B)), T(Neg(Succ(A, A))))


# --- engine behaviour --------------------------------------------------------


def test_reflexivity_closes():
    tableau = complete([F(parse("p > p"))], Signature.SUCC)
    assert tableau.closed
    assert all(b.closed for b in tableau.branches)


def test_axiom_proved_in_full_system():
    result = decide(parse("p | ~[]p"), Signature.FULL)
    assert isinstance(result, Proved)


def test_box_dia_commute_refuted_with_pinned_model():
    for system in Signature:
        result = decide(parse("[]<>p > <>[]p"), system)
        assert isinstance(result, Refuted)
        assert result.model == {"p": "n"}


def test_closing_constants():
    assert complete([T(Bot())], Signature.SUCC).closed
    assert complete([F(Neg(Bot()))], Signature.SUCC).closed
    assert complete([F(Top())], Signature.FULL).closed
    assert complete([T(Neg(Top()))], Signature.FULL).closed
    # their mirror images sit on a branch without closing it
    assert not complete([F(Bot())], Signature.SUCC).closed
    assert not complete([T(Neg(Bot()))], Signature.SUCC).closed
    assert not complete([T(Top())], Signature.FULL).closed
    assert not complete([F(Neg(Top()))], Signature.FULL).closed


def test_complete_rejects_out_of_signature_roots():
    with pytest.raises(SignatureError):
        complete([F(parse("p & q"))], Signature.SUCC)
    with pytest.raises(SignatureError):
        complete([F(parse("p > q"))], Signature.FULL)


def test_complete_and_decide_reject_an_unknown_signature():
    # A signature's value is not the signature: "full" is rejected as it
    # is, not read as Signature.FULL.
    for text in ("p & q", "p > q", "p"):
        f = parse(text)
        with pytest.raises(ValueError, match="^unknown signature 'full'$"):
            complete([F(f)], "full")
        with pytest.raises(ValueError, match="^unknown signature 'full'$"):
            decide(f, "full")


def test_worst_known_input_is_pinned():
    """The largest tree any test builds: the full system's translation of a
    small succ formula explores 35,399 branches, of which only the last is
    open."""
    result = decide(parse("((p > r) > r > p) > s"), Signature.FULL)
    assert isinstance(result, Refuted)
    assert result.model == {"p": "1", "r": "0", "s": "0"}
    branches = result.tableau.branches
    assert (len(branches), sum(b.closed for b in branches)) == (35399, 35398)
    assert result.branch is branches[-1]


def test_decide_refutes_the_largest_full_tree_without_it():
    """complete() needs 181,076 branches for this formula in the full
    system; the open branch it ends on gives this model."""
    result = decide(parse("((q > q) > s > s) > ~~p"), Signature.FULL)
    assert isinstance(result, Refuted)
    assert result.model == {"p": "0", "q": "0", "s": "n"}


def _differential_pool():
    for f in succ_formulas_by_degree(6):
        for system in Signature:
            yield f, system
    rng = random.Random(20261020)
    for _ in range(500):
        yield random_formula(rng, names=("p", "q", "r", "s"), depth=4, ops="full"), Signature.FULL


def test_decide_matches_the_finished_tableau():
    """decide's search against complete() with stop_on_open: the same
    verdict, and for a refutation the same open branch and model."""
    for f, system in _differential_pool():
        g = translate(f, system)
        result = decide(f, system)
        tab = complete([F(g)], system, stop_on_open=True)
        assert isinstance(result, Proved) == tab.closed, (render(f), system)
        if isinstance(result, Refuted):
            branch = tab.open_branches()[0]
            assert result.branch.formulas == branch.formulas, (render(f), system)
            assert result.model == extract_model(branch, names=variables(g)), (render(f), system)


def test_decide_builds_no_tableau_until_it_is_read(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("complete() was called")

    monkeypatch.setattr(tableau, "complete", refuse)
    assert cli.main(["prove", "--system", "succ", "p > p"]) == 0
    assert cli.main(["prove", "--system", "full", "[]<>p > <>[]p"]) == 1
    capsys.readouterr()
    proved = decide(parse("p > p"), Signature.SUCC)
    refuted = decide(parse("[]<>p > <>[]p"), Signature.FULL)
    assert isinstance(proved, Proved) and isinstance(refuted, Refuted)
    assert refuted.branch.formulas[0] is F(translate(parse("[]<>p > <>[]p"), Signature.FULL))
    for verdict in (proved, refuted):
        with pytest.raises(AssertionError, match="complete"):
            verdict.tableau


def test_decide_builds_signed_formulas_only_for_its_root_and_trail(monkeypatch):
    """The search runs on plain (sign, formula, kind) triples: a proof
    builds no signed formula but its root F(g), and so does a refutation
    until its branch is read.  The first read builds the open trail once,
    in the trail's order; a later read returns the same branch, and reading
    the tableau swaps in the tableau's open branch."""
    built, signed_formula = [], tableau.SignedFormula

    def counting(sign, formula):
        built.append((sign, formula))
        return signed_formula(sign, formula)

    monkeypatch.setattr(tableau, "SignedFormula", counting)
    for text, system in (("p > p", Signature.SUCC), ("p > (q > p)", Signature.SUCC),
                         ("[](p & q) > ([]p & []q)", Signature.FULL)):
        built.clear()
        assert isinstance(decide(parse(text), system), Proved), text
        assert built == [("F", translate(parse(text), system))], text
    for text, system in (("[]<>p > <>[]p", Signature.FULL), ("(p > q) > q", Signature.SUCC),
                         ("((q > q) > s > s) > ~~p", Signature.FULL)):
        built.clear()
        verdict = decide(parse(text), system)
        assert isinstance(verdict, Refuted), text
        root = ("F", translate(parse(text), system))
        assert built == [root], text
        branch = verdict.branch
        trail = [(sf.sign, sf.formula) for sf in branch.formulas]
        assert trail[0] == root and built == [root] + trail, text
        assert verdict.branch is branch and built == [root] + trail, text
        if len(built) < 100:  # the last tree has 181,076 branches
            opened = verdict.tableau.open_branches()[0]
            assert verdict.branch is opened and opened is not branch, text
            assert opened.formulas == branch.formulas, text


def test_decide_defaults_a_variable_its_open_trail_never_mentions():
    """The leftmost open branch of F((p > q) > r) takes the alternative
    [T q] of T(p > q), and that of F(p | q & r) the alternative [F q] of
    F(q & r), so no literal on it mentions p or r.  The check's reading of
    f binds that variable to 0, as extract_model with the translation's
    variables does."""
    for text, system, unmentioned in (("(p > q) > r", Signature.SUCC, "p"),
                                      ("p | q & r", Signature.FULL, "r")):
        f = parse(text)
        g = translate(f, system)
        verdict = decide(f, system)
        assert isinstance(verdict, Refuted), text
        literals = {sf.formula for sf in verdict.branch.formulas if sf._kind is tableau._LITERAL}
        assert not literals & {Var(unmentioned), Neg(Var(unmentioned))}, text
        branch = complete([F(g)], system, stop_on_open=True).open_branches()[0]
        expected = extract_model(branch, names=variables(g))
        assert list(verdict.model.items()) == list(expected.items()), text
        assert list(verdict.model) == ["p", "q", "r"] and verdict.model[unmentioned] == "0", text


def test_decide_checks_its_countermodel(monkeypatch):
    monkeypatch.setattr(tableau, "_model", lambda trail: {"p": "1"})
    with pytest.raises(InvariantViolation, match="the value 1"):
        decide(parse("p | ~p"), Signature.FULL)


def test_decide_leaves_native_inputs_untranslated(monkeypatch):
    def refuse(*args):
        raise AssertionError("translated")

    for system in Signature:
        steps = dict.fromkeys(syntax._TRANSLATIONS[system], refuse)
        monkeypatch.setitem(syntax._TRANSLATIONS, system, steps)
    inputs = {Signature.FULL: (["[]~p | p & ~[]q", "p | ~p", "top"], "p > q"),
              Signature.SUCC: (["~(p > ~p) > p", "p > p", "bot"], "p & q")}
    for system, (native, foreign) in inputs.items():
        for text in native:
            assert isinstance(decide(parse(text), system), (Proved, Refuted))
        with pytest.raises(AssertionError, match="translated"):
            decide(parse(foreign), system)


def test_decide_translates_first():
    # mixed-signature input is fine for either system
    for text in ("p & q > q & p", "[]p > p", "<>p | ~p | p"):
        f = parse(text)
        for system in Signature:
            assert isinstance(decide(f, system), (Proved, Refuted))


def test_branch_order_is_leftmost_first():
    # F(~(p | q)) splits into F(~p) | F(~q); the leftmost branch constrains
    # only p, to {1, n}, of which n comes first.
    result = decide(parse("~(p | q)"), Signature.FULL)
    assert isinstance(result, Refuted)
    assert result.model == {"p": "n", "q": "0"}
    # and an unbranching refutation: F(p | q) puts F(p), F(q) on one branch
    result = decide(parse("p | q"), Signature.FULL)
    assert isinstance(result, Refuted)
    assert result.model == {"p": "0", "q": "0"}


# --- countermodel extraction -------------------------------------------------


def _open_branch(signed):
    branch = Branch(Node(list(signed)))
    assert not branch.closed and branch.formulas == signed
    return branch


def test_extraction_least_survivor():
    assert extract_model(_open_branch([T(P)])) == {"p": "b"}
    assert extract_model(_open_branch([F(P)])) == {"p": "0"}
    assert extract_model(_open_branch([T(Neg(P))])) == {"p": "0"}
    assert extract_model(_open_branch([F(Neg(P))])) == {"p": "n"}
    assert extract_model(_open_branch([T(P), F(Neg(P))])) == {"p": "1"}
    assert extract_model(_open_branch([F(P), T(Neg(P))])) == {"p": "0"}
    assert extract_model(_open_branch([T(P), T(Neg(P))])) == {"p": "b"}
    assert extract_model(_open_branch([F(P), F(Neg(P))])) == {"p": "n"}


def test_extraction_defaults_unconstrained_to_zero():
    branch = _open_branch([T(P)])
    assert extract_model(branch, names=["p", "q"]) == {"p": "b", "q": "0"}


def test_extraction_refuses_closed_branch():
    branch = Branch(Node([T(P), F(P)], closed=True))
    assert branch.closed
    with pytest.raises(ValueError):
        extract_model(branch)
    [branch] = complete([T(P), F(P)], Signature.SUCC).branches
    assert branch.closed
    with pytest.raises(ValueError):
        extract_model(branch)


def test_extraction_flags_impossible_constraints():
    # An engine bug would be needed to produce this state, so build it by
    # hand: the three literals force disjoint value sets.
    branch = Branch(Node(added=[T(P), F(Neg(P)), T(Neg(P))]))
    with pytest.raises(InvariantViolation):
        extract_model(branch)


def _same_model(branch, names=()):
    model = extract_model(branch, names=names)
    assert list(model.items()) == list(reference_extract_model(branch, names).items())


def test_extraction_matches_the_reference_on_open_branches():
    opened = 0
    for f, system in _differential_pool():
        g = translate(f, system)
        for branch in complete([F(g)], system).open_branches():
            _same_model(branch, names=variables(g))
            opened += 1
    assert opened > 1000


def test_extraction_matches_the_reference_on_hand_made_branches():
    # Branches an engine would not build: constants, formulas still to be
    # expanded and repeated literals are all on them.
    signed = [T(Neg(BOT)), F(TOP), T(BOT), F(Neg(BOT)), T(And(P, Q)), F(Neg(Neg(P))),
              T(Succ(P, Q)), F(Neg(Box(Q))), T(P), T(P), F(Neg(P)), F(Q), F(Q), T(Neg(Q)),
              F(P)]
    rng = random.Random(2305)
    outcomes = set()
    for size in range(len(signed) + 1):
        for _ in range(20):
            branch = Branch(Node(rng.sample(signed, size)))
            names = rng.choice(((), ["q", "r"], ("p",), {"s", "p"}))
            try:
                expected = list(reference_extract_model(branch, names).items())
            except InvariantViolation:
                with pytest.raises(InvariantViolation, match="contradictory"):
                    extract_model(branch, names=names)
                outcomes.add("contradiction")
                continue
            assert list(extract_model(branch, names=names).items()) == expected
            outcomes.add("model")
    assert outcomes == {"model", "contradiction"}


def test_least_values_cover_every_nonempty_set():
    sets = [frozenset(c) for k in range(1, 5) for c in itertools.combinations(VALUES, k)]
    assert len(sets) == len(tableau._LEAST) == 15
    for allowed in sets:
        assert tableau._LEAST[allowed] == next(v for v in VALUES if v in allowed)
    with pytest.raises(InvariantViolation, match="contradictory values for 'p'"):
        extract_model(Branch(Node([T(P), F(P)])))


# --- oracle agreement --------------------------------------------------------


def succ_formulas_by_degree(max_degree):
    atoms = [P, Q, Bot()]
    by = {1: list(atoms)}
    for d in range(2, max_degree + 1):
        layer = [Neg(f) for f in by[d - 1]]
        for i in range(1, d - 1):
            for a in by[i]:
                for b in by[d - 1 - i]:
                    layer.append(Succ(a, b))
        by[d] = layer
    return [f for d in sorted(by) for f in by[d]]


def full_formulas_by_connectives(max_connectives):
    atoms = [P, Q, Bot(), Top()]
    by = {0: list(atoms)}
    for c in range(1, max_connectives + 1):
        layer = [g(f) for f in by[c - 1] for g in (Neg, Box)]
        for i in range(c):
            for a in by[i]:
                for b in by[c - 1 - i]:
                    layer.append(And(a, b))
                    layer.append(Or(a, b))
        by[c] = layer
    return [f for c in sorted(by) for f in by[c]]


def assert_agrees_with_oracle(f, system):
    result = decide(f, system)
    if valid(f):
        assert isinstance(result, Proved), render(f)
    else:
        assert isinstance(result, Refuted), render(f)
        g = translate(f, system)
        assert evaluate(g, result.model) != "1", render(f)
        for sf in result.branch.formulas:
            assert satisfies(result.model, sf), (render(f), str(sf))


def test_succ_exhaustive_small():
    for f in succ_formulas_by_degree(5):
        assert_agrees_with_oracle(f, Signature.SUCC)


def test_full_exhaustive_small():
    for f in full_formulas_by_connectives(2):
        assert_agrees_with_oracle(f, Signature.FULL)


def test_succ_random_corpus():
    rng = random.Random(20260814)
    for _ in range(400):
        f = random_formula(rng, names=("p", "q", "r"), depth=4, ops="succ")
        assert_agrees_with_oracle(f, Signature.SUCC)


def test_full_random_corpus():
    rng = random.Random(20260815)
    for _ in range(400):
        f = random_formula(rng, names=("p", "q", "r"), depth=4, ops="full")
        assert_agrees_with_oracle(f, Signature.FULL)


def test_mixed_random_corpus_full_system():
    rng = random.Random(20260816)
    for _ in range(200):
        f = random_formula(rng, names=("p", "q"), depth=3, ops="mixed")
        assert_agrees_with_oracle(f, Signature.FULL)


def test_necessitation_smoke():
    for text in ("p > p", "p | ~[]p", "[]p | ~[]p", "[]p > p"):
        f = parse(text)
        assert isinstance(decide(f, Signature.FULL), Proved)
        assert isinstance(decide(Box(f), Signature.FULL), Proved)


# --- consequence via tableaux ------------------------------------------------


def not_mtd_alpha():
    return parse("<>(p & ~p) & <>(q & ~q) & <>((p > q) & ~(p > q)) & p")


def test_consequence_pins():
    alpha = not_mtd_alpha()
    assert isinstance(
        decide_consequence([alpha, Q], Bot(), Signature.SUCC), Proved
    )
    result = decide_consequence([alpha], Succ(Q, Bot()), Signature.SUCC)
    assert isinstance(result, Refuted)
    assert isinstance(
        decide_consequence([P], Succ(Neg(P), Bot()), Signature.FULL), Proved
    )
    result = decide_consequence([P, Neg(P)], Bot(), Signature.FULL)
    assert isinstance(result, Refuted)


def test_consequence_no_premises_is_validity():
    for text in ("p > p", "[]p > p", "p"):
        f = parse(text)
        for system in Signature:
            got = decide_consequence([], f, system)
            assert isinstance(got, Proved) == valid(f)


def test_consequence_random_agreement():
    rng = random.Random(4040)
    for _ in range(150):
        k = rng.randrange(3)
        premises = [
            random_formula(rng, names=("p", "q"), depth=2, ops="full")
            for _ in range(k)
        ]
        conclusion = random_formula(rng, names=("p", "q"), depth=2, ops="full")
        got = decide_consequence(premises, conclusion, Signature.FULL)
        assert isinstance(got, Proved) == consequence(premises, conclusion)


# --- expansion order and derived rules ---------------------------------------


def test_verdict_independent_of_expansion_order():
    rng = random.Random(31337)
    for _ in range(30):
        system = rng.choice(list(Signature))
        ops = "succ" if system is Signature.SUCC else "full"
        f = random_formula(rng, names=("p", "q", "r"), depth=3, ops=ops)
        baseline = isinstance(decide(f, system), Proved)
        for seed in range(5):
            shuffled = decide(f, system, rng=random.Random(seed))
            assert isinstance(shuffled, Proved) == baseline, render(f)


def test_derived_flag_keeps_verdicts():
    rng = random.Random(2718)
    for _ in range(150):
        f = random_formula(rng, names=("p", "q"), depth=4, ops="succ")
        plain = decide(f, Signature.SUCC)
        short = decide(f, Signature.SUCC, derived=True)
        assert isinstance(plain, Proved) == isinstance(short, Proved), render(f)


# The model of ((q > q) > s > s) > ~~p with derived rules: the full system
# has none to pair, and in the succ system complete() finds this one.
_WORST_DERIVED = {Signature.FULL: {"p": "0", "q": "0", "s": "n"},
                  Signature.SUCC: {"p": "n", "q": "0", "s": "b"}}


@pytest.mark.parametrize("system", list(Signature), ids=lambda s: s.value)
def test_derived_rules_take_the_search(monkeypatch, system):
    """decide answers derived=True calls by its search, without complete():
    in the succ system the search pairs formulas under the derived rules as
    complete() does, and the full system has no pair to apply them to.  The
    verdict and model are those of complete() with derived rules and
    stop_on_open, and so is the tableau read later."""
    rng = random.Random(1729)
    # After the worst input, three whose succ searches go wrong when a
    # derived alternative does not rest on its partner's splits.
    pool = [parse(text) for text in ("((q > q) > s > s) > ~~p", "q | [](r > [][]r)",
                                     "p > [](~~p | <>[]bot)", "q | (r > [](r | q & p))")]
    for ops, depth in [("full", 3), ("succ", 2), ("mixed", 2)] * 100:
        pool.append(random_formula(rng, names=("p", "q", "r"), depth=depth, ops=ops))
    def refuse(*args, **kwargs):
        raise AssertionError("complete() was called")

    with monkeypatch.context() as patched:
        patched.setattr(tableau, "complete", refuse)
        verdicts = [decide(f, system, derived=True) for f in pool]
    assert verdicts[0].model == _WORST_DERIVED[system]
    for f, verdict in zip(pool[1:], verdicts[1:]):
        g = translate(f, system)
        tab = complete([F(g)], system, derived=True, stop_on_open=True)
        assert isinstance(verdict, Proved) == tab.closed, render(f)
        if not tab.closed:
            model = extract_model(tab.open_branches()[0], names=variables(g))
            assert list(verdict.model.items()) == list(model.items()), render(f)
        assert format_tableau(verdict.tableau) == format_tableau(tab), render(f)
        if system is Signature.FULL:
            plain = decide(f, system)
            assert getattr(verdict, "model", None) == getattr(plain, "model", None), render(f)


def test_derived_pair_actually_fires():
    s = Succ(P, Q)
    tableau = complete([T(s), T(Neg(s))], Signature.SUCC, derived=True)
    labels = set()

    def walk(node):
        if node.rule:
            labels.add(node.rule)
        for child in node.children:
            walk(child)

    walk(tableau.root)
    assert any("+" in label for label in labels), labels
    # and with the shortcut off the verdict is the same
    plain = complete([T(s), T(Neg(s))], Signature.SUCC)
    assert tableau.closed == plain.closed


def test_derived_pairs_all_sign_combinations_agree():
    s = Succ(P, Q)
    for s1 in ("T", "F"):
        for s2 in ("T", "F"):
            roots = [SignedFormula(s1, s), SignedFormula(s2, Neg(s))]
            with_shortcut = complete(roots, Signature.SUCC, derived=True)
            without = complete(roots, Signature.SUCC)
            assert with_shortcut.closed == without.closed, (s1, s2)
            if not without.closed:
                # both find a model satisfying the roots
                for tab in (with_shortcut, without):
                    model = extract_model(tab.open_branches()[0], names=["p", "q"])
                    assert all(satisfies(model, sf) for sf in roots)


# --- tree rendering ----------------------------------------------------------


def test_format_tableau_smoke():
    result = decide(parse("p > p"), Signature.SUCC)
    text = format_tableau(result.tableau)
    assert "F(p > p)" in text
    assert "[F(>)]" in text
    assert "* closed:" in text


def test_close_reasons_name_the_closing_formulas():
    assert Node(added=[]).close_reason is None
    node = complete([T(P), F(P)], Signature.SUCC).root
    assert node.closed_by == (F(P), T(P))
    assert node.close_reason == "F(p) conflicts with T(p)"
    node = complete([T(Bot())], Signature.SUCC).root
    assert node.close_reason == "T(bot) is unsatisfiable"


def test_format_tableau_shows_open_branch_literals():
    result = decide(parse("p"), Signature.SUCC)
    assert isinstance(result, Refuted)
    text = format_tableau(result.tableau)
    assert "F(p)" in text


def test_rule_labels():
    result = decide(parse("~~p"), Signature.SUCC)
    text = format_tableau(result.tableau)
    assert "[F(~~)]" in text
    result = decide(parse("~[]p"), Signature.FULL)
    text = format_tableau(result.tableau)
    assert "[F(~[])]" in text


# --- tree text and branch bookkeeping ----------------------------------------


def _decide_pool():
    """About 2,000 seeded decide calls: formulas native to each system and
    mixed ones decided across signatures, with derived rules off and on and
    some random expansion orders."""
    rng = random.Random(8)
    for i in range(1000):
        native = Signature.FULL if i % 2 else Signature.SUCC
        ops = "full" if native is Signature.FULL else "succ"
        f = random_formula(rng, names=("p", "q", "r"), depth=5, ops=ops)
        derived = native is Signature.SUCC and i % 4 == 0
        yield f, native, derived, random.Random(i) if i % 3 == 0 else None
        g = random_formula(rng, names=("p", "q"), depth=3, ops="mixed")
        other = Signature.SUCC if native is Signature.FULL else Signature.FULL
        yield g, other, other is Signature.SUCC and i % 4 == 1, (
            random.Random(-i) if i % 5 == 0 else None)


def test_tableau_text_is_pinned():
    """The sha256 of format_tableau and the countermodel over the pool.  The
    digest pins every tree (rule labels, close reasons, branch order) and
    every reported model, so an engine change that is meant to keep the
    trees must leave it as it is."""
    digest = hashlib.sha256()
    calls = 0
    for f, system, derived, order in _decide_pool():
        result = decide(f, system, derived=derived, rng=order)
        digest.update(format_tableau(result.tableau).encode())
        if isinstance(result, Refuted):
            digest.update(repr(sorted(result.model.items())).encode())
        else:
            digest.update(b"proved")
        calls += 1
    assert calls == 2000
    assert digest.hexdigest() == (
        "356dff45c00489c941f8b7406119ab9794a33bd3430a8d372300f63c9b295468")


def _leaf_walk(root, branch):
    """The nodes from the root to the branch's leaf: the only child, or the
    branch's path index at a split."""
    nodes = [root]
    splits = iter(branch.path)
    while nodes[-1].children:
        children = nodes[-1].children
        nodes.append(children[0] if len(children) == 1 else children[next(splits)])
    assert next(splits, None) is None
    return nodes


# A case's id names its expansion order, rule set and system, and ends in
# -stopped when complete() stops at the first open branch.
_TREE_CASES = [
    pytest.param(system, derived, ordered, stop_on_open, id="-".join(
        [("fifo", "rng")[ordered], ("plain", "derived")[derived], system.value]
        + ["stopped"] * stop_on_open))
    for stop_on_open in (False, True) for ordered in (False, True)
    for derived in (False, True) for system in Signature]


def _same_nodes(stopped, finished):
    """Check that every node of the stopped tree equals the node at the same
    place in the finished one, where a node left unexpanded has no children,
    and return the number of nodes checked."""
    count = 0
    stack = [(stopped, finished)]
    while stack:
        node, twin = stack.pop()
        assert (node.added, node.rule, node.close_reason) == (
            twin.added, twin.rule, twin.close_reason)
        if node.children:
            assert len(node.children) == len(twin.children)
            stack.extend(zip(node.children, twin.children))
        count += 1
    return count


@pytest.mark.parametrize("system, derived, ordered, stop_on_open", _TREE_CASES)
def test_finished_branches_match_the_tree(system, derived, ordered, stop_on_open):
    rng = random.Random(f"{system.value}-{derived}-{ordered}")
    ops = "succ" if system is Signature.SUCC else "full"
    unexplored = 0
    for i in range(60):
        f = random_formula(rng, names=("p", "q", "r"), depth=4, ops=ops)
        roots = [F(translate(f, system))]
        order = random.Random(i) if ordered else None
        tab = complete(roots, system, derived=derived, rng=order, stop_on_open=stop_on_open)
        for branch in tab.branches:
            nodes = _leaf_walk(tab.root, branch)
            assert branch.root is tab.root and branch.node is nodes[-1]
            assert branch.formulas == [sf for node in nodes for sf in node.added]
            assert branch.closed == nodes[-1].closed
        # Branches finish leftmost-first: their paths strictly increase.
        paths = [branch.path for branch in tab.branches]
        assert all(a < b for a, b in zip(paths, paths[1:])), render(f)
        if not stop_on_open:
            continue
        # A stopped tree is the finished tree up to its first open branch,
        # and shows what each alternative it left behind adds.
        order = random.Random(i) if ordered else None
        finished = complete(roots, system, derived=derived, rng=order)
        opened = [k for k, branch in enumerate(finished.branches) if not branch.closed]
        kept = finished.branches[:opened[0] + 1] if opened else finished.branches
        assert paths == [branch.path for branch in kept], render(f)
        assert [b.closed for b in tab.branches] == [b.closed for b in kept], render(f)
        explored = {id(node) for branch in tab.branches for node in _leaf_walk(tab.root, branch)}
        unexplored += _same_nodes(tab.root, finished.root) - len(explored)
    # Some of the stopped trees left alternatives behind for the check.
    assert unexplored or not stop_on_open


def test_adding_a_formula_interns_no_complement(monkeypatch):
    # A complement built only to be tested would leave the table as soon as
    # it died, so record every key that enters it: recording a tree interns
    # the signed formulas its nodes hold and nothing else.
    entered = []

    def enter(key, node):
        entered.append(key)
        return hashcons.enter(key, node)

    f = Succ(Var("complement_probe_a"), Var("complement_probe_b"))
    atom = Var("complement_probe_c")
    signed = T(f), F(atom)
    monkeypatch.setattr(tableau, "enter", enter)
    tab = complete(signed, Signature.SUCC)
    assert tab.root.added == list(signed) and tab.root.children
    recorded, stack = set(), [tab.root]
    while stack:
        node = stack.pop()
        recorded.update((sf.sign, sf.formula) for sf in node.added)
        stack.extend(node.children)
    assert sorted(map(repr, entered)) == sorted(map(repr, recorded - {("T", f), ("F", atom)}))
    assert ("F", f) not in hashcons.TABLE
    assert ("T", atom) not in hashcons.TABLE
    # an existing complement is still found
    root = complete([F(atom), T(atom)], Signature.SUCC).root
    assert root.closed and root.closed_by == (T(atom), F(atom))


_P_TO_P = expand(F(Succ(P, P)), Signature.SUCC)


@pytest.mark.parametrize("alternatives", [
    [[T(P), T(P), F(Q)], [F(Q), T(Neg(Neg(P)))]],
    [[T(Neg(Neg(P))), T(Bot()), T(Q)], [F(Q)]],
    [[F(Neg(Top())), F(Top()), T(Q)]],
    [_P_TO_P[0], [T(Q)]],
    [[F(P), F(Neg(Neg(Q)))], [T(Q), T(P), F(Q)]],
    [[F(Succ(P, Q)), T(Neg(P)), F(Neg(Q))], [T(Succ(P, Q)), F(Succ(P, Q))]],
    [[F(Bot()), T(Neg(Bot())), F(Neg(P)), T(P)], _P_TO_P[1]],
], ids=["repeat", "closing-constant", "closing-top", "conflict-in-row",
        "conflict-f-first", "conflict-expands", "open"])
def test_extend_matches_one_formula_at_a_time(alternatives):
    """The root of complete() over the alternatives' formulas holds what
    the reference records one formula at a time, and its first rule
    expands the oldest formula left pending."""
    signed = [sf for alt in alternatives for sf in alt]
    system = Signature.SUCC if all(
        in_signature(sf.formula, Signature.SUCC) for sf in signed) else Signature.FULL
    root = complete(signed, system, stop_on_open=True).root
    added, pending, closed_by = reference_branch(signed)
    assert root.added == added
    assert root.closed_by == closed_by
    assert root.closed is (closed_by is not None)
    if closed_by is None and pending:
        label = tableau._rule(pending[0].sign, pending[0].formula, system)[0]
        assert [child.rule for child in root.children] == [label] * len(
            expand(pending[0], system))
    else:
        assert root.children == []


# --- cached rule data and the paused cycle collector --------------------------


_LITERAL_SHAPES = {(Var, None), (Bot, None), (Top, None), (Neg, Var), (Neg, Bot), (Neg, Top)}


def _instantiated_signed_formulas():
    """Every signed formula the rule tables build from a and b: the principal
    formulas of both systems and of the derived rules, and what they add."""
    out = set()
    s = Succ(A, B)
    for system in Signature:
        for sf in table_premises(system):
            out.add(sf)
            out.update(added for alt in expand(sf, system) for added in alt)
    for plain, neg in tableau._DERIVED_RULES:
        premises = SignedFormula(plain, s), SignedFormula(neg, Neg(s))
        out.update(premises)
        out.update(added for alt in expand_derived(*premises) for added in alt)
    return out


def _key(sign, formula):
    """The TABLE key of sign(formula), the reference SignedFormula.__new__
    inlines.  Keys of formulas start with a type, so a sign cannot collide
    with them."""
    return sign, formula


def test_cached_kind_matches_the_reference():
    constants = (Bot(), Top(), Neg(Bot()), Neg(Top()))
    signed = _instantiated_signed_formulas() | {
        sf for f in constants for sf in (T(f), F(f))}
    kinds = set()
    for sf in signed:
        assert hashcons.TABLE[_key(sf.sign, sf.formula)]() is sf, str(sf)
        if tableau._shape(sf.formula) not in _LITERAL_SHAPES:
            expected = tableau._EXPANDS
        elif any(satisfies(h, sf) for h in valuations(variables(sf.formula))):
            expected = tableau._LITERAL
        else:
            expected = tableau._CLOSES
        assert sf._kind is expected, str(sf)
        kinds.add(expected)
    assert kinds == {tableau._EXPANDS, tableau._LITERAL, tableau._CLOSES}
    closing = {str(sf) for sf in signed if sf._kind is tableau._CLOSES}
    assert closing == {"T(bot)", "F(~bot)", "F(top)", "T(~top)"}


def _compiled_rules():
    """Each compiled rule of both systems and of the derived rules, with a
    principal it applies to, over the same pool of principals, and again
    with a and b read as formulas of each shape a rule can meet."""
    instances = [(A, B)] + [(x, y) for x in (Bot(), Top(), Neg(A), Neg(Bot()), Succ(A, B))
                            for y in (Neg(Top()), And(A, B), Box(A), B)]
    for a, b in instances:
        binding = {"a": a, "b": b}
        for system in Signature:
            for sf in table_premises(system):
                g = syntax.instantiate(sf.formula, binding)
                if in_signature(g, system):
                    yield tableau._INDEX[system][(sf.sign, *tableau._shape(g))][1], g
        if in_signature(Succ(a, b), Signature.SUCC):
            for signs in tableau._DERIVED_RULES:
                yield tableau._DERIVED[signs], Succ(a, b)


def test_compiled_kinds_match_the_signed_formulas():
    """A compiled rule reads each triple's kind itself; it must be the kind
    SignedFormula.__new__ records for the same sign and formula."""
    kinds = set()
    for rule, g in _compiled_rules():
        for alt in rule(g):
            for sign, formula, kind in alt:
                assert kind is SignedFormula(sign, formula)._kind, f"{sign}({render(formula)})"
                kinds.add(kind)
    assert kinds == {tableau._EXPANDS, tableau._LITERAL, tableau._CLOSES}


@pytest.fixture
def restore_collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


_PAUSED_CALLS = {
    "decide": lambda rng: decide(parse("p > q"), Signature.SUCC, rng=rng),
    "complete": lambda rng: complete([F(parse("p > q"))], Signature.SUCC, rng=rng),
}


@pytest.mark.parametrize("call", list(_PAUSED_CALLS))
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_the_collector_is_paused_for_the_call(call, enabled, fails, restore_collector):
    """Off inside the call; afterwards as it was before, whether the call
    returns or raises and whether the caller had switched it off."""
    seen = []

    class Order:
        def randrange(self, n):
            seen.append(gc.isenabled())
            if fails:
                raise RuntimeError("no order")
            return 0

    if enabled:
        gc.enable()
    else:
        gc.disable()
    if fails:
        with pytest.raises(RuntimeError, match="no order"):
            _PAUSED_CALLS[call](Order())
    else:
        _PAUSED_CALLS[call](Order())
    assert seen and not any(seen)
    assert gc.isenabled() is enabled


def test_concurrent_calls_leave_the_collector_on(restore_collector):
    """Threads share the collector's switch.  Calls that overlap may cut one
    another's pause short, but once they are all done it is on again."""
    gc.enable()
    formulas = [random_formula(random.Random(i), depth=4, ops="full") for i in range(40)]
    errors = []

    def work():
        try:
            for f in formulas:
                complete([F(translate(f, Signature.FULL))], Signature.FULL)
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert gc.isenabled()


def test_a_call_that_finds_the_collector_off_leaves_it_alone(monkeypatch):
    """The interleaving that could leave the collector off for good: call B
    reads the switch while call A holds it off, and A ends before B acts on
    what it read.  B must not touch the switch then.  A stand-in for the gc
    module holds B between its read and any later switch until A is done."""
    a_done, b_read = threading.Event(), threading.Event()
    errors = []

    class Switch:
        on = True

        def isenabled(self):
            if threading.current_thread() is b:
                b_read.set()
            return self.on

        def disable(self):
            if threading.current_thread() is b:
                a_done.wait(timeout=10)
            self.on = False

        def enable(self):
            self.on = True

    class Order:  # A's expansion order: starts B and waits for its read
        def randrange(self, n):
            if b.ident is None:
                b.start()
            assert b_read.wait(timeout=10)
            return 0

    def call_b():
        try:
            complete([F(parse("p > q"))], Signature.SUCC)
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    switch = Switch()
    monkeypatch.setattr(tableau, "gc", switch)
    b = threading.Thread(target=call_b)
    decide(parse("p > q"), Signature.SUCC, rng=Order())
    assert switch.on
    a_done.set()
    b.join(timeout=10)
    assert not b.is_alive() and errors == []
    assert switch.on


def test_the_engine_builds_no_reference_cycles(restore_collector):
    """Pausing the collector frees nothing late only because decide, its
    trees and format_tableau leave no garbage that needs a collection pass:
    dropping the results must free everything by reference counting."""
    gc.collect()
    gc.disable()
    results = []
    for f, system, derived, order in _decide_pool():
        result = decide(f, system, derived=derived, rng=order)
        format_tableau(result.tableau)
        results.append(result)
    assert len(results) == 2000
    del result, results
    assert gc.collect() == 0
