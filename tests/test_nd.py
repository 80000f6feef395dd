import inspect
import random
import re

import pytest

import helpers
from helpers import LANGUAGE_TYPES, convert_at
from proofgen import (
    DETOUR_KINDS,
    MarkerSupply,
    inject_detour,
    inject_permutation,
    inject_removal,
    proof_size,
    random_injected_proof,
    random_proof,
)
from tml import nd
from tml.errors import InvariantViolation
from tml.semantics import consequence
from tml.syntax import (
    IN_ND,
    TOP,
    And,
    Bot,
    Box,
    Neg,
    Or,
    ParseError,
    Var,
    complexity,
    parse,
    render,
    subformulas,
)

P = Var("p")
Q = Var("q")


def judgement(proof):
    j = nd.check(proof)
    return sorted(render(f) for f in j.open_assumptions), render(j.conclusion)


# --- record constructors ---------------------------------------------------


# Each record with its constructor's signature and the end of the TypeError
# a call with no arguments raises.
RECORD_CONSTRUCTORS = [
    (nd.Assume, "(formula, marker=None)", "1 required positional argument: 'formula'"),
    (nd.MA, "(formula)", "1 required positional argument: 'formula'"),
    (nd.Rule, "(tag, conclusion, premises, discharges=())",
     "3 required positional arguments: 'tag', 'conclusion', and 'premises'"),
    (nd.Judgement, "(open_assumptions, conclusion)",
     "2 required positional arguments: 'open_assumptions' and 'conclusion'"),
    (nd.Segment, "(formula, positions)",
     "2 required positional arguments: 'formula' and 'positions'"),
    (nd.CutReport, "(segments, cuts, cutrank, critical)",
     "4 required positional arguments: 'segments', 'cuts', 'cutrank', and 'critical'"),
]


@pytest.mark.parametrize("record, signature, missing", RECORD_CONSTRUCTORS,
                         ids=[record.__name__ for record, _, _ in RECORD_CONSTRUCTORS])
def test_record_constructors_take_their_fields_in_order(record, signature, missing):
    assert str(inspect.signature(record)) == signature
    with pytest.raises(TypeError) as raised:
        record()
    assert str(raised.value) == f"{record.__name__}.__init__() missing {missing}"


def test_rule_keeps_premises_and_discharges_as_tuples():
    rule = nd.Rule("OrE", P, [nd.Assume(P)], [("u", P)])
    assert rule.premises == (nd.Assume(P),) and rule.discharges == (("u", P),)
    assert nd.Rule("AndI", P, iter([])).discharges == ()


# --- checking: leaves and simple pins ---------------------------------------


def test_assume_judgement():
    assert judgement(nd.Assume(P, "u")) == (["p"], "p")
    assert judgement(nd.Assume(P)) == (["p"], "p")


def test_ma_judgement():
    assert judgement(nd.ma(P)) == ([], "p | ~[]p")
    assert judgement(nd.MA(parse("(p & q) | ~[](p & q)"))) == ([], "p & q | ~[](p & q)")


def test_ma_shape_enforced():
    with pytest.raises(nd.SchemaError):
        nd.check(nd.MA(parse("p | ~[]q")))
    with pytest.raises(nd.SchemaError):
        nd.check(nd.MA(parse("p | []p")))


def test_box_e_schema_error_pin():
    bad = nd.Rule("BoxE", P, (nd.Assume(Q, "u"),))
    with pytest.raises(nd.SchemaError):
        nd.check(bad)


def test_unknown_tag_rejected():
    with pytest.raises(nd.SchemaError):
        nd.check(nd.Rule("Frobnicate", P, (nd.Assume(P),)))


def test_rule_sets_match_the_written_out_ones():
    # nd reads its rule sets off the schemas; helpers writes them out.
    assert nd.TAGS == helpers.I_TAGS | helpers.E_TAGS == frozenset(nd._SCHEMAS)
    assert nd.I_TAGS == helpers.I_TAGS
    assert nd.E_TAGS == helpers.E_TAGS
    assert nd.DEL_TAGS == helpers.DEL_TAGS
    assert nd.CUT_E_TAGS == helpers.CUT_E_TAGS


@pytest.mark.parametrize("text", ["top", "<>p", "p > q", "[](p > q)"])
def test_language_guard(text):
    f = parse(text)
    with pytest.raises(nd.SchemaError):
        nd.check(nd.Assume(f))
    with pytest.raises(nd.SchemaError):
        nd.check(nd.bot_e(nd.Assume(Bot()), f))


def _nested(f, depth):
    """f under depth proof-language connectives."""
    wrappers = (Neg, Box, lambda a: And(a, Q), lambda a: Or(P, a))
    for i in range(depth):
        f = wrappers[i % len(wrappers)](f)
    return f


@pytest.mark.parametrize("depth", [0, 1, 50])
def test_language_error_names_the_leftmost_part(depth):
    left, right = _nested(parse("<>p"), depth), _nested(TOP, depth)
    cases = [(And(left, right), "<>p"), (_nested(And(left, right), depth), "<>p"),
             (Or(_nested(P, depth), right), "top")]
    for f, named in cases:
        first = next(g for g in subformulas(f) if type(g) not in LANGUAGE_TYPES[IN_ND])
        assert render(first) == named
        message = (f"formula {named} is outside the proof language "
                   "(bot, variables, ~, &, |, [])")
        for proof in (nd.Assume(f), nd.Rule("AndE1", f, (nd.Assume(And(f, Q)),))):
            with pytest.raises(nd.SchemaError, match=f"^{re.escape(message)}$"):
                nd.check(proof)


# --- checking: every rule schema ----------------------------------------------


def test_rule_schemas_positive():
    a = nd.Assume
    cases = [
        (nd.and_i(a(P), a(Q)), "p & q"),
        (nd.and_e1(a(parse("p & q"))), "p"),
        (nd.and_e2(a(parse("p & q"))), "q"),
        (nd.neg_and_i1(a(parse("~p")), Q), "~(p & q)"),
        (nd.neg_and_i2(a(parse("~q")), P), "~(p & q)"),
        (nd.or_i1(a(P), Q), "p | q"),
        (nd.or_i2(a(Q), P), "p | q"),
        (nd.neg_or_i(a(parse("~p")), a(parse("~q"))), "~(p | q)"),
        (nd.neg_or_e1(a(parse("~(p | q)"))), "~p"),
        (nd.neg_or_e2(a(parse("~(p | q)"))), "~q"),
        (nd.neg_neg_i(a(P)), "~~p"),
        (nd.neg_neg_e(a(parse("~~p"))), "p"),
        (nd.box_e(a(parse("[]p"))), "p"),
        (nd.neg_box_i(a(parse("~p"))), "~[]p"),
        (nd.neg_box_e(a(parse("~[]p")), a(P)), "~p"),
        (nd.bot_i(a(parse("~p & []p"))), "bot"),
        (nd.bot_e(a(Bot()), parse("q | r")), "q | r"),
    ]
    for proof, want in cases:
        assert render(nd.check(proof).conclusion) == want


def test_or_e_and_neg_and_e_schemas():
    major = nd.Assume(parse("p | q"))
    proof = nd.or_e(major, nd.Assume(P, "u"), nd.Assume(P), "u", "v")
    # second minor leaves p open, first is discharged
    opens, conc = judgement(proof)
    assert conc == "p"
    assert opens == ["p", "p | q"]

    major = nd.Assume(parse("~(p & q)"))
    proof = nd.neg_and_e(major, nd.Assume(parse("r")), nd.Assume(parse("r")), "u", "v")
    opens, conc = judgement(proof)
    assert conc == "r"
    assert opens == ["r", "~(p & q)"]


def test_box_i_schema_and_discharge():
    refutation = nd.bot_i(nd.and_i(nd.Assume(parse("~p"), "u"), nd.Assume(parse("[]p"))))
    proof = nd.box_i(nd.Assume(P), refutation, "u")
    opens, conc = judgement(proof)
    assert conc == "[]p"
    assert opens == ["[]p", "p"]


def test_rule_conclusion_must_match_schema():
    # a conclusion the schema does not force is rejected for every rule kind;
    # the message starts with the tag and names the part that does not fit
    a = nd.Assume
    zz = Var("zz")
    bad = [
        ("conclusion", nd.Rule("AndI", zz, (a(P), a(Q)))),
        ("conclusion", nd.Rule("AndE1", Q, (a(parse("p & q")),))),
        ("conclusion", nd.Rule("AndE2", P, (a(parse("p & q")),))),
        ("conclusion", nd.Rule("NegAndI1", parse("~(q & p)"), (a(parse("~p")),))),
        ("premise 2", nd.Rule("NegAndE", P, (a(parse("~(p & q)")), a(P), a(Q)),
                              (("u", parse("~p")), ("v", parse("~q"))))),
        ("conclusion", nd.Rule("OrI1", parse("q | p"), (a(P),))),
        ("discharge 0", nd.Rule("OrE", P, (a(parse("p | q")), a(P), a(P)),
                                (("u", Q), ("v", P)))),
        ("conclusion", nd.Rule("NegOrI", parse("~(q | p)"),
                               (a(parse("~p")), a(parse("~q"))))),
        ("conclusion", nd.Rule("NegOrE1", parse("~q"), (a(parse("~(p | q)")),))),
        ("conclusion", nd.Rule("NegNegI", parse("~~q"), (a(P),))),
        ("conclusion", nd.Rule("NegNegE", Q, (a(parse("~~p")),))),
        ("conclusion", nd.Rule("BoxI", parse("[]q"), (a(P), a(Bot())),
                               (("u", parse("~p")),))),
        ("premise 1", nd.Rule("BoxI", parse("[]p"), (a(P), a(P)), (("u", parse("~p")),))),
        ("discharge 0", nd.Rule("BoxI", parse("[]p"), (a(P), a(Bot())),
                                (("u", parse("~q")),))),
        ("conclusion", nd.Rule("BoxE", Q, (a(parse("[]p")),))),
        ("conclusion", nd.Rule("NegBoxI", parse("~[]q"), (a(parse("~p")),))),
        ("conclusion", nd.Rule("NegBoxE", parse("~q"), (a(parse("~[]p")), a(P)))),
        ("premise 1", nd.Rule("NegBoxE", parse("~p"), (a(parse("~[]p")), a(Q)))),
        ("premise", nd.Rule("BotI", Bot(), (a(parse("~p & []q")),))),
        ("conclusion", nd.Rule("BotI", P, (a(parse("~p & []p")),))),
        ("premise", nd.Rule("BotE", P, (a(Q),))),
        ("takes 2 premise(s), got 1", nd.Rule("AndI", parse("p & q"), (a(P),))),
        ("takes 1 premise(s), got 2", nd.Rule("AndE1", P, (a(parse("p & q")), a(Q)))),
        ("takes 2 discharge(s), got 0", nd.Rule("OrE", P, (a(parse("p | q")), a(P), a(P)))),
        ("takes 0 discharge(s), got 1", nd.Rule("AndI", parse("p & q"), (a(P), a(Q)),
                                         (("u", P),))),
    ]
    for role, proof in bad:
        with pytest.raises(nd.SchemaError) as caught:
            nd.check(proof)
        message = str(caught.value)
        assert (message.startswith(f"{proof.tag} {role} must be ")
                or message == f"{proof.tag} {role}"), message


@pytest.mark.parametrize("proof,message", [
    (nd.Rule("AndE2", P, (nd.Assume(parse("p & q")),)), "AndE2 conclusion must be q"),
    (nd.Rule("BoxE", P, (nd.Assume(P),)), "BoxE premise must be a box"),
    (nd.Rule("BotI", Bot(), (nd.Assume(parse("~p & []q")),)),
     "BotI premise must be ~p & []p"),
    (nd.MA(parse("p | ~[]q")), "MA formula must be p | ~[]p"),
])
def test_schema_error_messages(proof, message):
    with pytest.raises(nd.SchemaError, match=f"^{re.escape(message)}$"):
        nd.check(proof)


# --- checking: discharge discipline ---------------------------------------------


def test_marker_must_name_one_formula():
    with pytest.raises(nd.DischargeError):
        nd.check(nd.and_i(nd.Assume(P, "u"), nd.Assume(Q, "u")))


def test_marker_discharged_once():
    inner = nd.or_e(nd.Assume(parse("p | q")), nd.Assume(P, "u"),
                    nd.Assume(P), "u", "v")
    outer = nd.or_e(nd.Assume(parse("p | q")), inner, nd.Assume(P), "u", "w")
    with pytest.raises(nd.DischargeError):
        nd.check(outer)


def _carrying(f, marker, g):
    """A derivation of g that leaves the assumption f, marked, open."""
    return nd.and_e2(nd.and_i(nd.Assume(f, marker), nd.Assume(g)))


R = Var("r")
NP, NQ = Neg(P), Neg(Q)
_OR_E = (("u", P), ("v", Q))
_NEG_AND_E = (("u", NP), ("v", NQ))


# Each discharging rule with a marked assumption outside its discharge's
# scope: in the major premise, or in the minor that the other discharge
# scopes over.  Discharge k scopes over premise k + 1, so the message names
# the premise the class is open in and premise k + 1.
@pytest.mark.parametrize("tag, conclusion, premises, discharges, open_in, scope", [
    ("OrE", R, (nd.or_i1(nd.Assume(P, "u"), Q), nd.Assume(R), nd.Assume(R)), _OR_E, 0, 1),
    ("OrE", R, (nd.or_i2(nd.Assume(Q, "v"), P), nd.Assume(R), nd.Assume(R)), _OR_E, 0, 2),
    ("OrE", R, (nd.Assume(Or(P, Q)), nd.Assume(R), _carrying(P, "u", R)), _OR_E, 2, 1),
    ("OrE", R, (nd.Assume(Or(P, Q)), _carrying(Q, "v", R), nd.Assume(R)), _OR_E, 1, 2),
    ("NegAndE", R, (nd.neg_and_i1(nd.Assume(NP, "u"), Q), nd.Assume(R), nd.Assume(R)),
     _NEG_AND_E, 0, 1),
    ("NegAndE", R, (nd.neg_and_i2(nd.Assume(NQ, "v"), P), nd.Assume(R), nd.Assume(R)),
     _NEG_AND_E, 0, 2),
    ("NegAndE", R, (nd.Assume(Neg(And(P, Q))), nd.Assume(R), _carrying(NP, "u", R)),
     _NEG_AND_E, 2, 1),
    ("NegAndE", R, (nd.Assume(Neg(And(P, Q))), _carrying(NQ, "v", R), nd.Assume(R)),
     _NEG_AND_E, 1, 2),
    ("BoxI", Box(P), (_carrying(NP, "u", P), nd.Assume(Bot())), (("u", NP),), 0, 1),
], ids=["OrE-u-in-major", "OrE-v-in-major", "OrE-u-in-minor-2", "OrE-v-in-minor-1",
        "NegAndE-u-in-major", "NegAndE-v-in-major", "NegAndE-u-in-minor-2",
        "NegAndE-v-in-minor-1", "BoxI"])
def test_discharge_scope_enforced(tag, conclusion, premises, discharges, open_in, scope):
    bad = nd.Rule(tag, conclusion, premises, discharges)
    marker = discharges[scope - 1][0]
    with pytest.raises(nd.DischargeError) as caught:
        nd.check(bad)
    assert str(caught.value) == (f"marker {marker!r} is open in premise {open_in} of {tag}, "
                                 f"outside its discharge scope (premise {scope})")


def test_discharge_class_formula_must_match():
    # marker u names p but OrE wants to discharge it as the left disjunct q
    bad = nd.Rule("OrE", P,
                  (nd.Assume(parse("q | r")), nd.Assume(P, "u"), nd.Assume(P)),
                  (("u", Q), ("v", parse("r"))))
    with pytest.raises((nd.DischargeError, nd.SchemaError)):
        nd.check(bad)


def test_check_visits_each_shared_node_once(monkeypatch):
    # 12 levels of d = and_e1(and_i(d, d)): 25 distinct nodes, but a tree
    # walk would check the innermost AndI 2**11 times.
    d = nd.Assume(P)
    for _ in range(12):
        d = nd.and_e1(nd.and_i(d, d))
    visits = {}
    schema_check = nd._schema_check

    def counted(node):
        visits[id(node)] = visits.get(id(node), 0) + 1
        schema_check(node)

    monkeypatch.setattr(nd, "_schema_check", counted)
    assert nd.check(d) == nd.Judgement(frozenset([P]), P)
    assert len(visits) == 24
    assert set(visits.values()) == {1}


def test_shared_discharge_fails_as_in_the_tree():
    # Checked as a tree, the second copy of the OrE discharges u again.
    minor1 = nd.or_i1(nd.Assume(P, "u"), Q)
    minor2 = nd.or_i2(nd.Assume(Q, "v"), P)
    shared = nd.or_e(nd.Assume(parse("p | q")), minor1, minor2, "u", "v")
    assert nd.check(shared).conclusion == parse("p | q")
    with pytest.raises(nd.DischargeError,
                       match="^marker 'u' is discharged by two rule applications$"):
        nd.check(nd.and_i(shared, shared))


def test_shared_subtree_around_a_discharge_fails_as_in_the_tree():
    # The discharging OrE sits inside a larger shared subtree x, so the
    # second copy of x discharges u again.
    minor1 = nd.or_i1(nd.Assume(P, "u"), Q)
    minor2 = nd.or_i2(nd.Assume(Q, "v"), P)
    shared = nd.or_e(nd.Assume(parse("p | q")), minor1, minor2, "u", "v")
    x = nd.and_i(shared, nd.Assume(parse("r")))
    assert nd.check(x).conclusion == parse("(p | q) & r")
    with pytest.raises(nd.DischargeError,
                       match="^marker 'u' is discharged by two rule applications$"):
        nd.check(nd.and_i(x, x))


def test_shared_subtree_keeps_its_open_assumptions():
    # The second copy of the shared subtree is not walked again; both its
    # unmarked and its marked assumptions stay open.
    shared = nd.and_i(nd.Assume(P), nd.Assume(Q, "w"))
    proof = nd.and_i(shared, shared)
    assert nd.check(proof) == nd.Judgement(frozenset([P, Q]), And(And(P, Q), And(P, Q)))


def test_discharge_leaves_an_unmarked_assumption_of_its_formula_open():
    # The OrE discharges the class u of p; the unmarked p beside it stays.
    minor1 = nd.or_i1(nd.Assume(P, "u"), Q)
    minor2 = nd.or_i2(nd.Assume(Q, "v"), P)
    discharging = nd.or_e(nd.Assume(parse("p | q")), minor1, minor2, "u", "v")
    opens, conc = judgement(nd.and_i(nd.Assume(P), discharging))
    assert conc == "p & (p | q)"
    assert opens == ["p", "p | q"]


def test_vacuous_discharge_allowed():
    proof = nd.or_e(nd.Assume(parse("p | q")), nd.Assume(parse("r")),
                    nd.Assume(parse("r")), "u", "v")
    opens, conc = judgement(proof)
    assert conc == "r"
    assert opens == ["p | q", "r"]


def test_class_with_several_occurrences_discharges_together():
    site1 = nd.Assume(parse("~p"), "u")
    site2 = nd.Assume(parse("~p"), "u")
    refutation = nd.bot_i(nd.and_i(nd.and_e1(nd.and_i(site1, site2)),
                                   nd.Assume(parse("[]p"))))
    proof = nd.box_i(nd.Assume(P), refutation, "u")
    opens, conc = judgement(proof)
    assert conc == "[]p"
    assert opens == ["[]p", "p"]


# --- builders -------------------------------------------------------------------


def test_builders_reject_wrong_shapes():
    with pytest.raises(ValueError):
        nd.and_e1(nd.Assume(P))
    with pytest.raises(ValueError):
        nd.box_e(nd.Assume(P))
    with pytest.raises(ValueError):
        nd.neg_neg_e(nd.Assume(parse("~p")))
    with pytest.raises(ValueError):
        nd.or_e(nd.Assume(P), nd.Assume(Q), nd.Assume(Q), "u", "v")


@pytest.mark.parametrize("build,message", [
    (lambda: nd.or_e(nd.Assume(parse("p | q")), nd.Assume(P), nd.Assume(Q), "u", "v"),
     "OrE premise 2 must be p"),
    (lambda: nd.bot_i(nd.Assume(P)), "BotI premise must be a conjunction"),
    (lambda: nd.box_i(nd.Assume(P), nd.Assume(Q), "u"), "BoxI premise 1 must be bot"),
])
def test_builders_check_every_premise(build, message):
    # these builders used to return the ill-formed node
    with pytest.raises(nd.SchemaError, match=f"^{re.escape(message)}$"):
        build()
    assert issubclass(nd.SchemaError, ValueError)


def test_ma_builder():
    assert nd.ma(parse("p & q")).formula == parse("(p & q) | ~[](p & q)")


# --- segments and cuts ------------------------------------------------------------


def test_and_detour_is_one_cut_of_rank_one():
    proof = nd.and_e1(nd.and_i(nd.Assume(P), nd.Assume(Q)))
    report = nd.analyze(proof)
    assert len(report.cuts) == 1
    cut = report.cuts[0]
    assert cut.formula == parse("p & q")
    assert cut.length == 1
    assert report.cutrank == complexity(parse("p & q")) == 1
    assert report.critical == (cut,)
    assert not nd.is_normal(proof)


def test_plain_eliminations_are_not_cuts():
    proof = nd.and_e1(nd.box_e(nd.Assume(parse("[](p & q) "))))
    report = nd.analyze(proof)
    assert report.cuts == ()
    assert nd.is_normal(proof)


def test_ma_major_is_not_a_cut():
    proof = nd.or_e(nd.ma(P), nd.Assume(parse("r")), nd.Assume(parse("r")), "u", "v")
    assert nd.analyze(proof).cuts == ()


def test_bot_i_feeding_bot_e_is_not_a_cut():
    falsum = nd.bot_i(nd.and_i(nd.Assume(parse("~p")), nd.Assume(parse("[]p"))))
    proof = nd.bot_e(falsum, Q)
    assert nd.analyze(proof).cuts == ()
    assert nd.is_normal(proof)


def test_segment_through_del_rule():
    minor1 = nd.and_e2(nd.Assume(parse("a & (p & q)"), "u"))
    minor2 = nd.and_e2(nd.Assume(parse("b & (p & q)"), "v"))
    major = nd.Assume(parse("(a & (p & q)) | (b & (p & q))"))
    proof = nd.and_e1(nd.or_e(major, minor1, minor2, "u", "v"))
    report = nd.analyze(proof)
    assert sorted((render(c.formula), c.length) for c in report.cuts) == [
        ("p & q", 2), ("p & q", 2)]
    # both chains share the disjunction elimination as their final element
    ends = {c.positions[-1] for c in report.cuts}
    assert ends == {(0,)}


def test_segments_report_every_occurrence_chain():
    proof = nd.and_e1(nd.and_i(nd.Assume(P), nd.Assume(Q)))
    report = nd.analyze(proof)
    # root, the introduction, and the two leaves each start a segment
    assert sorted(s.positions for s in report.segments) == [
        ((),), ((0,),), ((0, 0),), ((0, 1),)]


# --- atomize_bot --------------------------------------------------------------------


def falsum_proof():
    return nd.bot_i(nd.and_i(nd.Assume(parse("~r")), nd.Assume(parse("[]r"))))


def test_atomize_conjunction():
    proof = nd.bot_e(falsum_proof(), parse("p & q"))
    out = nd.atomize_bot(proof)
    assert out.tag == "AndI"
    assert [x.tag for x in out.premises] == ["BotE", "BotE"]
    assert nd.check(out).conclusion == parse("p & q")


def test_atomize_box_uses_vacuous_discharge():
    proof = nd.bot_e(falsum_proof(), parse("[]p"))
    out = nd.atomize_bot(proof)
    assert out.tag == "BoxI"
    assert out.premises[0].tag == "BotE"
    assert out.premises[0].conclusion == P
    assert out.premises[1] == falsum_proof() or out.premises[1].tag == "BotI"
    assert out.discharges[0][1] == parse("~p")
    assert nd.check(out).conclusion == parse("[]p")


@pytest.mark.parametrize("target,tag", [
    ("p | q", "OrI1"),
    ("~(p & q)", "NegAndI1"),
    ("~(p | q)", "NegOrI"),
    ("~~p", "NegNegI"),
    ("~[]p", "NegBoxI"),
])
def test_atomize_other_compounds(target, tag):
    proof = nd.bot_e(falsum_proof(), parse(target))
    out = nd.atomize_bot(proof)
    assert out.tag == tag
    assert nd.check(out).conclusion == parse(target)


@pytest.mark.parametrize("target", ["p", "~p", "~bot"])
def test_atomize_keeps_literal_conclusions(target):
    proof = nd.bot_e(falsum_proof(), parse(target))
    assert nd.atomize_bot(proof) == proof


def test_atomize_collapses_bot_conclusion():
    proof = nd.bot_e(falsum_proof(), Bot())
    assert nd.atomize_bot(proof) == falsum_proof()


def test_atomize_idempotent_and_judgement_preserving():
    rng = random.Random(1212)
    for _ in range(60):
        proof = random_proof(rng, fuel=4)
        j0 = nd.check(proof)
        out = nd.atomize_bot(proof)
        j1 = nd.check(out)
        assert j1.conclusion == j0.conclusion
        assert j1.open_assumptions == j0.open_assumptions
        assert nd.atomize_bot(out) == out


def bot_e_conclusions(proof):
    out = []

    def go(t):
        if isinstance(t, nd.Rule):
            if t.tag == "BotE":
                out.append(t.conclusion)
            for x in t.premises:
                go(x)

    go(proof)
    return out


def test_atomize_leaves_only_literal_bot_eliminations():
    rng = random.Random(77)
    literal = lambda f: isinstance(f, Var) or (
        isinstance(f, Neg) and isinstance(f.body, (Var, Bot)))
    for _ in range(80):
        proof = random_proof(rng, fuel=4)
        out = nd.atomize_bot(proof)
        assert all(literal(c) for c in bot_e_conclusions(out))


# --- conversions ----------------------------------------------------------------------


def test_detour_projection():
    proof = nd.and_e1(nd.and_i(nd.Assume(P), nd.Assume(Q)))
    assert convert_at(proof, nd.analyze(proof).cuts[0]) == (nd.Assume(P), "detour")
    proof = nd.neg_neg_e(nd.neg_neg_i(nd.Assume(P)))
    assert convert_at(proof, nd.analyze(proof).cuts[0]) == (nd.Assume(P), "detour")


def test_detour_substitution_hits_every_site():
    d = nd.and_i(nd.Assume(P), nd.Assume(Q))
    chi = parse("p & q")
    minor = nd.and_e1(nd.and_i(nd.Assume(chi, "u"), nd.Assume(chi, "u")))
    proof = nd.or_e(nd.or_i1(d, parse("r")), minor, nd.Assume(chi), "u", "v")
    out, _ = convert_at(proof, nd.analyze(proof).cuts[0])
    j = nd.check(out)
    assert j.conclusion == chi
    # both assumption sites were replaced by the introduced derivation
    assert out.tag == "AndE1"
    assert out.premises[0].premises == (d, d)
    assert nd.analyze(out).cutrank >= 1  # the new AndI/AndE1 cut remains


def test_detour_substitution_refreshes_bound_markers():
    refutation = nd.bot_i(nd.and_i(nd.Assume(parse("~p"), "w"), nd.Assume(parse("[]p"))))
    d = nd.box_i(nd.Assume(P), refutation, "w")
    chi = parse("[]p")
    minor = nd.and_e1(nd.and_i(nd.Assume(chi, "u"), nd.Assume(chi, "u")))
    proof = nd.or_e(nd.or_i1(d, Q), minor, nd.Assume(chi), "u", "v")
    nd.check(proof)
    out, _ = convert_at(proof, nd.analyze(proof).cuts[0])
    # two copies of the boxed derivation now coexist; check would reject
    # them if the discharging marker had not been renamed per copy
    j = nd.check(out)
    assert j.conclusion == chi


def test_conversion_kinds():
    proof = nd.and_e1(nd.and_i(nd.Assume(P), nd.Assume(Q)))
    assert convert_at(proof, nd.analyze(proof).cuts[0])[1] == "detour"

    rng = random.Random(3)
    supply = MarkerSupply("t")
    base = nd.and_i(nd.Assume(P), nd.Assume(Q))
    perm = inject_permutation(rng, base, supply)
    report = nd.analyze(perm)
    crit = max(report.critical, key=lambda s: s.positions[0])
    assert convert_at(perm, crit)[1] == "permutation"

    rem = inject_removal(rng, base, supply)
    report = nd.analyze(rem)
    crit = max(report.critical, key=lambda s: s.positions[0])
    assert convert_at(rem, crit)[1] == "removal"


def test_permutation_pushes_elimination_into_minors():
    minor1 = nd.and_e2(nd.Assume(parse("a & (p & q)"), "u"))
    minor2 = nd.and_e2(nd.Assume(parse("b & (p & q)"), "v"))
    major = nd.Assume(parse("(a & (p & q)) | (b & (p & q))"))
    proof = nd.and_e1(nd.or_e(major, minor1, minor2, "u", "v"))
    cut = max(nd.analyze(proof).critical, key=lambda s: s.positions[0])
    out, kind = convert_at(proof, cut)
    assert kind == "permutation"
    assert out.tag == "OrE"
    assert out.premises[1].tag == "AndE1"
    assert out.premises[2].tag == "AndE1"
    j = nd.check(out)
    assert j.conclusion == P
    assert nd.is_normal(out)


def test_permutation_renames_the_consumers_markers_in_the_copy():
    # The consumer is an OrE, whose discharges go with each pushed copy: the
    # second copy must discharge fresh markers.
    inner = nd.or_e(nd.Assume(parse("p | q")), nd.or_i1(nd.Assume(P, "u"), Q),
                    nd.or_i2(nd.Assume(Q, "v"), P), "u", "v")
    proof = nd.or_e(inner, nd.or_i1(nd.Assume(P, "x"), Q),
                    nd.or_i2(nd.Assume(Q, "y"), P), "x", "y")
    cut = max(nd.analyze(proof).critical, key=lambda s: s.positions[0])
    out, kind = convert_at(proof, cut)
    assert kind == "permutation"
    assert [p.discharges for p in out.premises[1:]] == [
        (("x", P), ("y", Q)), (("m1", P), ("m2", Q))]
    assert nd.check(out) == nd.check(proof)


def test_removal_drops_redundant_elimination():
    d = nd.and_i(nd.Assume(P), nd.Assume(Q))
    minor2 = nd.and_i(nd.Assume(parse("a")), nd.Assume(parse("p & q")))
    major = nd.Assume(parse("a | b"))
    proof = nd.and_e2(nd.or_e(major, nd.and_i(nd.Assume(parse("a")), d),
                              minor2, "u", "v"))
    cut = max(nd.analyze(proof).critical, key=lambda s: s.positions[0])
    out, kind = convert_at(proof, cut)
    assert kind == "removal"
    assert out.tag == "AndE2"
    assert out.premises[0].tag == "AndI"
    assert nd.check(out).conclusion == parse("p & q")


# --- normalization -----------------------------------------------------------------


def test_normalize_simple_detour():
    proof = nd.and_e1(nd.and_i(nd.Assume(P), nd.Assume(Q)))
    assert nd.normalize(proof) == nd.Assume(P)


def test_normalize_reports_steps_and_shrinks_measure():
    rng = random.Random(42)
    proof = random_injected_proof(rng, fuel=3)
    events = []
    out = nd.normalize(proof, observer=events.append)
    assert nd.is_normal(out)
    measures = [e["measure"] for e in events if e["kind"] != "atomize"]
    for before, after in zip(measures, measures[1:]):
        assert after < before


def test_normalize_preserves_judgement_on_injected_proofs():
    rng = random.Random(2026)
    kinds = set()
    for _ in range(120):
        proof = random_injected_proof(rng, fuel=3)
        j0 = nd.check(proof)
        out = nd.normalize(proof, observer=lambda e: kinds.add(e["kind"]))
        j1 = nd.check(out)
        assert j1.conclusion == j0.conclusion
        assert j1.open_assumptions <= j0.open_assumptions
        assert nd.is_normal(out)
        assert nd.normalize(out) == out
    assert kinds >= {"detour", "permutation", "removal", "atomize"}


def test_every_detour_pair_normalizes():
    rng = random.Random(99)
    supply = MarkerSupply("d")
    for kind in DETOUR_KINDS:
        for _ in range(100):
            base = random_proof(rng, fuel=2)
            wrapped = inject_detour(rng, base, supply, kind=kind)
            if wrapped is None:
                continue
            j0 = nd.check(wrapped)
            out = nd.normalize(wrapped)
            j1 = nd.check(out)
            assert j1.conclusion == j0.conclusion
            assert j1.open_assumptions <= j0.open_assumptions
            assert nd.is_normal(out)
            break
        else:
            pytest.fail(f"never built a {kind} detour")


def test_checker_soundness_on_random_proofs():
    rng = random.Random(451)
    for _ in range(200):
        proof = random_proof(rng, fuel=4)
        j = nd.check(proof)
        gamma = sorted(j.open_assumptions, key=render)
        assert consequence(gamma, j.conclusion)


def test_random_proofs_serialize():
    rng = random.Random(8)
    for _ in range(60):
        proof = random_proof(rng, fuel=3)
        assert nd.from_json(nd.to_json(proof)) == proof


# --- builtin examples -----------------------------------------------------------------


EXPECTED_JUDGEMENTS = {
    "lem-i": ([], "[](p | ~[]p)"),
    "lem-ii-fwd": (["~p & p"], "~[]p & p"),
    "lem-ii-bwd": (["~[]p & p"], "~p & p"),
    "lem-ix-fwd": (["[](p & q)"], "[]p & []q"),
    "lem-ix-bwd": (["[]p & []q"], "[](p & q)"),
    "lem-xi-bwd": (["~[]p"], "[]~[]p"),
}


def test_builtin_names():
    assert set(nd.builtin_examples()) == set(EXPECTED_JUDGEMENTS)


@pytest.mark.parametrize("name", sorted(EXPECTED_JUDGEMENTS))
def test_builtin_judgements(name):
    proof = nd.builtin_examples()[name]
    assert judgement(proof) == EXPECTED_JUDGEMENTS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_JUDGEMENTS))
def test_builtins_are_normal(name):
    proof = nd.builtin_examples()[name]
    assert nd.is_normal(proof)
    assert nd.normalize(proof) == proof


@pytest.mark.parametrize("name", sorted(EXPECTED_JUDGEMENTS))
def test_builtins_are_sound(name):
    j = nd.check(nd.builtin_examples()[name])
    gamma = sorted(j.open_assumptions, key=render)
    assert consequence(gamma, j.conclusion)


@pytest.mark.parametrize("name", sorted(EXPECTED_JUDGEMENTS))
def test_builtins_serialize(name):
    proof = nd.builtin_examples()[name]
    assert nd.from_json(nd.to_json(proof)) == proof


# --- serialization ----------------------------------------------------------------------


def test_json_shape():
    proof = nd.or_e(nd.Assume(parse("p | q")), nd.Assume(P, "u"),
                    nd.Assume(P), "u", "v")
    obj = nd.to_json(proof)
    assert obj["rule"] == "OrE"
    assert obj["conclusion"] == "p"
    assert obj["premises"][0] == {"rule": "Assume", "formula": "p | q", "marker": None}
    assert obj["premises"][1] == {"rule": "Assume", "formula": "p", "marker": "u"}
    assert obj["discharges"] == [{"marker": "u", "formula": "p"},
                                 {"marker": "v", "formula": "q"}]
    assert nd.from_json(obj) == proof


def test_json_ma_leaf():
    obj = nd.to_json(nd.ma(P))
    assert obj == {"rule": "MA", "formula": "p | ~[]p"}
    assert nd.from_json(obj) == nd.ma(P)


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        nd.from_json(["not", "a", "proof"])
    with pytest.raises(ValueError):
        nd.from_json({"rule": "NoSuchRule", "conclusion": "p", "premises": []})
    with pytest.raises(ValueError):
        nd.from_json({"rule": "Assume", "formula": "p", "marker": 3})
    with pytest.raises(ValueError):
        nd.from_json({"rule": "BoxI", "conclusion": "[]p",
                      "premises": [{"rule": "MA", "formula": "p | ~[]p"}] * 2,
                      "discharges": [{"marker": ["u"], "formula": "~p"}]})
    with pytest.raises(ValueError, match="^conclusion is missing$"):
        nd.from_json({"rule": "AndI", "premises": []})
    # a wrong field is named, not reported in Python's own words
    with pytest.raises(ValueError, match="^formula must be a string$"):
        nd.from_json({"rule": "Assume", "formula": 5})
    bad_discharge = "^discharges\\[0\\] must be an object with string 'marker' and 'formula'$"
    for discharge in ({"formula": "~p"}, ["u", "~p"]):
        with pytest.raises(ValueError, match=bad_discharge):
            nd.from_json({"rule": "BoxI", "conclusion": "[]p",
                          "premises": [{"rule": "MA", "formula": "p | ~[]p"}] * 2,
                          "discharges": [discharge]})
    with pytest.raises(ValueError, match="unknown rule tag"):
        nd.from_json({"rule": ["AndI"], "conclusion": "p"})


_P_LEAF = {"rule": "Assume", "formula": "p"}


@pytest.mark.parametrize("obj,message", [
    ({"rule": "AndI", "conclusion": "p & p",
      "premises": [_P_LEAF, {"rule": "Assume", "formula": 5}]},
     "^premises\\[1\\]: formula must be a string$"),
    ({"rule": "NegNegE", "conclusion": "p",
      "premises": [{"rule": "NegNegI", "conclusion": "~~p",
                    "premises": [{"rule": "Assume", "formula": "p", "marker": 3}]}]},
     "^premises\\[0\\]\\.premises\\[0\\]: marker must be a string or null$"),
    ({"rule": "BoxE", "conclusion": "p",
      "premises": [{"rule": "BoxI", "conclusion": "[]p", "premises": [],
                    "discharges": [{"marker": "u"}]}]},
     "^premises\\[0\\]: discharges\\[0\\] must be an object with string 'marker' and 'formula'$"),
    ({"rule": "AndI", "conclusion": "p & p",
      "premises": [_P_LEAF, {"rule": "AndE1", "conclusion": "p", "premises": [7]}]},
     "^premises\\[1\\]\\.premises\\[0\\]: proof node must be an object"),
])
def test_from_json_names_where_a_nested_error_sits(obj, message):
    with pytest.raises(ValueError, match=message):
        nd.from_json(obj)


def test_from_json_locates_a_nested_parse_error():
    obj = {"rule": "AndI", "conclusion": "p & p",
           "premises": [_P_LEAF, {"rule": "Assume", "formula": "p &"}]}
    with pytest.raises(ParseError, match="^premises\\[1\\]: parse error at position 4") as caught:
        nd.from_json(obj)
    assert caught.value.position == 4


def _formula_texts(obj):
    """Every formula text in a proof object, with repeats."""
    stack, texts = [obj], []
    while stack:
        node = stack.pop()
        texts += [node[k] for k in ("formula", "conclusion") if k in node]
        texts += [d["formula"] for d in node.get("discharges", [])]
        stack += node.get("premises", [])
    return texts


def test_from_json_parses_each_text_once(monkeypatch):
    obj = nd.to_json(random_injected_proof(random.Random(5), fuel=3))
    texts = _formula_texts(obj)
    assert len(set(texts)) < len(texts)
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(nd, "parse", counting_parse)
    proof = nd.from_json(obj)
    assert sorted(calls) == sorted(set(texts))
    assert nd.to_json(proof) == obj
    nd.from_json(obj)  # a second call parses afresh: nothing is cached across calls
    assert len(calls) == 2 * len(set(texts))


def test_from_json_reports_a_repeated_bad_formula_where_it_first_occurs():
    bad = {"rule": "Assume", "formula": "p &"}
    obj = {"rule": "AndI", "conclusion": "p & p",
           "premises": [_P_LEAF, {"rule": "AndE1", "conclusion": "p", "premises": [bad]}, bad]}
    with pytest.raises(ParseError) as alone:
        parse("p &")
    with pytest.raises(ParseError) as caught:
        nd.from_json(obj)
    assert str(caught.value) == f"premises[1].premises[0]: {alone.value}"


def _negneg_chain(rules):
    """NegNegI and NegNegE applied in turn to p, `rules` deep, concluding p
    for an even number of rules."""
    obj = _P_LEAF
    for level in range(1, rules + 1):
        tag, conclusion = ("NegNegI", "~~p") if level % 2 else ("NegNegE", "p")
        obj = {"rule": tag, "conclusion": conclusion, "premises": [obj]}
    return obj


def test_from_json_reports_an_error_before_a_too_deep_node_first():
    # The walk reads the object in preorder and meets the bad leaf before
    # the first node under more than MAX_PROOF_DEPTH rules.
    obj = {"rule": "AndI", "conclusion": "p & p",
           "premises": [{"rule": "Assume", "formula": 5},
                        {"rule": "NegNegE", "conclusion": "p",
                         "premises": [_negneg_chain(nd.MAX_PROOF_DEPTH)]}]}
    with pytest.raises(ValueError, match="^premises\\[0\\]: formula must be a string$"):
        nd.from_json(obj)


def test_from_json_depth_error_names_no_path():
    depth = nd.MAX_PROOF_DEPTH
    obj = {"rule": "AndI", "conclusion": "p & p", "premises": [_P_LEAF, _negneg_chain(depth)]}
    with pytest.raises(ValueError) as caught:
        nd.from_json(obj)
    assert str(caught.value) == f"proof nested deeper than {depth} rules"
    obj["premises"][1] = _negneg_chain(depth - 2)
    assert nd.check(nd.from_json(obj)).conclusion == parse("p & p")


def test_from_json_locates_a_discharge_parse_error_at_its_rule():
    # Discharges are parsed once the rule's premises are read.
    box_i = {"rule": "BoxI", "conclusion": "[]p",
             "premises": [{"rule": "MA", "formula": "p | ~[]p"}] * 2,
             "discharges": [{"marker": "u", "formula": "~p &"}]}
    for where, obj in (("", box_i), ("premises[1]: ", {"rule": "AndI", "conclusion": "p & []p",
                                                        "premises": [_P_LEAF, box_i]})):
        with pytest.raises(ParseError) as caught:
            nd.from_json(obj)
        assert str(caught.value) == f"{where}parse error at position 5: unexpected end of input"
        assert caught.value.position == 5


def test_from_json_ignores_premises_of_a_leaf_at_any_depth():
    junk = []
    for _ in range(300):
        junk = [{"rule": "Assume", "formula": "p", "premises": junk}]
    obj = {"rule": "NegNegI", "conclusion": "~~p",
           "premises": [{"rule": "Assume", "formula": "p", "premises": junk}]}
    assert nd.from_json(obj) == nd.neg_neg_i(nd.assume(P))


def _rule_depth(proof):
    level, depth = [proof], 0
    while level:
        level = [p for t in level if isinstance(t, nd.Rule) for p in t.premises]
        depth += bool(level)
    return depth


def test_proof_at_the_depth_bound():
    # A detour whose sides are each MAX_PROOF_DEPTH - 1 rules deep: its
    # conversion puts the major side in place of the assumption at the
    # bottom of the minor one, so normalizing nearly doubles the depth.
    def chain(leaf, tag):
        d = leaf
        for i in range(nd.MAX_PROOF_DEPTH - 2):
            d = nd.or_e(nd.assume(Or(P, P)), d, nd.assume(P, f"{tag}{i}"),
                        f"{tag}-vacuous{i}", f"{tag}{i}")
        return d

    proof = nd.or_e(nd.or_i1(chain(nd.assume(P), "x"), Q),
                    nd.or_i1(chain(nd.assume(P, "u"), "y"), Q),
                    nd.or_i2(nd.assume(Q, "v"), P), "u", "v")
    assert _rule_depth(proof) == nd.MAX_PROOF_DEPTH
    obj = nd.to_json(proof)
    assert nd.from_json(obj) == proof
    assert judgement(proof) == (["p", "p | p"], "p | q")
    normal = nd.normalize(proof)
    assert nd.is_normal(normal)
    assert _rule_depth(normal) == 2 * nd.MAX_PROOF_DEPTH - 3
    assert judgement(normal) == (["p", "p | p"], "p | q")
    nd.to_json(normal)
    with pytest.raises(ValueError, match="nested deeper than"):
        nd.from_json({"rule": "OrI1", "conclusion": "(p | q) | q",
                      "premises": [obj], "discharges": []})
