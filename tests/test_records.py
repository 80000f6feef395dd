"""Record semantics of the proof, tableau and identity-check result classes:
field order and defaults, repr, equality, hashing and immutability."""

import copy
import pickle

import pytest

from tml import nd
from tml.algebra import IdentityResult, check_identity
from tml.syntax import Signature, parse
from tml.tableau import Branch, Node, Proved, Refuted, Tableau, decide

P, Q = parse("p"), parse("q")
U, V = nd.Assume(P, "u"), nd.Assume(Q)

# Each proof record with its repr.  test_normalization's digest hashes these
# reprs, so they are pinned here field by field.
ND_RECORDS = [
    (U, "Assume(formula=Var(name='p'), marker='u')"),
    (V, "Assume(formula=Var(name='q'), marker=None)"),
    (nd.MA(parse("p | ~[]p")),
     "MA(formula=Or(left=Var(name='p'), right=Neg(body=Box(body=Var(name='p')))))"),
    (nd.Rule("AndI", parse("p & q"), [U, V]),
     "Rule(tag='AndI', conclusion=And(left=Var(name='p'), right=Var(name='q')), "
     "premises=(Assume(formula=Var(name='p'), marker='u'), "
     "Assume(formula=Var(name='q'), marker=None)), discharges=())"),
    (nd.Judgement(frozenset([P]), P),
     "Judgement(open_assumptions=frozenset({Var(name='p')}), conclusion=Var(name='p'))"),
    (nd.Segment(P, ((0,), ())), "Segment(formula=Var(name='p'), positions=((0,), ()))"),
    (nd.CutReport((nd.Segment(P, ((),)),), (), 0, ()),
     "CutReport(segments=(Segment(formula=Var(name='p'), positions=((),)),), "
     "cuts=(), cutrank=0, critical=())"),
]


def fields(record):
    return tuple(getattr(record, name) for name in record.__match_args__)


@pytest.mark.parametrize("record, text", ND_RECORDS, ids=lambda r: type(r).__name__)
def test_nd_record_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in ND_RECORDS], ids=lambda r: type(r).__name__)
def test_nd_records_compare_and_hash_by_type_and_fields(record):
    twin = type(record)(*fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields(record))
    assert record != fields(record)
    assert type(record)(**dict(zip(record.__match_args__, fields(record)))) == record


@pytest.mark.parametrize("record", [r for r, _ in ND_RECORDS], ids=lambda r: type(r).__name__)
def test_nd_records_are_immutable(record):
    for name in record.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", [r for r, _ in ND_RECORDS], ids=lambda r: type(r).__name__)
def test_nd_records_survive_copy_and_pickle(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_nd_records_differ_across_types_and_fields():
    assert nd.Assume(P) != nd.MA(P)
    assert nd.Assume(P, "u") != nd.Assume(P, "v")
    assert nd.Segment(P, ()) != nd.Segment(Q, ())
    assert nd.Assume(P) == nd.Assume(P, None)


def test_rule_fields_defaults_and_tuples():
    rule = nd.Rule("AndI", parse("p & q"), [U, V])
    assert rule.__match_args__ == ("tag", "conclusion", "premises", "discharges")
    assert rule.premises == (U, V) and type(rule.premises) is tuple
    assert rule.discharges == ()
    case = nd.Rule("OrE", P, [nd.Assume(parse("p | p")), U, U], [["u"], ["u"]])
    assert type(case.discharges) is tuple and case.discharges[0] == ["u"]
    assert nd.Assume(P).marker is None


def test_segment_length():
    assert nd.Segment(P, ((0,), (), (1,))).length == 3


def test_identity_result_is_a_named_pair():
    held = check_identity(parse("[][]a"), parse("[]a"))
    failed = check_identity(parse("[](a | b)"), parse("[]a | []b"))
    holds, witness = held
    assert (holds, witness) == (True, None) and bool(held)
    assert not failed and failed.holds is False and failed.witness
    assert IdentityResult._fields == ("holds", "witness")
    assert held == IdentityResult(holds=True, witness=None) == (True, None)
    assert hash(held) == hash((True, None))
    assert repr(held) == "IdentityResult(holds=True, witness=None)"
    assert not IdentityResult(False, None)


def test_tableau_records_construct_positionally_and_by_keyword():
    node = Node(added=[])
    assert (node.rule, node.children, node.closed, node.closed_by) == (None, [], False, None)
    assert Node(added=[]).children is not node.children
    branch = Branch(node)
    tableau = Tableau(node, [branch], Signature.FULL)
    assert (tableau.root, tableau.branches, tableau.system) == (node, [branch], Signature.FULL)
    assert tableau.closed is False and tableau.open_branches() == [branch]
    assert Proved(tableau).tableau is tableau
    refuted = Refuted({"p": "0"}, branch, tableau)
    assert (refuted.model, refuted.branch, refuted.tableau) == ({"p": "0"}, branch, tableau)
    same = Refuted(model={"p": "0"}, branch=branch, tableau=tableau)
    assert (same.model, same.branch, same.tableau) == (refuted.model, branch, tableau)
    verdict = decide(parse("p"), Signature.SUCC)
    assert isinstance(verdict, Refuted) and verdict.model == {"p": "0"}
