"""Every walk over formulas and proofs takes inputs of any depth: each test
runs with the interpreter's frame limit a hundred frames above the test's
own depth, and pushes a 10,000-deep chain through one walk (or, for hash, a
proof that shares its subproofs).  The parser takes MAX_DEPTH-deep texts in
a constant number of frames, and semantics.evaluate, the one walk that still
recurses, is held to the two frames per level that MAX_DEPTH's docstring
allows it."""

import contextlib
import sys

import pytest

from helpers import convert_at
from tml import nd
from tml.algebra import VALUES
from tml.semantics import evaluate
from tml.syntax import (
    BOT,
    MAX_DEPTH,
    And,
    Box,
    Neg,
    Or,
    Signature,
    Succ,
    Var,
    complexity,
    degree,
    in_signature,
    instantiate,
    parse,
    render,
    translate,
)
from tml.tableau import Proved, Refuted, decide

DEPTH = 10_000
P, Q = Var("p"), Var("q")


@contextlib.contextmanager
def few_frames(frames=100):
    """Frame limit the given number of frames above the caller's depth,
    restored on exit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def and_chain(atom):
    f = atom
    for _ in range(DEPTH):
        f = And(f, atom)
    return f


# Asserts compare counts and flags only: a failing assert would print the
# operands, and their reprs recurse.


def test_recursive_walks_keep_their_frame_budget():
    # The parser takes a constant number of frames, whatever the nesting.
    # evaluate takes two per level; 20 frames of slack cover the calls
    # outside that recursion.  One more frame per level would need another
    # MAX_DEPTH.
    texts = ["(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH, "~" * MAX_DEPTH + "p",
             " > ".join(["p"] * (MAX_DEPTH + 1))]
    with few_frames(30):
        parsed = [parse(text) for text in texts]
    assert [render(f) for f in parsed] == ["p", *texts[1:]]
    f = P
    for i in range(MAX_DEPTH):
        f = (Neg(f), Box(f), And(Q, f))[i % 3]
    with few_frames(2 * MAX_DEPTH + 20):
        value = evaluate(f, {"p": "b", "q": "1"})
    assert value in VALUES


def test_render_and_measures():
    f = and_chain(P)
    with few_frames():
        text = render(f)
        size = complexity(f)
        g = Succ(P, P)
        for _ in range(DEPTH):
            g = Neg(g)
        size_succ = degree(g)
    ok = text == " & ".join(["p"] * (DEPTH + 1))
    assert ok
    assert size == DEPTH
    assert size_succ == DEPTH + 3


def test_translate_and_instantiate():
    f = and_chain(P)
    with few_frames():
        full = translate(f, Signature.FULL)
        succ = translate(f, Signature.SUCC)
        in_succ = in_signature(succ, Signature.SUCC) and not in_signature(f, Signature.SUCC)
        swapped = instantiate(f, {"p": Q})
    assert full is f
    assert in_succ
    ok = swapped is and_chain(Q)
    assert ok


def test_decide_on_a_proved_input():
    f = Succ(P, P)
    for _ in range(DEPTH // 2):
        f = Neg(Neg(f))
    with few_frames():
        verdict = decide(f, Signature.SUCC)
    assert type(verdict) is Proved


def balanced_and(parts):
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return And(balanced_and(parts[:half]), balanced_and(parts[half:]))


def test_decide_on_a_refuted_input_with_thousands_of_splits():
    # F(~[]a) puts T(a) and F(~a) on the branch, so each p_i | q_i splits
    # twice: about 4,000 splits on the open path, all of them kept.
    n = 2_000
    f = Neg(Box(balanced_and([Or(Var(f"p{i}"), Var(f"q{i}")) for i in range(n)])))
    with few_frames():
        verdict = decide(f, Signature.FULL)
    assert type(verdict) is Refuted
    assert len(verdict.model) == 2 * n


def or_e_chain(leaf, tag, depth=DEPTH):
    """leaf under `depth` OrE rules, each with an assumed p | p as its major
    premise and leaf's chain as its first minor premise: a normal proof of
    leaf's conclusion p when leaf is normal."""
    d = leaf
    for i in range(depth):
        d = nd.or_e(nd.assume(Or(P, P)), d, nd.assume(P, f"{tag}{i}"),
                    f"{tag}-vacuous{i}", f"{tag}{i}")
    return d


def test_check_and_serialize():
    proof = or_e_chain(nd.assume(P), "x")
    with few_frames():
        judgement = nd.check(proof)
        normal = nd.is_normal(proof)
        obj = nd.to_json(proof)
    assert judgement.conclusion is P and len(judgement.open_assumptions) == 2
    assert normal
    for _ in range(DEPTH):
        assert obj["rule"] == "OrE" and obj["conclusion"] == "p"
        obj = obj["premises"][1]
    assert obj == {"rule": "Assume", "formula": "p", "marker": None}


def test_normalize_a_deep_proof():
    # A BotE with a compound conclusion at the bottom of the chain: atomizing
    # it leaves an AndI/AndE1 detour there, which normalize then removes.
    leaf = nd.and_e1(nd.bot_e(nd.assume(BOT), And(P, Q)))
    proof = or_e_chain(leaf, "x")
    with few_frames():
        atomized = nd.atomize_bot(proof)
        steps = []
        normal = nd.normalize(proof, observer=steps.append)
        judgement = nd.check(normal)
        cut = not nd.is_normal(atomized) and nd.is_normal(normal)
        same = normal == or_e_chain(nd.bot_e(nd.assume(BOT), P), "x")
    assert [e["kind"] for e in steps] == ["atomize", "detour"]
    assert cut and same
    assert judgement.conclusion is P


def test_analyze_and_convert_at():
    # analyze reports every occurrence of a segment by its full path, so its
    # output grows with the square of the depth: 1,000 levels, far past the
    # frame limit all the same.
    depth = 1_000
    proof = or_e_chain(nd.and_e1(nd.and_i(nd.assume(P), nd.assume(Q))), "x", depth)
    with few_frames():
        report = nd.analyze(proof)
        converted, _ = convert_at(proof, report.cuts[0])
        same = converted == or_e_chain(nd.assume(P), "x", depth)
    assert len(report.segments) == 2 * depth + 4 and len(report.cuts) == 1
    assert same


def test_equal_records_built_apart():
    with few_frames():
        equal = or_e_chain(nd.assume(P), "x") == or_e_chain(nd.assume(P), "x")
        differ = or_e_chain(nd.assume(P), "x") != or_e_chain(nd.assume(P, "u"), "x")
    assert equal and differ


def test_normal_forms_at_the_depth_bound_compare():
    # Normalizing two separately built copies of test_nd's depth-bound proof
    # gives two equal normal forms nearly twice as deep.
    def proof():
        depth = nd.MAX_PROOF_DEPTH - 2
        return nd.or_e(nd.or_i1(or_e_chain(nd.assume(P), "x", depth), Q),
                       nd.or_i1(or_e_chain(nd.assume(P, "u"), "y", depth), Q),
                       nd.or_i2(nd.assume(Q, "v"), P), "u", "v")

    first, second = nd.normalize(proof()), nd.normalize(proof())
    with few_frames():
        equal = first == second
    assert first is not second and equal


def test_hash_and_repr_of_a_deep_proof():
    # Formulas hash by identity, so both copies are alive at once.
    proofs = or_e_chain(nd.assume(P), "x"), or_e_chain(nd.assume(P), "x")
    with few_frames():
        hashes = [hash(proof) for proof in proofs]
        text = repr(proofs[0])
    assert hashes[0] == hashes[1]
    assert text.count("Rule(tag='OrE', ") == DEPTH
    ok = text.endswith("marker='x9999')), discharges=(('x-vacuous9999', Var(name='p')), "
                       "('x9999', Var(name='p'))))")
    assert ok


def test_hash_of_a_shared_proof():
    # Each level uses the one below twice, so the proof has 2**40 paths.  A
    # hash reads only the last rule's tag and conclusion, so it costs the
    # same at any depth.
    def proof(leaf):
        d = nd.assume(leaf)
        for _ in range(40):
            d = nd.and_e1(nd.and_i(d, d))
        return d

    proofs = proof(P), proof(P), proof(Q)
    with few_frames():
        first, again, other = map(hash, proofs)
    assert first == again != other


@pytest.mark.parametrize("text", ["top", "p > q", "<>p", "~(p > q) & q", "p & ~top"])
def test_atomize_bot_rejects_what_check_rejects(text):
    proof = nd.bot_e(nd.assume(BOT), parse(text))
    with pytest.raises(nd.SchemaError) as checked:
        nd.check(proof)
    with pytest.raises(nd.SchemaError) as atomized:
        nd.atomize_bot(proof)
    assert str(atomized.value) == str(checked.value)
