"""Normalization pinned end to end, cut analysis against a reference, and
the work a normalization step does and does not do."""

import gc
import hashlib
import json
import random

from helpers import convert_at, reference_analyze
from proofgen import random_injected_proof, random_proof
from tml import hashcons, nd
from tml.syntax import And, Bot, Box, Neg, Var

P = Var("p")
Q = Var("q")


def _proof_pool(n):
    """n seeded proofs: every second one normal or nearly so, the others
    with one to three injected redexes."""
    rng = random.Random("normalization-pool")
    for i in range(n):
        yield random_injected_proof(rng, fuel=3) if i % 2 else random_proof(rng, fuel=4)


def test_normalization_is_pinned():
    """The sha256 of every normal form, the observer events of its
    normalization and the cut analysis before and after, over 500 proofs.
    An engine change that is meant to keep normalization as it is must
    leave the digest as it is."""
    digest = hashlib.sha256()
    steps = 0
    for proof in _proof_pool(500):
        events = []
        out = nd.normalize(proof, observer=events.append)
        digest.update(json.dumps(nd.to_json(out), sort_keys=True).encode())
        digest.update(repr(events).encode())
        digest.update(repr(nd.analyze(proof)).encode())
        digest.update(repr(nd.analyze(out)).encode())
        steps += len(events)
    assert steps == 1252
    assert digest.hexdigest() == (
        "b362aa9f31143444bdee46fdcfcd8e7ec5e4d8e4cfe79a59e46648795c46954e")


def test_every_conversion_is_pinned():
    """The sha256 of the kind and the result of one conversion at every cut
    of 200 proofs, 426 conversions: a change to how a step converts that is
    meant to keep conversions as they are must leave the digest as it is."""
    digest = hashlib.sha256()
    conversions = 0
    for proof in _proof_pool(200):
        for cut in nd.analyze(proof).cuts:
            out, kind = convert_at(proof, cut)
            digest.update(kind.encode())
            digest.update(repr(out).encode())
            conversions += 1
    assert conversions == 426
    assert digest.hexdigest() == (
        "ce9b872b68f8180131384cf679a0127b151b4c285ed3e19a6fc5850bd2664d14")


def test_analyze_matches_the_reference():
    checked = 0
    for proof in _proof_pool(200):
        converted = [convert_at(proof, cut)[0] for cut in nd.analyze(proof).cuts]
        for p in [proof] + converted:
            got, want = nd.analyze(p), reference_analyze(p)
            assert got.segments == want.segments
            assert got.cuts == want.cuts
            assert got.cutrank == want.cutrank
            assert got.critical == want.critical
            checked += 1
    assert checked > 300


def _reference_corpus():
    """The proofs of test_analyze_matches_the_reference and every single
    conversion of each."""
    for proof in _proof_pool(200):
        yield proof
        for cut in nd.analyze(proof).cuts:
            yield convert_at(proof, cut)[0]


def test_summary_and_is_normal_match_analyze():
    checked = 0
    for p in _reference_corpus():
        report = nd.analyze(p)
        assert nd.is_normal(p) == (not report.critical)
        summary = nd._summarize(p, {}, {})
        assert nd._measure(summary) == (report.cutrank,
                                        sum(s.length for s in report.critical))
        if report.critical:
            rightmost = max(report.critical, key=lambda s: s.positions[0])
            assert nd._critical_cut(summary) == (rightmost.positions[0], rightmost.length)
            assert summary[11] == rightmost.formula
        else:
            assert summary[nd._RANK] == -1
        checked += 1
    assert checked > 300


def test_normalize_never_analyzes(monkeypatch):
    def refuse(*args):
        raise AssertionError("normalize called nd.analyze")

    monkeypatch.setattr(nd, "analyze", refuse)
    for proof in _proof_pool(500):
        nd.normalize(proof)


def test_a_step_summarizes_only_the_nodes_it_built(monkeypatch):
    # Each step's summary work is counted between two conversions and
    # compared with the nodes the conversion built: the rebuilt spine plus
    # any new subtree.  Without the per-call memo a step would summarize the
    # whole proof again, the Assume(q) leaves off the spine included.
    made = []

    def counted(real):
        def summarize(t, *rest):
            made.append(t)
            return real(t, *rest)
        return summarize

    steps = []
    real = nd._convert

    def convert(proof, *rest):
        out = real(proof, *rest)
        steps.append((proof, out[0], len(made)))
        return out

    monkeypatch.setattr(nd, "_summarize_node", counted(nd._summarize_node))
    monkeypatch.setattr(nd, "_leaf_summary", counted(nd._leaf_summary))
    monkeypatch.setattr(nd, "_convert", convert)
    d = nd.Assume(P)
    for _ in range(100):
        d = nd.and_e1(nd.and_i(d, nd.Assume(Q)))
    assert nd.normalize(d) == nd.Assume(P)
    assert len(steps) == 100
    assert steps[0][2] == 301  # the first summary visits every node once
    ends = [made_before for _, _, made_before in steps[1:]] + [len(made)]
    for (before, after, start), end in zip(steps, ends):
        old = {id(t) for t in nd._subtrees(before)}
        built = {id(t) for t in nd._subtrees(after)} - old
        assert end - start == len(built)


def _counting_all_markers(monkeypatch):
    calls = []
    real = nd.all_markers

    def counted(proof):
        calls.append(proof)
        return real(proof)

    monkeypatch.setattr(nd, "all_markers", counted)
    return calls


def test_detours_collect_no_markers(monkeypatch):
    # Projections need no fresh marker, so nothing should walk the proof
    # for the markers it uses.
    calls = _counting_all_markers(monkeypatch)
    d = nd.and_i(nd.Assume(P), nd.Assume(Neg(Q)))
    d = nd.neg_neg_e(nd.neg_neg_i(d))
    d = nd.box_e(nd.box_i(d, nd.Assume(Bot()), "u"))
    d = nd.and_e1(nd.and_i(d, nd.Assume(Q)))
    events = []
    assert nd.normalize(d, observer=events.append) == nd.and_i(nd.Assume(P), nd.Assume(Neg(Q)))
    assert [e["kind"] for e in events] == ["detour"] * 3
    assert calls == []


def test_a_fresh_marker_collects_the_markers_once(monkeypatch):
    # A bot elimination into a box needs one fresh marker for its BoxI.
    calls = _counting_all_markers(monkeypatch)
    falsum = nd.bot_i(nd.and_i(nd.Assume(Neg(P), "u"), nd.Assume(Box(P))))
    proof = nd.bot_e(falsum, Box(P))
    out = nd.atomize_bot(proof)
    assert out.tag == "BoxI" and out.discharges[0][0] == "m1"
    assert calls == [proof]


def test_atomize_keeps_unchanged_subtrees():
    left = nd.and_i(nd.Assume(P), nd.bot_e(nd.Assume(Bot()), P))
    right = nd.bot_e(nd.Assume(Bot()), And(P, Q))
    proof = nd.and_i(left, right)
    assert nd.atomize_bot(left) is left
    out = nd.atomize_bot(proof)
    assert out is not proof
    assert out.premises[0] is left


def test_cut_ranks_keep_no_formula_alive():
    # The rank of a cut formula is computed once per normalization; the
    # formula must still leave the interning table when the proof goes.
    a = Var("rank_probe")
    box_a = Box(a)
    key = (And, box_a, a)
    proof = nd.and_e1(nd.and_i(nd.Assume(box_a), nd.Assume(a)))
    assert hashcons.TABLE[key]() is nd.analyze(proof).cuts[0].formula
    assert nd.normalize(proof) == nd.Assume(box_a)
    del proof
    gc.collect()
    assert key not in hashcons.TABLE


def test_analyze_takes_a_deep_chain():
    # 2,000 rules on one path: deeper than Python's default frame limit.
    d = nd.Assume(P)
    for _ in range(1000):
        d = nd.and_e1(nd.and_i(d, nd.Assume(Q)))
    report = nd.analyze(d)
    assert len(report.cuts) == 1000
    assert report.cutrank == 1
    assert len(report.critical) == 1000
    assert report.critical[0].positions == ((0,),)
    assert len(report.segments) == 3001


def test_check_takes_a_deep_chain():
    d = nd.Assume(P)
    for _ in range(1000):
        d = nd.and_e1(nd.and_i(d, nd.Assume(Q)))
    assert nd.check(d) == nd.Judgement(frozenset([P, Q]), P)
    assert not nd.is_normal(d)
