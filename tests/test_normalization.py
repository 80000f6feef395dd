"""Normalization pinned end to end, cut analysis against a reference, the
work a normalization step does and does not do, and check's compiled fit
tests against the matcher that words their errors."""

import gc
import hashlib
import json
import random

from helpers import convert_at, reference_analyze
from proofgen import random_injected_proof, random_proof
from tml import hashcons, nd
from tml.syntax import And, Bot, Box, Neg, Or, Var, instantiate

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


def test_equal_proofs_hash_equal():
    """Two builds of one seeded pool, and the normal form of each proof in
    both: distinct records that compare equal and hash equal."""
    firsts, seconds = list(_proof_pool(200)), list(_proof_pool(200))
    pairs = list(zip(firsts, seconds))
    pairs += [(nd.normalize(a), nd.normalize(b)) for a, b in pairs]
    for a, b in pairs:
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)


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
    # Each step's summary work is counted inside its conversion and
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
        start = len(made)
        out = real(proof, *rest)
        steps.append((proof, out[0], start, len(made)))
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
    # No summary work between two steps or after the last.
    assert [start for _, _, start, _ in steps[1:]] + [len(made)] == [
        end for _, _, _, end in steps]
    for before, after, start, end in steps:
        old = {id(t) for t in nd._subtrees(before)}
        built = {id(t) for t in nd._subtrees(after)} - old
        assert end - start == len(built)


def test_every_step_carries_the_summary_of_its_result(monkeypatch):
    # The summary _convert hands back is built from the reduct up the
    # rebuilt path; it must equal a summary of the result from scratch.
    real = nd._convert
    checked = []

    def convert(*args):
        out = real(*args)
        assert out[2] == nd._summarize(out[0], {}, {})
        checked.append(out[1])
        return out

    monkeypatch.setattr(nd, "_convert", convert)
    for proof in _proof_pool(500):
        nd.normalize(proof)
    assert set(checked) == {"detour", "permutation", "removal"}
    d = nd.Assume(P)
    for _ in range(100):
        d = nd.and_e1(nd.and_i(d, nd.Assume(Q)))
    checked.clear()
    assert nd.normalize(d) == nd.Assume(P)
    assert len(checked) == 100


def _fits(node):
    """Whether the node's compiled fit test accepts it, and whether the
    matcher behind the SchemaError messages does."""
    fit = nd._FITS[node.tag]
    try:
        nd._schema_error(node)
        matched = True
    except nd.SchemaError:
        matched = False
    return fit is not None and fit(node), matched


def _replace_at(f, path, g):
    """f with its subformula at the attribute path replaced by g."""
    if not path:
        return g
    name, rest = path[0], path[1:]
    return type(f)(*(_replace_at(getattr(f, n), rest, g) if n == name else getattr(f, n)
                     for n in f.__match_args__))


def _sub_at(f, path):
    for name in path:
        f = getattr(f, name)
    return f


def _pattern_paths(pattern):
    """(path, subpattern) for every position of a pattern, in preorder."""
    yield (), pattern
    if type(pattern) is not Var and type(pattern) is not Bot:
        for name in pattern.__match_args__:
            for path, sub in _pattern_paths(getattr(pattern, name)):
                yield (name, *path), sub


_SWAP = {And: Or, Or: And, Neg: Box, Box: Neg}


def _wrong_connective(f):
    kind = type(f)
    return _SWAP[kind](*map(f.__getattribute__, kind.__match_args__)) if kind in _SWAP else Neg(f)


def _row_mutants(tag):
    """A node that fits tag's row, then mutants of it: a wrong connective at
    each pattern position, a metavariable bound to a second formula at each
    of its occurrences, and one premise or discharge too many or too few."""
    premises, conclusion, discharges = nd._SCHEMAS[tag]
    binding = {"a": Var("p"), "b": And(Var("q"), Neg(Var("r"))), "c": Box(Var("p"))}
    formulas = [instantiate(f, binding) for f in (*premises, conclusion, *discharges)]

    def node(formulas, extra_premises=0, extra_discharges=0):
        n = len(premises)
        ps = [nd.Assume(f) for f in formulas[:n]] + [nd.Assume(P)]
        ds = [(f"m{i}", f) for i, f in enumerate(formulas[n + 1:])] + [("mx", P)]
        return nd.Rule(tag, formulas[n], ps[:n + extra_premises],
                       ds[:len(discharges) + extra_discharges])

    yield node(formulas)
    patterns = (*premises, conclusion, *discharges)
    for root, pattern in enumerate(patterns):
        for path, sub in _pattern_paths(pattern):
            at = formulas[root]
            for g in ([_wrong_connective(_sub_at(at, path))]
                      + ([Var("s")] if type(sub) is Var else [])):
                mutant = list(formulas)
                mutant[root] = _replace_at(at, path, g)
                yield node(mutant)
    for extra in (1, -1):
        yield node(formulas, extra_premises=extra)
        if discharges or extra > 0:
            yield node(formulas, extra_discharges=extra)


def test_fit_tests_agree_with_the_matcher():
    # Every Rule node of the pool, every row's mutants and an unknown tag:
    # the fit test accepts a node exactly when the matcher raises nothing.
    seen = {}  # id -> node, holding each node so that its id stays its own
    for proof in _proof_pool(500):
        for t in nd._subtrees(proof):
            if type(t) is nd.Rule and id(t) not in seen:
                seen[id(t)] = t
                assert _fits(t) == (True, True)
    verdicts = []
    for tag in nd._SCHEMAS:
        for i, mutant in enumerate(_row_mutants(tag)):
            fit, matched = _fits(mutant)
            assert fit == matched, (tag, mutant)
            assert i > 0 or fit, tag
            verdicts.append(fit)
    assert _fits(nd.Rule("NoSuchRule", P, (nd.Assume(P),))) == (False, False)
    assert "NoSuchRule" not in nd._FITS
    assert len(seen) == 3350
    assert (len(verdicts), verdicts.count(False)) == (254, 216)


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
