"""The checkers read one outcome table; here they are held to the per-profile
loops they replaced.

``naive_*`` below are those loops, kept as an independent oracle in the way
``brute_force_may_tables`` is: every profile is enumerated and every moved
profile is built and evaluated again.  Every checker must return the same
result (status, witness, profiles_checked, error text) or raise the same error,
and must evaluate no more profiles than its loop; ``audit`` must evaluate each
profile at most once.
"""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab.core import (
    Alphabet,
    AltPermutation,
    BoundError,
    HorizonError,
    Profile,
    RuleDomainError,
    VoteLabError,
    VoterPermutation,
    apply_alt_permutation,
    apply_voter_permutation,
    extend,
    profiles_of_size,
    strict_plurality,
    tally,
)
from votelab.rules import (
    FunctionRule,
    MaySignRule,
    PureMajorityRule,
    QuorumRule,
    SupermajorityRule,
    TabulatedRule,
    pure_majority_table,
)
from votelab import axioms, cli, enumeration
from votelab.axioms import ALL_AXIOMS, CheckResult, Witness

AB2 = Alphabet.make(2)
AB3 = Alphabet.make(3)
AB4 = Alphabet.make(4)  # 23 relabelings, and profiles with non-trivial stabilisers
MAY = Alphabet.may()


def pure_majority(p):
    return PureMajorityRule(p.alphabet).evaluate(p)


# --- the oracle: one loop per checker, evaluating every profile it visits ----


def naive_checkable(alphabet):
    if len(alphabet.non_bot) < 2:
        raise RuleDomainError(
            f"checkers need at least 2 non-tie alternatives, got {alphabet.non_bot}"
        )


def naive_may(rule):
    a = rule.alphabet
    if set(a.alternatives) != {"-1", "0", "1"} or a.bot != "0":
        raise RuleDomainError("May-style checks need the {-1, 0, 1} alphabet with tie 0")


def naive_relabel(rule, size, perms, axiom):
    checked = 0
    for p in profiles_of_size(rule.alphabet, size):
        checked += 1
        fx = rule.evaluate(p)
        for perm in perms:
            q = apply_alt_permutation(p, perm)
            expected = perm.apply(fx)
            observed = rule.evaluate(q)
            if observed != expected:
                return Witness(axiom, p, q, alt_permutation=perm,
                               expected=expected, observed=observed), checked
    return None, checked


def relabelings(alphabet):
    return [AltPermutation.from_non_bot_images(alphabet, images)
            for images in itertools.permutations(alphabet.non_bot)
            if images != alphabet.non_bot]


def naive_c2(rule, n_max):
    naive_checkable(rule.alphabet)
    perms = relabelings(rule.alphabet)
    checked = 0
    for size in range(n_max + 1):
        witness, count = naive_relabel(rule, size, perms, "C2")
        checked += count
        if witness is not None:
            return CheckResult("C2", "fail", witness, checked)
    return CheckResult("C2", "pass", None, checked)


def naive_multiset(rule, size, axiom):
    index = rule.alphabet.index
    outcomes = {}
    class_value = {}
    bad = set()
    for p in profiles_of_size(rule.alphabet, size):
        value = rule.evaluate(p)
        outcomes[p.ballots] = value
        key = tuple(sorted(p.ballots, key=index))
        if class_value.setdefault(key, value) != value:
            bad.add(key)
    for ballots, fx in outcomes.items():
        if tuple(sorted(ballots, key=index)) not in bad:
            continue
        p = Profile(rule.alphabet, ballots)
        for mapping in itertools.permutations(range(size)):
            perm = VoterPermutation(mapping)
            q = apply_voter_permutation(p, perm)
            if outcomes[q.ballots] != fx:
                return Witness(axiom, p, q, voter_permutation=perm, expected=fx,
                               observed=outcomes[q.ballots]), len(outcomes)
    return None, len(outcomes)


def naive_c3(rule, n_max):
    naive_checkable(rule.alphabet)
    checked = 0
    for size in range(n_max + 1):
        witness, count = naive_multiset(rule, size, "C3")
        checked += count
        if witness is not None:
            return CheckResult("C3", "fail", witness, checked)
    return CheckResult("C3", "pass", None, checked)


def naive_extensible(axiom, n_max):
    if n_max < 1:
        raise BoundError(f"{axiom} extends the profiles below max voters {n_max}: none")


def naive_join(axiom, joining, broken):
    def check(rule, n_max):
        naive_checkable(rule.alphabet)
        naive_extensible(axiom, n_max)
        bot = rule.alphabet.bot
        checked = 0
        for size in range(n_max):
            for p in profiles_of_size(rule.alphabet, size):
                checked += 1
                before = rule.evaluate(p)
                ballot = joining(before, bot)
                if ballot is None:
                    continue
                q = extend(p, ballot)
                after = rule.evaluate(q)
                if broken(before, after, bot):
                    return CheckResult(axiom, "fail",
                                       Witness(axiom, p, q, expected=before, observed=after),
                                       checked)
        return CheckResult(axiom, "pass", None, checked)
    return check


naive_c4 = naive_join("C4", lambda o, bot: bot, lambda b, a, bot: a != b)
naive_c5 = naive_join("C5", lambda o, bot: o, lambda b, a, bot: a != b)
naive_tie_closure = naive_join("TIE_CLOSURE", lambda o, bot: None if o == bot else o,
                               lambda b, a, bot: a == bot)


def naive_c6(rule, n_max):
    naive_checkable(rule.alphabet)
    bot = rule.alphabet.bot
    checked = 0
    for size in range(n_max + 1):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            if rule.evaluate(p) != bot:
                continue
            if any(rule.evaluate(extend(p, s)) != bot for s in rule.alphabet.alternatives):
                continue
            return CheckResult("C6", "fail", Witness("C6", p, None, observed=bot), checked)
    return CheckResult("C6", "pass", None, checked)


def naive_plurality(rule, n_max):
    naive_checkable(rule.alphabet)
    bot = rule.alphabet.bot
    checked = 0
    for size in range(n_max + 1):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            outcome = rule.evaluate(p)
            if outcome == bot:
                continue
            winner = strict_plurality(tally(p))
            if winner != outcome:
                w = Witness("PLURALITY_PROPERTY", p, None,
                            expected=winner if winner is not None else bot, observed=outcome)
                return CheckResult("PLURALITY_PROPERTY", "fail", w, checked)
    return CheckResult("PLURALITY_PROPERTY", "pass", None, checked)


def naive_unavoidable(rule, n_max):
    naive_checkable(rule.alphabet)
    bot = rule.alphabet.bot
    checked = 0
    for size in range(n_max + 1):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            counts = [tally(p).count(s) for s in rule.alphabet.non_bot]
            if counts.count(max(counts)) < 2:
                continue
            outcome = rule.evaluate(p)
            if outcome != bot:
                w = Witness("UNAVOIDABLE_TIES", p, None, expected=bot, observed=outcome)
                return CheckResult("UNAVOIDABLE_TIES", "fail", w, checked)
    return CheckResult("UNAVOIDABLE_TIES", "pass", None, checked)


def naive_ma2(rule, n):
    naive_may(rule)
    witness, checked = naive_multiset(rule, n, "MA2")
    return CheckResult("MA2", "pass" if witness is None else "fail", witness, checked)


def naive_ma3(rule, n):
    naive_may(rule)
    negate = AltPermutation.swap(rule.alphabet, "-1", "1")
    witness, checked = naive_relabel(rule, n, [negate], "MA3")
    return CheckResult("MA3", "pass" if witness is None else "fail", witness, checked)


def naive_ma4(rule, n, semantics="in_favor"):
    naive_may(rule)
    if semantics not in ("flip", "in_favor"):
        raise VoteLabError(f"unknown Ma4 semantics {semantics!r}")
    negate = {"-1": "1", "1": "-1", "0": "0"}
    checked = 0
    for p in profiles_of_size(rule.alphabet, n):
        checked += 1
        fx = rule.evaluate(p)
        for v in range(n):
            old = p.ballots[v]
            for new in rule.alphabet.alternatives:
                if new == old:
                    continue
                if semantics == "flip" and (old == "0" or new != negate[old]):
                    continue
                direction = "1" if int(new) > int(old) else "-1"
                if fx not in ("0", direction):
                    continue
                q = Profile(p.alphabet, p.ballots[:v] + (new,) + p.ballots[v + 1:])
                observed = rule.evaluate(q)
                if observed != direction:
                    w = Witness("MA4", p, q, expected=direction, observed=observed)
                    return CheckResult("MA4", "fail", w, checked)
    return CheckResult("MA4", "pass", None, checked)


NAIVE = {
    "C2": naive_c2,
    "C3": naive_c3,
    "C4": naive_c4,
    "C5": naive_c5,
    "C6": naive_c6,
    "MA2": naive_ma2,
    "MA3": naive_ma3,
    "MA4": naive_ma4,
    "PLURALITY_PROPERTY": naive_plurality,
    "UNAVOIDABLE_TIES": naive_unavoidable,
    "TIE_CLOSURE": naive_tie_closure,
}

CHECKERS = {
    "C2": axioms.check_c2,
    "C3": axioms.check_c3,
    "C4": axioms.check_c4,
    "C5": axioms.check_c5,
    "C6": axioms.check_c6,
    "MA2": axioms.check_ma2,
    "MA3": axioms.check_ma3,
    "MA4": axioms.check_ma4,
    "PLURALITY_PROPERTY": axioms.check_plurality_property,
    "UNAVOIDABLE_TIES": axioms.check_unavoidable_ties,
    "TIE_CLOSURE": axioms.check_tie_closure,
}


def naive_audit(rule, n_max, ma4_semantics="in_favor", audited=ALL_AXIOMS):
    for axiom in audited:
        if axiom in ("C4", "C5", "TIE_CLOSURE"):
            naive_extensible(axiom, n_max)  # refused before any axiom runs
    results = []
    for axiom in (a for a in ALL_AXIOMS if a in audited):
        try:
            if axiom not in axioms.MA_AXIOMS:
                results.append(NAIVE[axiom](rule, n_max))
                continue
            checked = 0
            for n in range(n_max + 1):
                args = (ma4_semantics,) if axiom == "MA4" else ()
                res = NAIVE[axiom](rule, n, *args)
                checked += res.profiles_checked
                if res.status != "pass":
                    res = CheckResult(axiom, res.status, res.witness, checked)
                    break
            else:
                res = CheckResult(axiom, "pass", None, checked)
            results.append(res)
        except (VoteLabError, ValueError) as exc:
            results.append(CheckResult(axiom, "error", None, 0, error=str(exc),
                                       error_type=type(exc)))
    return tuple(results)


def audited_at(n_max):
    """Every axiom, less C4, C5 and TIE_CLOSURE at 0, where they refuse the bound."""
    return ALL_AXIOMS if n_max else tuple(a for a in ALL_AXIOMS
                                          if a not in ("C4", "C5", "TIE_CLOSURE"))


def outcome(check, *args, **kwargs):
    """The checker's result, or the class and text of what it raised."""
    try:
        return check(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def counted(rule):
    """``rule`` evaluated through a wrapper that counts each profile's evaluations."""
    calls = Counter()

    def fn(p):
        calls[p.ballots] += 1
        return rule.evaluate(p)

    return FunctionRule(rule.alphabet, fn, rule.descriptor), calls


# --- drawn rules ----------------------------------------------------------------


BASES = {
    "pure-majority": pure_majority,
    "first-ballot": lambda p: p.ballots[0] if p.ballots else p.alphabet.bot,
    "last-ballot": lambda p: p.ballots[-1] if p.ballots else p.alphabet.bot,
    "always-tie": lambda p: p.alphabet.bot,
    "first-symbol": lambda p: p.alphabet.alternatives[0],
    "size-parity": lambda p: p.alphabet.non_bot[len(p) % 2],
}
REFUSE = "!refuse"
HORIZON = "!horizon"


@st.composite
def drawn_rules(draw):
    """A deterministic rule: a base rule with some profiles (or ballot multisets)
    answered differently or refused with a domain or a horizon error."""
    alphabet = draw(st.sampled_from([AB2, AB3, AB4, MAY]))
    n_max = draw(st.integers(0, {AB3: 3, AB4: 2}.get(alphabet, 4)))
    base = draw(st.sampled_from(sorted(BASES)))
    by_multiset = draw(st.booleans())
    ballots = st.lists(st.sampled_from(alphabet.alternatives), max_size=n_max + 1)
    answers = st.sampled_from(alphabet.alternatives + (REFUSE, HORIZON))
    overrides = draw(st.dictionaries(ballots.map(tuple), answers, max_size=6))
    if by_multiset:
        overrides = {tuple(sorted(b, key=alphabet.index)): v for b, v in overrides.items()}

    def fn(p):
        key = tuple(sorted(p.ballots, key=alphabet.index)) if by_multiset else p.ballots
        answer = overrides.get(key)
        if answer == REFUSE:
            raise RuleDomainError(f"refused at {list(p.ballots)}")
        if answer == HORIZON:
            raise HorizonError(f"no value beyond {len(p) - 1} voters")
        return BASES[base](p) if answer is None else answer

    return FunctionRule(alphabet, fn, f"drawn:{base}"), n_max


def checker_calls(rule, n_max):
    """(axiom, checker arguments) for every checker; the May checkers at exact
    size ``n_max``, responsiveness under both semantics."""
    for axiom in ALL_AXIOMS:
        if axiom == "MA4":
            yield axiom, (rule, n_max, "in_favor")
            yield axiom, (rule, n_max, "flip")
        else:
            yield axiom, (rule, n_max)


@settings(max_examples=150, deadline=None)
@given(drawn_rules())
def test_checkers_match_the_per_profile_loops(drawn):
    rule, n_max = drawn
    for axiom, args in checker_calls(rule, n_max):
        assert outcome(CHECKERS[axiom], *args) == outcome(NAIVE[axiom], *args), axiom


@settings(max_examples=60, deadline=None)
@given(drawn_rules(), st.sampled_from(["in_favor", "flip"]))
def test_audit_matches_the_per_profile_loops(drawn, semantics):
    rule, n_max = drawn
    if n_max == 0:
        refused = outcome(axioms.audit, rule, ALL_AXIOMS, 0, ma4_semantics=semantics)
        assert refused == outcome(naive_audit, rule, 0, semantics)
        assert refused[0] is BoundError
    audited = audited_at(n_max)
    report = axioms.audit(rule, audited, n_max, ma4_semantics=semantics)
    assert report.results == naive_audit(rule, n_max, semantics, audited)


@settings(max_examples=60, deadline=None)
@given(drawn_rules())
def test_checkers_evaluate_no_more_than_the_loops(drawn):
    rule, n_max = drawn
    for axiom, args in checker_calls(rule, n_max):
        table_rule, table_calls = counted(rule)
        naive_rule, naive_calls = counted(rule)
        outcome(CHECKERS[axiom], table_rule, *args[1:])
        outcome(NAIVE[axiom], naive_rule, *args[1:])
        assert sum(table_calls.values()) <= sum(naive_calls.values()), axiom
        assert set(table_calls) <= set(naive_calls), axiom


@settings(max_examples=60, deadline=None)
@given(drawn_rules())
def test_audit_evaluates_each_profile_at_most_once(drawn):
    rule, n_max = drawn
    table_rule, calls = counted(rule)
    if n_max == 0:
        with pytest.raises(BoundError):
            axioms.audit(table_rule, ALL_AXIOMS, 0)
        assert not calls  # refused before any evaluation
    axioms.audit(table_rule, audited_at(n_max), n_max)
    assert max(calls.values(), default=1) == 1
    # every size up to the C6 probes beyond the bound is reached
    assert {len(b) for b in calls} <= set(range(n_max + 2))


ZOO = [
    PureMajorityRule(AB2),
    PureMajorityRule(AB3),
    QuorumRule(AB2, 3, "literal"),
    QuorumRule(AB3, 2, "participation"),
    SupermajorityRule(AB2, Fraction(1, 2), "all"),
    SupermajorityRule(AB3, Fraction(1, 3), "all"),  # ill-formed: two qualifiers
    SupermajorityRule(AB3, Fraction(2, 3), "nonbot"),
    MaySignRule(),
    TabulatedRule(pure_majority_table(AB2, 4)),  # C6 probes beyond the horizon
    FunctionRule(MAY, lambda p: "0" if len(p) % 2 else "1", "parity"),
]


@pytest.mark.parametrize("rule", ZOO, ids=lambda r: r.descriptor)
def test_rule_zoo_matches_the_per_profile_loops(rule):
    n_max = 4
    for axiom, args in checker_calls(rule, n_max):
        assert outcome(CHECKERS[axiom], *args) == outcome(NAIVE[axiom], *args), axiom
    assert axioms.audit(rule, ALL_AXIOMS, n_max).results == naive_audit(rule, n_max)


def test_shared_table_serves_every_checker_once():
    rule, calls = counted(PureMajorityRule(AB3))
    table = axioms.Outcomes(rule)
    for check in (axioms.check_c2, axioms.check_c3, axioms.check_c4, axioms.check_c5):
        assert check(rule, 3, outcomes=table).passed
    assert len(calls) == sum(4 ** s for s in range(4))
    assert set(calls.values()) == {1}


def test_table_of_another_rule_is_refused():
    table = axioms.Outcomes(PureMajorityRule(AB2))
    with pytest.raises(ValueError):
        axioms.check_c2(PureMajorityRule(AB2), 2, outcomes=table)


def test_errors_are_kept_and_raised_on_every_read():
    def refuse_pairs(p):
        if len(p) == 2:
            raise RuleDomainError("no pairs")
        return pure_majority(p)

    rule, calls = counted(FunctionRule(AB2, refuse_pairs, "no-pairs"))
    report = axioms.audit(rule, ("C2", "C3", "C4", "C5"), 3)
    assert [r.status for r in report.results] == ["error"] * 4
    assert {r.error for r in report.results} == {"no pairs"}
    assert {r.error_type for r in report.results} == {RuleDomainError}
    assert max(calls.values()) == 1


def least_of_orbit(alphabet, ballots, perms):
    key = [alphabet.index(b) for b in ballots]
    return all(key <= [alphabet.index(perm.apply(b)) for b in ballots] for perm in perms)


# (alphabet, profile, its answer): each profile lies past the least code of its
# orbit, so the scan reaches it only as the image of an earlier code
ORBIT_CASES = [
    (AB3, ("b", "a"), "b"),
    (AB3, ("c", "b"), REFUSE),
    (AB3, ("b", "_", "b"), "_"),
    (AB4, ("d", "d", "b"), "_"),  # stabilised by swapping a and c
    (AB4, ("c", "_", "a"), HORIZON),
    (AB4, ("b", "b"), "a"),
    (MAY, ("1", "-1"), "1"),
    (MAY, ("1", "0", "1"), REFUSE),
]


@pytest.mark.parametrize("alphabet, ballots, answer", ORBIT_CASES,
                         ids=lambda v: str(v) if isinstance(v, tuple) else None)
def test_a_fault_past_the_least_code_of_its_orbit_is_found(alphabet, ballots, answer):
    def fn(p):
        if p.ballots != ballots:
            return pure_majority(p)
        if answer == REFUSE:
            raise RuleDomainError(f"refused at {list(p.ballots)}")
        if answer == HORIZON:
            raise HorizonError("no value here")
        return answer

    rule = FunctionRule(alphabet, fn, "one-fault")
    n = len(ballots)
    calls = [(axioms.check_c2, naive_c2, relabelings(alphabet))]
    if alphabet is MAY:
        calls.append((axioms.check_ma3, naive_ma3, [AltPermutation.swap(MAY, "-1", "1")]))
    for check, naive, perms in calls:
        assert not least_of_orbit(alphabet, ballots, perms)
        table_rule, table_calls = counted(rule)
        naive_rule, naive_calls = counted(rule)
        got = outcome(check, table_rule, n)
        assert got == outcome(naive, naive_rule, n)
        assert not isinstance(got, CheckResult) or got.status == "fail"
        # the same profiles, first evaluated in the same order
        assert list(table_calls) == list(naive_calls)


def test_relabelling_needs_memory_of_the_table_not_of_every_image():
    # 4 alternatives: 23 relabelings, whose image codes are computed as read
    # rather than held for a whole level per relabeling
    n_max = 5
    rule = FunctionRule(Alphabet.make(4), lambda p: "_", "always-tie")
    tracemalloc.start()
    try:
        result = axioms.check_c2(rule, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == CheckResult("C2", "pass", None, sum(5 ** s for s in range(n_max + 1)))
    assert peak < 32 * result.profiles_checked


def test_an_outcome_outside_the_alphabet_is_an_error_for_every_checker(monkeypatch, tmp_path):
    rule = FunctionRule(AB2, lambda p: "z" if len(p) == 1 else "_", "z")
    selected = ("C2", "C3", "C4", "C5", "C6", "PLURALITY_PROPERTY")
    report = axioms.audit(rule, selected, 2)
    assert [r.status for r in report.results] == ["error"] * len(selected)
    assert {r.error_type for r in report.results} == {RuleDomainError}
    assert {r.error for r in report.results} == {
        "rule z answered 'z', which is not a symbol of the alphabet ('a', 'b', '_')"}
    # an ill-formed rule is an input error for the audit command
    monkeypatch.setattr(cli, "parse_rule", lambda descriptor, alphabet: rule)
    argv = ["audit", "--rule", "pure-majority", "--alternatives", "2", "--max-voters", "2",
            "--axioms", "C2-C6,PLURALITY_PROPERTY", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 2


# the shared index tables are keyed by what they depend on: alphabets with the
# same size but another symbol order or tie position must not share a table
KEYED_ALPHABETS = [AB2, Alphabet(("_", "a", "b"), "_"), Alphabet(("b", "a", "_"), "_"), MAY]


def keyed_rules(alphabet):
    yield PureMajorityRule(alphabet)
    for base in ("first-ballot", "first-symbol", "size-parity"):
        yield FunctionRule(alphabet, BASES[base], base)


def test_interleaved_audits_over_alphabets_of_one_size_match_the_loops():
    for _ in range(2):
        for alphabet in KEYED_ALPHABETS:
            for rule in keyed_rules(alphabet):
                assert axioms.audit(rule, ALL_AXIOMS, 4).results == naive_audit(rule, 4)


def test_a_level_with_an_error_keeps_raising_it_after_another_checker():
    # C3 fills level 2 but for ("_", "_"), whose error C4 then reads again
    def refuse_abstainers(p):
        if p.ballots == ("_", "_"):
            raise RuleDomainError("two abstainers")
        return pure_majority(p)

    plain = FunctionRule(AB2, refuse_abstainers, "no-abstainers")
    rule, calls = counted(plain)
    table = axioms.Outcomes(rule)
    assert outcome(axioms.check_c3, rule, 3, outcomes=table) == (RuleDomainError, "two abstainers")
    assert outcome(axioms.check_c4, rule, 3, outcomes=table) == outcome(naive_c4, plain, 3)
    assert calls[("_", "_")] == 1
    report = axioms.audit(plain, ("C3", "C4"), 3)
    assert report.results == naive_audit(plain, 3, audited=("C3", "C4"))
    assert report.results[1].error_type is RuleDomainError


def test_a_full_level_is_read_as_a_list():
    rule, calls = counted(PureMajorityRule(AB3))
    table = axioms.Outcomes(rule)
    read = table.reader(3)
    values = [read(code) for code in range(4 ** 3)]
    evaluated = sum(calls.values())
    full = table.reader(3)
    assert type(full) is not type(read)  # the slot list's own lookup
    assert [full(code) for code in range(4 ** 3)] == values
    assert sum(calls.values()) == evaluated == 4 ** 3


def in_order(rule):
    """``rule`` evaluated through a wrapper that lists each profile's ballots
    in the order of evaluation."""
    received = []

    def fn(p):
        received.append(p.ballots)
        return rule.evaluate(p)

    return FunctionRule(rule.alphabet, fn, rule.descriptor), received


def ballots_up_to(alphabet, n_max):
    """Every ballot tuple of at most ``n_max`` voters, in code order by size."""
    return [b for size in range(n_max + 1)
            for b in itertools.product(alphabet.alternatives, repeat=size)]


@pytest.mark.parametrize("selected", [("C2",), ("C3", "C4"), ("C3", "C6"), ("C2", "C3", "C4", "C5")])
def test_audit_fills_every_level_in_code_order_first(selected):
    # the first checker fills each size just before it scans it
    rule, received = in_order(PureMajorityRule(AB3))
    assert axioms.audit(rule, selected, 3).all_pass
    levels = ballots_up_to(AB3, 3)
    assert received[:len(levels)] == levels
    assert len(set(received)) == len(received)  # each profile once, C6's probes included


@pytest.mark.parametrize("check, alphabet, sizes", [
    (axioms.check_c2, AB3, range(4)),
    (axioms.check_c3, AB3, range(4)),
    (axioms.check_c6, AB3, range(4)),
    (axioms.check_ma2, MAY, range(4, 5)),
    (axioms.check_ma3, MAY, range(4, 5)),
    (axioms.check_ma4, MAY, range(4, 5)),
], ids=["C2", "C3", "C6", "MA2", "MA3", "MA4"])
def test_a_checker_handed_a_table_fills_each_size_before_it_scans_it(check, alphabet, sizes):
    # a table handed in is shared, so later checkers read what this one skips
    plain = MaySignRule() if alphabet is MAY else PureMajorityRule(alphabet)
    rule, received = in_order(plain)
    assert check(rule, sizes[-1], outcomes=axioms.Outcomes(rule)).passed
    expected = []
    for size in sizes:
        level = list(itertools.product(alphabet.alternatives, repeat=size))
        expected += [b for b in level if b not in expected]
        if check is not axioms.check_c6:
            continue
        for b in level:  # then C6's probes of each tied profile, up to a conclusive one
            if plain.evaluate(Profile(alphabet, b)) != "_":
                continue
            for d in alphabet.alternatives:
                if b + (d,) not in expected:
                    expected.append(b + (d,))
                if plain.evaluate(Profile(alphabet, b + (d,))) != "_":
                    break
    assert received == expected


@pytest.mark.parametrize("semantics", ["in_favor", "flip"])
def test_the_may_cross_check_evaluates_each_profile_once_in_code_order(monkeypatch, semantics):
    received = []
    as_rule = enumeration.MayFunctionTable.as_rule

    def recorded(table):
        rule, seen = in_order(as_rule(table))
        received.append(seen)
        return rule

    monkeypatch.setattr(enumeration.MayFunctionTable, "as_rule", recorded)
    enumeration._cross_check_may(enumeration.MayFunctionTable.sign_table(4), semantics)
    assert received == [list(itertools.product(MAY.alternatives, repeat=4))]


def test_a_fill_after_lazy_reads_evaluates_each_profile_once():
    # C4 reads lazily first; C6 then fills what C4 left pending
    rule, calls = counted(PureMajorityRule(AB3))
    assert axioms.audit(rule, ("C4", "C6"), 3).all_pass
    assert set(calls.values()) == {1}
    assert set(ballots_up_to(AB3, 3)) <= set(calls)


def test_a_refused_checker_evaluates_nothing():
    # the fill runs after a checker's own preconditions, never before them
    may_tie = FunctionRule(Alphabet.may(), lambda p: "0", "always-tie")
    one = FunctionRule(Alphabet.make(1), lambda p: "_", "always-tie")
    for plain, selected, semantics in [
        (PureMajorityRule(AB3), ("MA2", "MA3", "MA4"), "in_favor"),  # not the May alphabet
        (one, ("C2", "C3", "C6"), "in_favor"),  # fewer than 2 non-tie alternatives
        (may_tie, ("MA4",), "sideways"),  # unknown MA4 semantics
    ]:
        rule, calls = counted(plain)
        report = axioms.audit(rule, selected, 3, semantics)
        assert [r.status for r in report.results] == ["error"] * len(selected)
        assert not calls


def test_a_failing_audit_fills_no_size_past_its_witness():
    def first_ballot_a(p):  # fails C2 at n=1 and C3 at n=2
        return "a" if p.ballots[:1] == ("a",) else "_"

    plain = FunctionRule(AB3, first_ballot_a, "first-ballot-a")
    for selected, largest in [(("C2",), 1), (("C2", "C3"), 2), (("C3",), 2)]:
        rule, calls = counted(plain)
        report = axioms.audit(rule, selected, 8)
        assert [r.status for r in report.results] == ["fail"] * len(selected)
        assert max(map(len, calls)) == largest
        assert set(calls.values()) == {1}
        assert report.results == naive_audit(plain, 8, audited=selected)


# per-size evaluations of pure majority's C4-only and PLURALITY_PROPERTY-only
# audits at 3 alternatives, n=3, recorded before the fill: a selection without
# C2, C3, C6 or a May checker evaluates only what its checkers read
LAZY_COUNTS = {
    ("C4",): {0: 1, 1: 4, 2: 16, 3: 16},
    ("PLURALITY_PROPERTY",): {0: 1, 1: 4, 2: 16, 3: 64},
    ("C4", "!wrong"): {0: 1, 1: 4, 2: 13, 3: 11},
    ("PLURALITY_PROPERTY", "!wrong"): {0: 1, 1: 4, 2: 11},
}


@pytest.mark.parametrize("key", LAZY_COUNTS, ids="-".join)
def test_selections_that_need_not_read_everything_are_not_filled(key):
    selected, wrong = key[:1], key[1:]

    def fn(p):  # answers a where c wins outright, so both checkers fail there
        return "a" if wrong and p.ballots == ("c", "c") else pure_majority(p)

    rule, calls = counted(FunctionRule(AB3, fn, "c-c-is-a"))
    report = axioms.audit(rule, selected, 3)
    assert report.results[0].status == ("fail" if wrong else "pass")
    assert Counter(len(b) for b in calls.elements()) == LAZY_COUNTS[key]
    assert set(calls.values()) == {1}
    if key == ("C4",):  # every profile below the bound, and those of size 2 with an abstention
        below = ballots_up_to(AB3, 2)
        assert set(calls) == set(below) | {b + ("_",) for b in below if len(b) == 2}


def test_the_fill_stops_at_the_first_error():
    def refuse_aa(p):
        if p.ballots == ("a", "a"):
            raise RuleDomainError("refused at ['a', 'a']")
        return pure_majority(p)

    plain = FunctionRule(AB3, refuse_aa, "no-aa")
    rule, received = in_order(plain)
    table = axioms.Outcomes(rule)
    assert table.fill(0) and table.fill(1)
    assert not table.fill(2)
    assert received == ballots_up_to(AB3, 1) + [("a", "a")]  # no code past the error
    assert not table.fill(2) and len(received) == 6  # the kept error stops it again
    with pytest.raises(RuleDomainError):
        table.reader(2)(0)
    assert len(received) == 6

    selected = ("C2", "C3", "C4", "C5")
    rule, received = in_order(plain)
    report = axioms.audit(rule, selected, 3)
    assert report.results == naive_audit(plain, 3, audited=selected)
    assert received[:6] == ballots_up_to(AB3, 1) + [("a", "a")]
    assert len(set(received)) == len(received)
    assert max(map(len, received)) == 2  # level 3 is left to the checkers, which stop first


def test_after_the_fill_a_level_is_read_as_a_list():
    rule, calls = counted(PureMajorityRule(AB3))
    table = axioms.Outcomes(rule)
    assert table.fill(3)
    read = table.reader(3)
    assert isinstance(read.__self__, list)  # the slot list's own lookup
    assert read == read.__self__.__getitem__
    assert [read(code) for code in range(4 ** 3)] == [
        pure_majority(Profile(AB3, b)) for b in itertools.product(AB3.alternatives, repeat=3)]
    assert sum(calls.values()) == len(calls) == 4 ** 3
    assert table.fill(3) and sum(calls.values()) == 4 ** 3  # a full level is not evaluated again


def test_slot_profiles_equal_and_hash_like_checked_profiles():
    received = []

    def recorded(p):
        received.append(p)
        return pure_majority(p)

    rule = FunctionRule(AB3, recorded, "recorded")
    assert axioms.audit(rule, ("C2", "C3", "C4", "C5"), 3).all_pass
    assert len(received) == sum(4 ** s for s in range(4))
    for p in received:
        checked = Profile(AB3, p.ballots)
        assert type(p) is Profile and p.alphabet is AB3
        assert p == checked and hash(p) == hash(checked) and repr(p) == repr(checked)
    assert {p.ballots for p in received} == {p.ballots for s in range(4)
                                             for p in profiles_of_size(AB3, s)}


def test_lazily_read_slot_profiles_equal_checked_profiles():
    received = []

    def recorded(p):
        received.append(p)
        return pure_majority(p)

    assert axioms.check_c4(FunctionRule(AB3, recorded, "recorded"), 3).passed  # read, not filled
    assert len(received) == sum(LAZY_COUNTS[("C4",)].values())
    for p in received:
        checked = Profile(AB3, p.ballots)
        assert type(p) is Profile and p.alphabet is AB3
        assert p == checked and hash(p) == hash(checked) and repr(p) == repr(checked)
