"""Each rule and each table has one definition; here those definitions are held
to the code they replaced.

``old_*`` below are copies of that code, kept as an independent oracle: the
free ``tabulated_evaluate`` behind ``TabulatedRule``, the per-profile loop of
``rule_leq``, the stance triples ``arrow_search`` derived through a
transitivity test, the ``Counter`` tally, the rules that evaluated through a
``Tally``, the ``Fraction`` supermajority threshold, the ballot loop of
``Profile`` and the per-digit relabel fold.  The new code must give the same
value or raise the same error, and ``rule_leq`` and ``check_c2`` must evaluate
the same profiles in the same order.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votelab.arrow import (
    TabulatedSWF,
    WeakOrder,
    arrow_search,
    enumerate_weak_orders,
    sorted_profiles,
)
from votelab.axioms import CheckResult, Outcomes, Witness, check_c2
from votelab.core import (
    Alphabet,
    AltPermutation,
    HorizonError,
    Profile,
    RuleDomainError,
    Tally,
    VoteLabError,
    profile_budget,
    strict_plurality,
    tally,
)
from votelab.enumeration import enumerate_c_families, rule_leq
from votelab.rules import (
    FunctionRule,
    MaySignRule,
    PureMajorityRule,
    QuorumRule,
    SupermajorityRule,
    TabulatedRule,
    pure_majority_table,
)

from helpers import profiles_up_to, table_of

AB2 = Alphabet.make(2)


def outcome(call, *args):
    """A call's value, or the type and text of the error it raised."""
    try:
        return "value", call(*args)
    except Exception as exc:
        return type(exc), str(exc)


# --- TabulatedRule against the free function it replaced --------------------------


def old_tabulated_evaluate(table, horizon, profile):
    counts = Counter(profile.ballots)
    sig = tuple(counts[s] for s in profile.alphabet.non_bot)
    if sum(sig) > horizon:
        raise HorizonError(f"signature total {sum(sig)} exceeds family horizon {horizon}")
    return table[sig]


@pytest.mark.parametrize("k, horizon", [(2, 6), (3, 4)])
def test_tabulated_rule_matches_the_old_lookup(k, horizon):
    alphabet = Alphabet.make(k)
    families = enumerate_c_families(alphabet, horizon).families
    rules = [(TabulatedRule(f), table_of(f)) for f in families]
    compared = 0
    for p in profiles_up_to(alphabet, horizon + 1):
        for rule, table in rules:
            assert outcome(rule.evaluate, p) == outcome(old_tabulated_evaluate, table, horizon, p)
            compared += 1
    assert compared == len(families) * sum((k + 1) ** s for s in range(horizon + 2))


# --- rule_leq against the loop it replaced -----------------------------------------


def old_rule_leq(f, g, n_max):
    profile_budget(f.alphabet, n_max, range(n_max + 1))
    if f.alphabet != g.alphabet:
        raise VoteLabError("rules must share an alphabet to be compared")
    bot = f.alphabet.bot
    for p in profiles_up_to(f.alphabet, n_max):
        fv = f.evaluate(p)
        if fv == bot:
            continue
        if fv != g.evaluate(p):
            return False, p
    return True, None


def refuse_b_pairs(p):
    if p.ballots[:2] == ("b", "b"):
        raise RuleDomainError("no b pairs")
    return PureMajorityRule(AB2).evaluate(p)


def rule_zoo():
    return [
        PureMajorityRule(AB2),
        QuorumRule(AB2, 2, "literal"),
        QuorumRule(AB2, 3, "participation"),
        SupermajorityRule(AB2, Fraction(1, 2), "all"),
        SupermajorityRule(AB2, Fraction(2, 3), "nonbot"),
        TabulatedRule(pure_majority_table(AB2, 3)),  # refuses size 4 past its horizon
        FunctionRule(AB2, refuse_b_pairs, "refuse-b-pairs"),
        FunctionRule(AB2, lambda p: p.ballots[0] if p.ballots else "_", "first-ballot"),
        FunctionRule(AB2, lambda p: "_", "always-tie"),
    ]


def logged(rule, name, log):
    """``rule`` evaluated through a wrapper that logs each evaluation in order."""
    def fn(p):
        log.append((name, p.ballots))
        return rule.evaluate(p)

    return FunctionRule(rule.alphabet, fn, rule.descriptor)


@pytest.mark.parametrize("f", rule_zoo(), ids=lambda r: r.descriptor)
def test_rule_leq_matches_the_old_loop(f):
    for g in rule_zoo():
        for n_max in (0, 2, 4):
            new_log, old_log = [], []
            new = outcome(rule_leq, logged(f, "f", new_log), logged(g, "g", new_log), n_max)
            old = outcome(old_rule_leq, logged(f, "f", old_log), logged(g, "g", old_log), n_max)
            assert new == old, (f.descriptor, g.descriptor, n_max)
            assert new_log == old_log


@pytest.mark.parametrize("answers_z", ["f", "g"])
def test_rule_leq_rejects_an_outcome_outside_the_alphabet(answers_z):
    z = FunctionRule(AB2, lambda p: "z" if len(p) == 1 else "_", "z")
    f, g = (z, PureMajorityRule(AB2)) if answers_z == "f" else (PureMajorityRule(AB2), z)
    with pytest.raises(RuleDomainError, match="rule z answered 'z'"):
        rule_leq(f, g, 2)


# --- arrow_search's stance triples and TabulatedSWF -------------------------------


def old_triple_order(alternatives):
    """The old derivation: every stance triple on ((a,b), (b,c), (a,c)) whose
    relation is transitive, mapped to its order on placeholders, renamed."""
    placeholder = ("a", "b", "c")
    rename = dict(zip(placeholder, alternatives))
    valid = {}
    for triple in itertools.product((-1, 0, 1), repeat=3):
        stance = dict(zip((("a", "b"), ("b", "c"), ("a", "c")), triple))

        def ge(x, y):
            if x == y:
                return True
            if (x, y) in stance:
                return stance[(x, y)] >= 0
            return stance[(y, x)] <= 0

        if all(not (ge(x, y) and ge(y, z)) or ge(x, z)
               for x in placeholder for y in placeholder for z in placeholder):
            score = {x: sum(1 for y in placeholder if ge(x, y)) for x in placeholder}
            levels = sorted(set(score.values()), reverse=True)
            valid[triple] = WeakOrder(tuple(
                tuple(rename[x] for x in placeholder if score[x] == lv) for lv in levels))
    return valid


ALTERNATIVE_NAMES = [("a", "b", "c"), ("c", "a", "b"), ("x", "y", "z")]


@pytest.mark.parametrize("alternatives", ALTERNATIVE_NAMES)
def test_weak_orders_carry_the_old_stance_triples(alternatives):
    a, b, c = alternatives
    old = old_triple_order(alternatives)
    assert len(old) == 13
    for w in enumerate_weak_orders(alternatives):
        assert old[(w.stance(a, b), w.stance(b, c), w.stance(a, c))] == w


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alternatives", ALTERNATIVE_NAMES)
def test_survivors_use_the_old_orders(alternatives, n):
    a, b, c = alternatives
    old = old_triple_order(alternatives)
    survivors = arrow_search(n, alternatives)
    assert len(survivors) == {1: 13, 2: 136}[n]
    for swf in survivors:
        for x, w in zip(sorted_profiles(alternatives, n), swf.value_tuple()):
            assert old[(w.stance(a, b), w.stance(b, c), w.stance(a, c))] == w
            assert swf.evaluate(x) is w


def test_tabulated_swf_needs_one_order_per_profile():
    orders = enumerate_weak_orders(("a", "b", "c"))
    values = [orders[0]] * len(sorted_profiles(("a", "b", "c"), 2))
    TabulatedSWF(("a", "b", "c"), 2, values)
    for wrong in (values[:-1], values + values[:1], []):
        with pytest.raises(ValueError, match="needs one order for each of 169 profiles"):
            TabulatedSWF(("a", "b", "c"), 2, wrong)


def test_tabulated_swf_refuses_a_profile_outside_its_table():
    swf = arrow_search(2)[0]
    orders = enumerate_weak_orders(("a", "b", "c"))
    with pytest.raises(KeyError):
        swf.evaluate((orders[0],))
    with pytest.raises(KeyError):
        swf.evaluate((orders[0], WeakOrder((("b", "a", "c"),))))


# --- raw-profile kernels against the code they replaced ---------------------------


def old_tally(profile):
    c = Counter(profile.ballots)
    return Tally(profile.alphabet, tuple(c[s] for s in profile.alphabet.alternatives))


def old_strict_plurality(t):
    best = None
    best_count = 0
    tied = False
    for s in t.alphabet.non_bot:
        n = t.count(s)
        if n > best_count:
            best, best_count, tied = s, n, False
        elif n == best_count:
            tied = True
    if best is None or best_count == 0 or tied:
        return None
    return best


KERNEL_BOUNDS = [
    (Alphabet.make(2), 6),
    (Alphabet.make(3), 5),
    (Alphabet.may(), 5),  # the tie symbol in the middle
    (Alphabet(("_", "x", "y"), "_"), 5),  # the tie symbol first
]


@pytest.mark.parametrize("alphabet, n_max", KERNEL_BOUNDS, ids=lambda v: str(v))
def test_tally_and_plurality_match_the_old_code(alphabet, n_max):
    compared = 0
    for p in profiles_up_to(alphabet, n_max):
        t = tally(p)
        assert t == old_tally(p)
        assert strict_plurality(t) == old_strict_plurality(t)
        compared += 1
    assert compared == sum(len(alphabet.alternatives) ** s for s in range(n_max + 1))


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=5))
def test_strict_plurality_matches_the_old_loop_on_any_counts(counts):
    # zero and negative counts included: neither can win
    alphabet = Alphabet.make(len(counts) - 1)
    t = Tally(alphabet, tuple(counts))
    assert strict_plurality(t) == old_strict_plurality(t)


def old_pure_majority(alphabet, profile):
    winner = old_strict_plurality(old_tally(profile))
    return winner if winner is not None else alphabet.bot


def old_quorum(alphabet, threshold, mode, profile):
    t = old_tally(profile)
    turnout = len(profile)
    if mode == "participation":
        turnout -= t.count(alphabet.bot)
    return old_pure_majority(alphabet, profile) if turnout >= threshold else alphabet.bot


def old_may_sign(profile):
    total = sum(int(b) for b in profile.ballots)
    return str((total > 0) - (total < 0))


@pytest.mark.parametrize("alphabet, n_max", KERNEL_BOUNDS, ids=lambda v: str(v))
def test_count_rules_match_the_tally_code(alphabet, n_max):
    rules = [(PureMajorityRule(alphabet), lambda p: old_pure_majority(alphabet, p))]
    rules += [(QuorumRule(alphabet, threshold, mode),
               lambda p, t=threshold, m=mode: old_quorum(alphabet, t, m, p))
              for mode in ("literal", "participation") for threshold in (1, 2, 3, 4)]
    compared = 0
    for p in profiles_up_to(alphabet, n_max):
        for rule, old in rules:
            assert outcome(rule.evaluate, p) == outcome(old, p), rule.descriptor
            compared += 1
    assert compared == len(rules) * sum(len(alphabet.alternatives) ** s
                                        for s in range(n_max + 1))


@pytest.mark.parametrize("alphabet", [Alphabet.may(), Alphabet(("1", "0", "-1"), "0")],
                         ids=["may", "reordered"])
def test_may_sign_matches_the_ballot_sum(alphabet):
    rule = MaySignRule()
    signs = set()
    for p in profiles_up_to(alphabet, 6):
        assert rule.evaluate(p) == old_may_sign(p)
        signs.add(rule.evaluate(p))
    assert signs == {"-1", "0", "1"}


def old_profile_check(alphabet, ballots):
    for b in ballots:
        if b not in alphabet.alternatives:
            raise ValueError(f"ballot symbol {b!r} not in alphabet")


@pytest.mark.parametrize("ballots, named", [
    (("a", "z", "y"), "'z'"),  # the first foreign symbol is named
    (("a", 1), "1"),  # hashable, not a str
    (("b", ["a"]), r"\['a'\]"),  # unhashable: the one-call membership test raises TypeError
    (("a", {"b"}, "z"), r"\{'b'\}"),
])
def test_profile_refuses_what_the_ballot_loop_refused(ballots, named):
    with pytest.raises(ValueError, match=f"^ballot symbol {named} not in alphabet$"):
        Profile(AB2, ballots)
    assert outcome(Profile, AB2, ballots) == outcome(old_profile_check, AB2, ballots)


def old_supermajority(alphabet, quota, denom, profile):
    t = old_tally(profile)
    base = len(profile)
    if denom == "nonbot":
        base -= t.count(alphabet.bot)
    qualified = [s for s in alphabet.non_bot if t.count(s) > quota * base]
    if len(qualified) > 1:
        raise RuleDomainError(
            f"quota {quota} with denominator {denom!r} admits two qualifiers: ill-formed"
        )
    return qualified[0] if qualified else alphabet.bot


@pytest.mark.parametrize("denom", ["all", "nonbot"])
@pytest.mark.parametrize("a, b", [(a, b) for b in range(2, 7) for a in range(1, b)])
def test_supermajority_matches_the_fraction_threshold(a, b, denom):
    quota = Fraction(a, b)
    on_threshold = 0
    for alphabet, n_max in KERNEL_BOUNDS[:2]:
        rule = SupermajorityRule(alphabet, quota, denom)
        for p in profiles_up_to(alphabet, n_max):
            assert outcome(rule.evaluate, p) == outcome(old_supermajority, alphabet, quota,
                                                        denom, p)
            base = len(p) - (p.ballots.count(alphabet.bot) if denom == "nonbot" else 0)
            on_threshold += any(p.ballots.count(s) == quota * base > 0
                                for s in alphabet.non_bot)
    assert on_threshold > 0


def relabellings(alphabet):
    return [AltPermutation.from_non_bot_images(alphabet, images)
            for images in itertools.permutations(alphabet.non_bot)
            if images != alphabet.non_bot]


def old_check_c2(rule, n_max):
    """The old C2 checker: the per-digit fold over a fresh outcome table."""
    table = Outcomes(rule)
    perms = relabellings(rule.alphabet)
    sigmas = [[table.digit(s) for s in perm.mapping] for perm in perms]
    k = table.k
    checked = 0
    for size in range(n_max + 1):
        read = table.reader(size)
        for code, digits in enumerate(itertools.product(range(k), repeat=size)):
            checked += 1
            fx = read(code)
            for perm, sigma in zip(perms, sigmas):
                moved = 0
                for d in digits:
                    moved = moved * k + sigma[d]
                expected = perm.apply(fx)
                observed = read(moved)
                if observed != expected:
                    w = Witness("C2", table.profile(size, code), table.profile(size, moved),
                                alt_permutation=perm, expected=expected, observed=observed)
                    return CheckResult("C2", "fail", w, checked)
    return CheckResult("C2", "pass", None, checked)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_relabel_image_codes_match_the_digit_fold(monkeypatch, k):
    # every read is logged, repeats included, so each image code is compared;
    # the orbit skip drops the block of a code the scan already read as an
    # image, and nothing else
    log = []
    original = Outcomes.reader

    def reader(self, size):
        read = original(self, size)

        def logged(code):
            log.append((size, code))
            return read(code)

        return logged

    monkeypatch.setattr(Outcomes, "reader", reader)
    rule = FunctionRule(Alphabet.make(k - 1), lambda p: "_", "always-tie")
    assert check_c2(rule, 5) == CheckResult("C2", "pass", None, sum(k ** s for s in range(6)))
    new_reads = log[:]
    log.clear()
    old_check_c2(rule, 5)
    block = 1 + len(relabellings(rule.alphabet))  # a code, then its images
    kept, imaged = [], set()
    for i in range(0, len(log), block):
        if log[i] not in imaged:
            kept += log[i:i + block]
            imaged.update(log[i + 1:i + block])
    assert len(kept) < len(log)
    assert new_reads == kept
    assert set(new_reads) == {(size, code) for size in range(6) for code in range(k ** size)}


AB3 = Alphabet.make(3)


def a_leads_with_two(p):
    return "a" if p.ballots.count("a") >= 2 else p.alphabet.bot


C2_RULES = [
    PureMajorityRule(AB3),
    QuorumRule(AB3, 3, "literal"),
    SupermajorityRule(AB3, Fraction(1, 2), "nonbot"),
    FunctionRule(AB3, a_leads_with_two, "a-leads-with-two"),  # not neutral
    FunctionRule(AB2, refuse_b_pairs, "refuse-b-pairs"),
    FunctionRule(AB2, lambda p: "_", "always-tie"),
]


@pytest.mark.parametrize("rule", C2_RULES, ids=lambda r: r.descriptor)
def test_check_c2_evaluates_what_the_old_fold_evaluated(rule):
    new_log, old_log = [], []
    new = outcome(check_c2, logged(rule, "r", new_log), 4)
    old = outcome(old_check_c2, logged(rule, "r", old_log), 4)
    assert new == old
    assert new_log == old_log
