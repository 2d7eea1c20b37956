"""Each rule and each table has one definition; here those definitions are held
to the code they replaced.

``old_*`` below are copies of that code, kept as an independent oracle: the
free ``tabulated_evaluate`` behind ``TabulatedRule``, the per-profile loop of
``rule_leq``, and the stance triples ``arrow_search`` derived through a
transitivity test.  The new code must give the same value or raise the same
error, and ``rule_leq`` must evaluate the same profiles in the same order.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from votelab.arrow import (
    TabulatedSWF,
    WeakOrder,
    arrow_search,
    enumerate_weak_orders,
    sorted_profiles,
)
from votelab.core import (
    Alphabet,
    HorizonError,
    RuleDomainError,
    VoteLabError,
    profile_budget,
    profiles_up_to,
)
from votelab.enumeration import enumerate_c_families, rule_leq
from votelab.rules import (
    FunctionRule,
    PureMajorityRule,
    QuorumRule,
    SupermajorityRule,
    TabulatedRule,
    pure_majority_table,
)

AB2 = Alphabet.make(2)


def outcome(call, *args):
    """A call's value, or the type and text of the error it raised."""
    try:
        return "value", call(*args)
    except Exception as exc:
        return type(exc), str(exc)


# --- TabulatedRule against the free function it replaced --------------------------


def old_tabulated_evaluate(family, profile):
    counts = Counter(profile.ballots)
    sig = tuple(counts[s] for s in profile.alphabet.non_bot)
    if sum(sig) > family.horizon:
        raise HorizonError(f"signature total {sum(sig)} exceeds family horizon {family.horizon}")
    return family.table[sig]


@pytest.mark.parametrize("k, horizon", [(2, 6), (3, 4)])
def test_tabulated_rule_matches_the_old_lookup(k, horizon):
    alphabet = Alphabet.make(k)
    families = enumerate_c_families(alphabet, horizon).families
    rules = [TabulatedRule(f) for f in families]
    compared = 0
    for p in profiles_up_to(alphabet, horizon + 1):
        for rule in rules:
            assert outcome(rule.evaluate, p) == outcome(old_tabulated_evaluate, rule.family, p)
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
