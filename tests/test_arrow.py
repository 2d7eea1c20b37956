import itertools

import pytest

from votelab.core import BoundError
from votelab.arrow import (
    WeakOrder,
    anti_dictator_swf,
    arrow_search,
    borda_swf,
    check_a2,
    check_a3,
    check_a4,
    check_a5,
    constant_swf,
    enumerate_weak_orders,
    factor_into_pair_functions,
    find_dictator,
    pairwise_majority_swf,
    projection_swf,
    sorted_profiles,
)

ALTS = ("a", "b", "c")

ABC = WeakOrder((("a",), ("b",), ("c",)))
BCA = WeakOrder((("b",), ("c",), ("a",)))
CAB = WeakOrder((("c",), ("a",), ("b",)))
CBA = WeakOrder((("c",), ("b",), ("a",)))
A_BC = WeakOrder((("a",), ("b", "c")))
ALL_TIED = WeakOrder((("a", "b", "c"),))


def brute_force_weak_orders(alternatives):
    """Oracle: filter all binary relations for reflexive + complete + transitive."""
    pairs = [(x, y) for x in alternatives for y in alternatives]
    orders = set()
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if any((x, x) not in rel for x in alternatives):
            continue
        if any(
            (x, y) not in rel and (y, x) not in rel
            for x in alternatives
            for y in alternatives
        ):
            continue
        if any(
            (x, y) in rel and (y, z) in rel and (x, z) not in rel
            for x in alternatives
            for y in alternatives
            for z in alternatives
        ):
            continue
        score = {x: sum(1 for y in alternatives if (x, y) in rel) for x in alternatives}
        levels = sorted(set(score.values()), reverse=True)
        blocks = tuple(
            tuple(x for x in alternatives if score[x] == lv) for lv in levels
        )
        orders.add(blocks)
    return orders


class TestWeakOrders:
    def test_counts_match_brute_force(self):
        for alts, expected in ((("a",), 1), (("a", "b"), 3), (ALTS, 13)):
            enumerated = enumerate_weak_orders(alts)
            assert len(enumerated) == expected
            assert {w.blocks for w in enumerated} == brute_force_weak_orders(alts)

    def test_no_duplicates(self):
        orders = enumerate_weak_orders(ALTS)
        assert len({w.blocks for w in orders}) == len(orders)

    def test_blocks_validated(self):
        with pytest.raises(ValueError):
            WeakOrder((("a",), ("a", "b")))
        with pytest.raises(ValueError):
            WeakOrder((("a",), ()))

    def test_restrict(self):
        assert ABC.stance("a", "b") == 1
        assert ABC.stance("c", "a") == -1
        assert A_BC.stance("b", "c") == 0
        with pytest.raises(ValueError):
            ABC.stance("a", "a")

    def test_restriction_consistent_with_blocks(self):
        for w in enumerate_weak_orders(ALTS):
            for x, y in itertools.combinations(ALTS, 2):
                s = w.stance(x, y)
                assert s == (w.level(x) < w.level(y)) - (w.level(x) > w.level(y))


class TestConditionCheckers:
    def test_projection_passes_a2_a3_a4(self):
        proj = projection_swf(ALTS, 2, 0)
        assert check_a2(proj).passed
        assert check_a3(proj).passed
        assert check_a4(proj).passed
        assert check_a5(proj).status == "fail"

    def test_anti_dictator_fails_a2(self):
        assert check_a2(anti_dictator_swf(ALTS, 2, 0)).status == "fail"

    def test_constant_passes_a2_fails_a4(self):
        const = constant_swf(ALTS, 2, ABC)
        assert check_a2(const).passed
        assert check_a3(const).passed
        assert check_a4(const).status == "fail"

    def test_borda_fails_a3(self):
        res = check_a3(borda_swf(ALTS, 2))
        assert res.status == "fail"
        # the witness pins two profiles with identical stances on the pair but
        # different social stances
        a, b = res.witness.pair
        x, y = res.witness.profile, res.witness.other
        assert [w.stance(a, b) for w in x] == [w.stance(a, b) for w in y]
        swf = borda_swf(ALTS, 2)
        assert swf.evaluate(x).stance(a, b) != swf.evaluate(y).stance(a, b)


class TestDictator:
    def test_projection_dictator(self):
        assert find_dictator(projection_swf(ALTS, 2, 1)) == 1

    def test_symmetric_swf_has_none(self):
        # pairwise majority with indifference on disagreement, forced total
        def aggregate(x):
            res = pairwise_majority_swf(x, ALTS)
            return res.order if res.order is not None else ALL_TIED

        from votelab.arrow import FunctionSWF

        swf = FunctionSWF(ALTS, 2, aggregate, "majority-or-tie")
        assert find_dictator(swf) is None
        assert find_dictator(swf, "weak") is None
        # two unanimous profiles witness both stances per pair
        assert check_a4(swf).passed

    def test_constant_swf_dictator_by_exhaustive_check(self):
        const = constant_swf(ALTS, 2, ABC)
        # no voter's strict preferences are always honored by a fixed order
        assert find_dictator(const) is None
        # but every voter's weak preferences hold under the all-tied constant
        assert find_dictator(constant_swf(ALTS, 2, ALL_TIED), "weak") == 0

    def test_serial_dictatorship_distinguishes_premises(self):
        def lex(x):
            primary, secondary = x[0], x[1]
            blocks = []
            for block in primary.blocks:
                remaining = list(block)
                while remaining:
                    best = min(secondary.level(s) for s in remaining)
                    top = tuple(s for s in remaining if secondary.level(s) == best)
                    blocks.append(top)
                    remaining = [s for s in remaining if s not in top]
            return WeakOrder(tuple(blocks))

        from votelab.arrow import FunctionSWF

        swf = FunctionSWF(ALTS, 2, lex, "lexicographic")
        assert find_dictator(swf, "strict") == 0
        assert find_dictator(swf, "weak") is None

    def test_rejects_unknown_premise(self):
        with pytest.raises(ValueError):
            find_dictator(projection_swf(ALTS, 2, 0), "loose")


class TestPairwiseMajority:
    def test_unanimous(self):
        res = pairwise_majority_swf((ABC, ABC), ALTS)
        assert res.transitive
        assert res.order == ABC

    def test_condorcet_cycle_flagged(self):
        res = pairwise_majority_swf((ABC, BCA, CAB), ALTS)
        assert not res.transitive
        assert res.order is None
        assert res.stance("a", "b") == 1
        assert res.stance("b", "c") == 1
        assert res.stance("c", "a") == 1

    def test_opposed_strict_orders_all_tied(self):
        res = pairwise_majority_swf((ABC, CBA), ALTS)
        assert res.transitive
        assert res.order == ALL_TIED


class TestArrowSearch:
    def test_bounds_rejected(self):
        for n in (4, 0, True, 2.0):
            with pytest.raises(BoundError):
                arrow_search(n, ALTS)
        with pytest.raises(BoundError):
            arrow_search(2, ("a", "b"))

    def test_desk_scale_results(self):
        survivors = arrow_search(2, ALTS)
        assert len(survivors) == 136  # frozen from the deterministic search
        tables = [s.value_tuple() for s in survivors]
        assert len(set(tables)) == len(tables)
        index = {w: i for i, w in enumerate(enumerate_weak_orders(ALTS))}
        assert tables == sorted(tables, key=lambda t: tuple(index[w] for w in t))
        profiles = sorted_profiles(ALTS, 2)
        for v in (0, 1):
            proj = projection_swf(ALTS, 2, v)
            assert tuple(proj.evaluate(x) for x in profiles) in tables

    def test_every_survivor_is_dictatorial(self):
        survivors = arrow_search(2, ALTS)
        assert all(find_dictator(s) is not None for s in survivors)

    def test_sampled_survivors_pass_the_checkers(self):
        survivors = arrow_search(2, ALTS)
        sample = [survivors[0], survivors[len(survivors) // 2], survivors[-1]]
        for swf in sample:
            assert check_a2(swf).passed
            assert check_a3(swf).passed
            assert check_a4(swf).passed
            assert check_a5(swf).status == "fail"

    def test_deterministic(self):
        first = [s.value_tuple() for s in arrow_search(2, ALTS)]
        second = [s.value_tuple() for s in arrow_search(2, ALTS)]
        assert first == second

    def test_single_voter_search(self):
        survivors = arrow_search(1, ALTS)
        assert survivors
        assert all(find_dictator(s) == 0 for s in survivors)
        proj = projection_swf(ALTS, 1, 0)
        profiles = sorted_profiles(ALTS, 1)
        assert tuple(proj.evaluate(x) for x in profiles) in [
            s.value_tuple() for s in survivors
        ]

    def test_sorted_profiles_are_a_cached_tuple(self):
        profiles = sorted_profiles(ALTS, 2)
        assert isinstance(profiles, tuple) and len(profiles) == 169
        assert sorted_profiles(ALTS, 2) is profiles

    def test_factorization_matches_pair_independence(self):
        # a factorization exists exactly when the pair-independence check passes
        survivors = arrow_search(2, ALTS)
        for swf in (survivors[0], survivors[len(survivors) // 3], survivors[-1]):
            factors = factor_into_pair_functions(swf)
            assert factors is not None
            for (a, b), table in factors.items():
                for x in sorted_profiles(ALTS, 2):
                    key = tuple(w.stance(a, b) for w in x)
                    assert table[key] == swf.evaluate(x).stance(a, b)
        assert factor_into_pair_functions(borda_swf(ALTS, 2)) is None
        assert check_a3(borda_swf(ALTS, 2)).status == "fail"


def stance_borda(alternatives):
    """The Borda rule as it was first written, by stances, kept as the
    reference for ``borda_swf``'s scores, blocks and raised errors."""

    def run(profile):
        scores = {
            a: sum(
                2 * sum(1 for b in alternatives if b != a and w.stance(a, b) > 0)
                + sum(1 for b in alternatives if b != a and w.stance(a, b) == 0)
                for w in profile
            )
            for a in alternatives
        }
        levels = sorted(set(scores.values()), reverse=True)
        return WeakOrder(tuple(tuple(a for a in alternatives if scores[a] == lv)
                               for lv in levels))

    return run


def outcome(rule, profile):
    try:
        return rule(profile)
    except Exception as error:  # compared by class and key
        return type(error), error.args


@pytest.mark.parametrize("alternatives, n", [
    (ALTS[:2], 1), (ALTS[:2], 2), (ALTS, 1), (ALTS, 2), (ALTS + ("d",), 1),
    (ALTS + ("d",), 2), (ALTS, 3),
])
def test_borda_matches_the_stance_rule(alternatives, n):
    new, old = borda_swf(alternatives, n).evaluate, stance_borda(alternatives)
    for x in sorted_profiles(alternatives, n):
        assert new(x) == old(x)
    # orders lacking the first or the last alternative, or covering an extra one
    foreign = [w for others in (alternatives[1:], alternatives[:-1], alternatives + ("z",))
               for w in enumerate_weak_orders(others)[:3]]
    mixed = [x for x in itertools.product([*enumerate_weak_orders(alternatives)[:3], *foreign],
                                          repeat=n) if set(x) & set(foreign)]
    results = [(outcome(new, x), outcome(old, x)) for x in mixed]
    assert all(got == want for got, want in results)
    assert any(isinstance(got, tuple) and got[0] is KeyError for got, _ in results)


@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_weak_orders(()), "need at least one alternative"),
    (lambda: enumerate_weak_orders(("a", "b", "a")), "alternatives must be distinct"),
    (lambda: projection_swf(ALTS, 2, 2), "voter index out of range"),
    (lambda: projection_swf(ALTS, 2, -1), "voter index out of range"),
    (lambda: projection_swf(ALTS, 2, True), "voter index out of range"),
    (lambda: anti_dictator_swf(ALTS, 2, 5), "voter index out of range"),
    (lambda: anti_dictator_swf(ALTS, 2, 1.0), "voter index out of range"),
], ids=["no-alternatives", "repeated-alternative", "voter-past-the-end", "negative-voter",
        "bool-voter", "anti-dictator-voter-past-the-end", "anti-dictator-float-voter"])
def test_refusals_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message) as raised:
        call()
    assert raised.type is ValueError
