"""The Arrow checkers read per-domain order tables and evaluate each profile
once per check; here they are held to the per-profile loops they replaced.

``naive_*`` below are those loops, kept as an independent oracle: every
profile is taken from ``sorted_profiles``, every neighbour profile is built as
a tuple, and every stance is asked of the orders themselves.  Each checker must
return the same result or raise the same error, and must evaluate the same
profiles, in the same order, as its loop.  A ``TabulatedSWF`` is decided on
its order indices instead; it is called directly, never through ``counted``,
and must still give the loop's result.
"""

import functools
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import arrow
from votelab.arrow import (
    ArrowCheckResult,
    ArrowWitness,
    FunctionSWF,
    TabulatedSWF,
    WeakOrder,
    anti_dictator_swf,
    arrow_search,
    borda_swf,
    constant_swf,
    enumerate_weak_orders,
    factor_into_pair_functions,
    pairwise_majority_swf,
    projection_swf,
    sorted_profiles,
)
from votelab.core import BoundError

ALTS = ("a", "b", "c")


# --- the oracle: the per-profile loops ------------------------------------------


def naive_ordered_pairs(alternatives):
    return [(a, b) for a in alternatives for b in alternatives if a != b]


def naive_a2(swf):
    orders = enumerate_weak_orders(swf.alternatives)
    pairs = list(itertools.combinations(swf.alternatives, 2))
    checked = 0
    for x in sorted_profiles(swf.alternatives, swf.n):
        checked += 1
        fx = swf.evaluate(x)
        for v in range(swf.n):
            for replacement in orders:
                if replacement == x[v]:
                    continue
                changed = [q for q in pairs
                           if x[v].stance(q[0], q[1]) != replacement.stance(q[0], q[1])]
                if len(changed) != 1:
                    continue
                a, b = changed[0]
                y = x[:v] + (replacement,) + x[v + 1:]
                fy = swf.evaluate(y)
                for hi, lo in ((a, b), (b, a)):
                    if x[v].stance(hi, lo) > 0 or replacement.stance(hi, lo) < 0:
                        continue
                    if fx.weakly_prefers(hi, lo) and not fy.weakly_prefers(hi, lo):
                        w = ArrowWitness(
                            x, y, (hi, lo),
                            f"voter {v} moved toward {hi} over {lo} but the social "
                            f"stance dropped it",
                        )
                        return ArrowCheckResult("A2", "fail", w, checked)
    return ArrowCheckResult("A2", "pass", None, checked)


def naive_pair_factor(swf, a, b):
    table, first = {}, {}
    for x in sorted_profiles(swf.alternatives, swf.n):
        key = tuple(w.stance(a, b) for w in x)
        social = swf.evaluate(x).stance(a, b)
        if table.setdefault(key, social) != social:
            return table, (first[key], x)
        first.setdefault(key, x)
    return table, None


def naive_a3(swf):
    checked = len(sorted_profiles(swf.alternatives, swf.n))
    for a, b in itertools.combinations(swf.alternatives, 2):
        _, conflict = naive_pair_factor(swf, a, b)
        if conflict is not None:
            w = ArrowWitness(*conflict, (a, b),
                             f"same voter stances on ({a}, {b}) but social stance differs")
            return ArrowCheckResult("A3", "fail", w, checked)
    return ArrowCheckResult("A3", "pass", None, checked)


def naive_a4(swf):
    profiles = sorted_profiles(swf.alternatives, swf.n)
    for a, b in naive_ordered_pairs(swf.alternatives):
        if not any(swf.evaluate(x).weakly_prefers(a, b) for x in profiles):
            w = ArrowWitness(profiles[0], None, (a, b),
                             f"no profile yields {a} at least as good as {b}")
            return ArrowCheckResult("A4", "fail", w, len(profiles))
    return ArrowCheckResult("A4", "pass", None, len(profiles))


def naive_dictator(swf, premise="strict"):
    if premise not in ("strict", "weak"):
        raise ValueError(f"unknown dictator premise {premise!r}")
    pairs = naive_ordered_pairs(swf.alternatives)
    for v in range(swf.n):
        ok = True
        for x in sorted_profiles(swf.alternatives, swf.n):
            fx = swf.evaluate(x)
            for a, b in pairs:
                if premise == "strict":
                    if x[v].stance(a, b) > 0 and fx.stance(a, b) <= 0:
                        ok = False
                        break
                elif x[v].weakly_prefers(a, b) and not fx.weakly_prefers(a, b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return v
    return None


def naive_a5(swf, premise="strict"):
    profiles = sorted_profiles(swf.alternatives, swf.n)
    v = naive_dictator(swf, premise)
    if v is None:
        return ArrowCheckResult("A5", "pass", None, len(profiles))
    w = ArrowWitness(profiles[0], None, None, f"voter {v} is a dictator ({premise})")
    return ArrowCheckResult("A5", "fail", w, len(profiles))


def naive_factor(swf):
    factors = {}
    for a, b in itertools.combinations(swf.alternatives, 2):
        factors[(a, b)], conflict = naive_pair_factor(swf, a, b)
        if conflict is not None:
            return None
    return factors


# Checkers are looked up on the module when called.
CHECKS = {
    "check_a2": (naive_a2, ()),
    "check_a3": (naive_a3, ()),
    "check_a4": (naive_a4, ()),
    "check_a5": (naive_a5, ()),
    "check_a5 weak": (naive_a5, ("weak",)),
    "find_dictator": (naive_dictator, ()),
    "find_dictator weak": (naive_dictator, ("weak",)),
    "factor_into_pair_functions": (naive_factor, ()),
}


def outcome(check, *args):
    """The checker's result, or the class and text of what it raised."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


def checker(name):
    return getattr(arrow, name.split()[0])


def counted(swf):
    """``swf`` evaluated through a wrapper that records each evaluated profile."""
    calls = []

    def fn(x):
        calls.append(x)
        return swf.evaluate(x)

    return FunctionSWF(swf.alternatives, swf.n, fn, swf.descriptor), calls


def assert_matches_the_loops(swf):
    for name, (naive, args) in CHECKS.items():
        table_swf, table_calls = counted(swf)
        naive_swf, naive_calls = counted(swf)
        got = outcome(checker(name), table_swf, *args)
        assert got == outcome(naive, naive_swf, *args), (name, swf)
        # each profile once, first read where the loop first evaluated it
        assert table_calls == list(dict.fromkeys(naive_calls)), (name, swf)


# --- the survivors and the counterexamples --------------------------------------


COUNTEREXAMPLES = [
    borda_swf(ALTS, 2),
    anti_dictator_swf(ALTS, 2, 0),
    projection_swf(ALTS, 2, 1),
    constant_swf(ALTS, 2, WeakOrder((("a",), ("b",), ("c",)))),
]


@pytest.mark.parametrize("swf", COUNTEREXAMPLES, ids=lambda s: s.descriptor)
def test_counterexamples_match_the_loops(swf):
    assert_matches_the_loops(swf)


def test_every_survivor_matches_the_loops():
    survivors = arrow_search(2, ALTS)
    assert len(survivors) == 136
    for swf in survivors:
        assert_matches_the_loops(swf)


def test_tables_are_read_by_code_as_they_would_be_evaluated():
    # a TabulatedSWF is read from its index bytes; through ``counted`` it is
    # evaluated profile by profile, which every other test compares to the
    # loops.  Equal copies of the indexed orders are found by equality.
    orders = enumerate_weak_orders(ALTS)
    survivors = arrow_search(2, ALTS)
    copies = []
    for swf in (survivors[0], survivors[-1]):
        values = [WeakOrder(w.blocks) for w in swf.value_tuple()]
        copy = TabulatedSWF(ALTS, 2, values, f"copies of {swf.descriptor}")
        assert copy._indices == swf._indices
        assert all(w is orders[i] for w, i in zip(copy.value_tuple(), copy._indices))
        copies.append(copy)
    for swf in survivors + tuple(copies):
        for name, (naive, args) in CHECKS.items():
            got = outcome(checker(name), swf, *args)
            assert got == outcome(checker(name), counted(swf)[0], *args), (name, swf)
            if swf in copies:
                assert got == outcome(naive, swf, *args), (name, swf)


# --- drawn SWFs ------------------------------------------------------------------


def majority_or_tie(alternatives):
    def run(x):
        res = pairwise_majority_swf(x, alternatives)
        return res.order if res.order is not None else WeakOrder((alternatives,))
    return run


def lexicographic(x):
    blocks = []
    for block in x[0].blocks:
        remaining = list(block)
        while remaining:
            best = min(x[-1].level(s) for s in remaining)
            top = tuple(s for s in remaining if x[-1].level(s) == best)
            blocks.append(top)
            remaining = [s for s in remaining if s not in top]
    return WeakOrder(tuple(blocks))


def bases(alternatives, n):
    orders = enumerate_weak_orders(alternatives)
    return {
        "projection:0": projection_swf(alternatives, n, 0).evaluate,
        "projection:last": projection_swf(alternatives, n, n - 1).evaluate,
        "anti-dictator:0": anti_dictator_swf(alternatives, n, 0).evaluate,
        "constant:first": lambda x: orders[0],
        "constant:tied": lambda x: orders[-1],
        "borda": borda_swf(alternatives, n).evaluate,
        "majority-or-tie": majority_or_tie(alternatives),
        "lexicographic": lexicographic,
    }


class Refused(Exception):
    pass


def reversed_blocks(order):
    """The same preorder with every block listed back to front: equal stances,
    but not the indexed order."""
    return WeakOrder(tuple(tuple(reversed(block)) for block in order.blocks))


@st.composite
def drawn_swfs(draw):
    """A deterministic SWF: a base SWF with some profiles answered by another
    order, by a non-canonical one, by one over other alternatives, or refused.
    It is a ``FunctionSWF``, so its foreign answers are read on the loop path."""
    alternatives = draw(st.sampled_from([("a", "b"), ALTS]))
    n = draw(st.sampled_from([1, 2]))
    orders = enumerate_weak_orders(alternatives)
    profiles = sorted_profiles(alternatives, n)
    base_name = draw(st.sampled_from(sorted(bases(alternatives, n))))
    base = bases(alternatives, n)[base_name]
    foreign = [
        WeakOrder((alternatives[:-1],)),  # misses an alternative
        WeakOrder(((alternatives[0], "z"), alternatives[1:])),  # an extra one
    ]
    answers = st.one_of(
        st.sampled_from(orders),
        st.sampled_from(orders).map(reversed_blocks),
        st.sampled_from(foreign),
        st.just("refuse"),
    )
    overrides = draw(st.dictionaries(st.sampled_from(profiles), answers, max_size=5))
    reblock = draw(st.booleans())  # every answer in non-canonical block order

    def fn(x):
        answer = overrides.get(x)
        if answer == "refuse":
            raise Refused(f"refused at {[str(w) for w in x]}")
        order = base(x) if answer is None else answer
        return reversed_blocks(order) if reblock else order

    return FunctionSWF(alternatives, n, fn, f"drawn:{base_name}")


@settings(max_examples=80, deadline=None)
@given(drawn_swfs())
def test_drawn_swfs_match_the_loops(swf):
    assert_matches_the_loops(swf)


def test_non_canonical_orders_keep_the_verdicts():
    # the projection with blocks listed back to front is still a dictatorship
    proj = projection_swf(ALTS, 2, 1)
    swf = FunctionSWF(ALTS, 2, lambda x: reversed_blocks(proj.evaluate(x)), "reblocked")
    assert arrow.find_dictator(swf) == 1
    assert arrow.find_dictator(swf, "weak") == 1
    for check in (arrow.check_a2, arrow.check_a3, arrow.check_a4):
        assert check(swf).passed


def test_an_order_missing_an_alternative_raises_as_before():
    swf = FunctionSWF(ALTS, 2, lambda x: WeakOrder((("a", "b"),)), "no-c")
    raised = set()
    for name, (naive, args) in CHECKS.items():
        got = outcome(checker(name), swf, *args)
        assert got == outcome(naive, swf, *args), name
        if got == (KeyError, "'c'"):
            raised.add(name)
    # the strict premise fails on (a, b) at the first profile, before any
    # stance on c is asked for
    assert raised == set(CHECKS) - {"check_a5", "find_dictator"}



def test_an_answer_that_is_not_an_order_raises_on_its_stance():
    # every checker reads a social order through ``stance``; the loops of A2,
    # A4 and the weak premise asked ``weakly_prefers`` instead, so only the
    # attribute named in the message differs from theirs
    refused_at = sorted_profiles(ALTS, 2)[7]
    swf = FunctionSWF(ALTS, 2, lambda x: None if x == refused_at else x[0], "none-at-7")
    for name, (naive, args) in CHECKS.items():
        table_swf, table_calls = counted(swf)
        naive_swf, naive_calls = counted(swf)
        got = outcome(checker(name), table_swf, *args)
        expected = outcome(naive, naive_swf, *args)
        assert got == (AttributeError, "'NoneType' object has no attribute 'stance'"), name
        assert expected[0] is AttributeError, name
        assert table_calls == list(dict.fromkeys(naive_calls)), name


# --- drawn tables, read by order index -------------------------------------------


def tabulate(fn, alternatives, n):
    return tuple(map(fn, sorted_profiles(alternatives, n)))


@functools.lru_cache(maxsize=None)
def table_starts(alternatives, n):
    """Value tuples to start from: the survivors (at three alternatives), and
    the tabulated base SWFs, among them ones failing A2, A3 and A4, and ones
    without a dictator."""
    starts = [tabulate(fn, alternatives, n) for _, fn in sorted(bases(alternatives, n).items())]
    if len(alternatives) == 3:
        starts += [swf.value_tuple() for swf in arrow_search(n, alternatives)]
    return starts


@st.composite
def drawn_tables(draw):
    """A table's values, with a few replaced by another indexed order or by an
    equal copy of one, and the table built from them.  Foreign answers, which
    a table refuses, are drawn for ``FunctionSWF`` only (``drawn_swfs``)."""
    alternatives = draw(st.sampled_from([("a", "b"), ALTS]))
    n = draw(st.sampled_from([1, 2]))
    orders = enumerate_weak_orders(alternatives)
    values = list(draw(st.sampled_from(table_starts(alternatives, n))))
    indexed = st.sampled_from(orders)
    answers = st.one_of(indexed, indexed.map(lambda w: WeakOrder(w.blocks)))
    replaced = draw(st.dictionaries(st.integers(0, len(values) - 1), answers, max_size=4))
    for code, answer in replaced.items():
        values[code] = answer
    return values, TabulatedSWF(alternatives, n, values, "drawn-table")


def assert_witness_reevaluates(swf, result):
    """A failing A2 or A3 result holds on re-evaluating its two profiles."""
    w = result.witness
    before, after = swf.evaluate(w.profile), swf.evaluate(w.other)
    if result.condition == "A2":
        hi, lo = w.pair
        moved = [v for v in range(swf.n) if w.profile[v] != w.other[v]]
        assert len(moved) == 1
        v = moved[0]
        assert w.profile[v].stance(hi, lo) <= 0 <= w.other[v].stance(hi, lo)
        assert w.profile[v].stance(hi, lo) != w.other[v].stance(hi, lo)
        assert before.stance(hi, lo) >= 0 > after.stance(hi, lo)
        assert w.detail == (f"voter {v} moved toward {hi} over {lo} but the social "
                            f"stance dropped it")
    else:
        a, b = w.pair
        assert [x.stance(a, b) for x in w.profile] == [x.stance(a, b) for x in w.other]
        assert before.stance(a, b) != after.stance(a, b)
        assert w.detail == f"same voter stances on ({a}, {b}) but social stance differs"


def assert_tables_match_the_loops(swf):
    for name, (naive, args) in CHECKS.items():
        got = outcome(checker(name), swf, *args)
        assert got == outcome(naive, swf, *args), (name, swf)
        if name in ("check_a2", "check_a3") and isinstance(got, ArrowCheckResult) \
                and not got.passed:
            assert_witness_reevaluates(swf, got)


@settings(max_examples=60, deadline=None)
@given(drawn_tables())
def test_drawn_tables_match_the_loops(drawn):
    values, swf = drawn
    orders = enumerate_weak_orders(swf.alternatives)
    assert swf._indices == bytes(map(orders.index, values))
    assert all(w is orders[i] for w, i in zip(swf.value_tuple(), swf._indices))
    assert swf.value_tuple() == tuple(values)
    assert_tables_match_the_loops(swf)


def test_tabulated_counterexamples_fail_on_their_indices():
    # the index path reaches every failing verdict and a table without a dictator
    failed = set()
    for swf in COUNTEREXAMPLES:
        table = TabulatedSWF(ALTS, 2, tabulate(swf.evaluate, ALTS, 2), swf.descriptor)
        assert_tables_match_the_loops(table)
        failed |= {check.__name__ for check in (arrow.check_a2, arrow.check_a3, arrow.check_a4)
                   if not check(table).passed}
        if arrow.find_dictator(table) is None:
            failed.add("no dictator")
    assert failed == {"check_a2", "check_a3", "check_a4", "no dictator"}


NOT_ORDERS = [
    reversed_blocks(enumerate_weak_orders(ALTS)[-1]),  # equal stances, not an equal order
    WeakOrder((("a",), ("c", "b"))),  # one block listed back to front
    WeakOrder((("a", "b"),)),  # misses an alternative
    WeakOrder((("a", "z"), ("b", "c"))),  # an extra one
    None,
    "a > b > c",
    [("a",), ("b",), ("c",)],  # unhashable
]


@pytest.mark.parametrize("answer", NOT_ORDERS, ids=repr)
def test_a_table_refuses_a_value_outside_the_domains_orders(answer):
    values = list(arrow_search(2, ALTS)[0].value_tuple())
    values[100] = answer
    with pytest.raises(ValueError, match=r"the value at profile code 100, .* is not one of"):
        TabulatedSWF(ALTS, 2, values)


def test_a_table_refuses_more_orders_than_a_byte_indexes_before_any_table_is_built():
    abcd = ("a", "b", "c", "d")
    table = TabulatedSWF(abcd, 1, enumerate_weak_orders(abcd))  # 75 orders
    assert table._indices == bytes(range(75))
    before = arrow._tables.cache_info()
    with pytest.raises(ValueError, match="at most 256 weak orders"):
        TabulatedSWF(("a", "b", "c", "d", "e"), 1, [])
    assert arrow._tables.cache_info() == before


# m^n order profiles over core.PROFILE_BUDGET: 13^6 and 75^3 are the least over it
@pytest.mark.parametrize("alternatives, n", [
    (ALTS, 6), (ALTS + ("d",), 3), (ALTS, 10 ** 6), (ALTS + ("d",), 10 ** 6)])
@pytest.mark.parametrize("check", [
    sorted_profiles,
    lambda alternatives, n: arrow.check_a4(projection_swf(alternatives, n, 0)),
], ids=["sorted-profiles", "check-a4"])
def test_a_domain_over_the_budget_is_refused_before_any_table_is_built(check, alternatives, n):
    caches = (arrow._tables, sorted_profiles)
    before = [cache.cache_info().currsize for cache in caches]
    start = time.perf_counter()
    with pytest.raises(BoundError, match="exceed the budget"):
        check(alternatives, n)
    assert time.perf_counter() - start < 0.5  # neither m^n nor any profile is built
    assert [cache.cache_info().currsize for cache in caches] == before


def test_a_table_over_the_budget_is_refused_by_the_same_guard():
    abcd = ("a", "b", "c", "d")
    assert len(sorted_profiles(abcd, 2)) == 75 ** 2  # the largest domain at 4 alternatives
    with pytest.raises(BoundError, match="3 voters over 75 weak orders exceed the budget"):
        TabulatedSWF(abcd, 3, [])


# a voter count is refused before any table is built, and only an int counts:
# True and 1.0 are not read as the cached n=1 domain
@pytest.mark.parametrize("n", [-1, True, 1.0, "2"], ids=repr)
@pytest.mark.parametrize("check", [
    sorted_profiles,
    lambda alternatives, n: arrow.check_a4(
        constant_swf(alternatives, n, enumerate_weak_orders(alternatives)[0])),
], ids=["sorted-profiles", "check-a4"])
def test_a_voter_count_that_is_not_a_non_negative_int_is_refused(check, n):
    arrow.check_a4(projection_swf(ALTS, 1, 0))  # n=1 in both caches
    caches = (arrow._tables, sorted_profiles)
    before = [cache.cache_info().currsize for cache in caches]
    with pytest.raises(BoundError, match=rf"voter count {n!r} is not a non-negative int"):
        check(ALTS, n)
    assert [cache.cache_info().currsize for cache in caches] == before


# --- one stance-vector coding, and tables built on first use -------------------

STANCE_DOMAINS = [pytest.param(alternatives, n, id=f"{''.join(alternatives)}-{n}")
                  for alternatives, top in ((("a", "b"), 4), (ALTS, 3), (ALTS + ("d",), 1))
                  for n in range(top + 1)]


@pytest.mark.parametrize("alternatives, n", STANCE_DOMAINS)
def test_each_pair_codes_the_voters_stances_base_3(alternatives, n):
    domain = arrow._tables(alternatives, n)
    assert domain.pairs == tuple(naive_ordered_pairs(alternatives))
    for p, (a, b) in enumerate(domain.pairs):
        assert domain.vectors[p] == tuple(
            sum((w.stance(a, b) + 1) * 3 ** (n - 1 - v) for v, w in enumerate(x))
            for x in sorted_profiles(alternatives, n))


@pytest.mark.parametrize("alternatives, n", STANCE_DOMAINS)
def test_pair_functions_are_the_stances_read_from_the_orders(alternatives, n):
    orders = enumerate_weak_orders(alternatives)
    swfs = [constant_swf(alternatives, n, orders[0]), constant_swf(alternatives, n, orders[-1])]
    swfs += [projection_swf(alternatives, n, v) for v in range(n)]
    for swf in swfs:
        expected = {}
        for a, b in itertools.combinations(alternatives, 2):
            table = expected[(a, b)] = {}
            for x in sorted_profiles(alternatives, n):
                table.setdefault(tuple(w.stance(a, b) for w in x), swf.evaluate(x).stance(a, b))
        got = factor_into_pair_functions(swf)
        assert got == expected
        # key order included, of the pairs and of each pair's stance vectors
        assert [(q, list(t)) for q, t in got.items()] == [(q, list(t)) for q, t in expected.items()]


def test_order_tables_need_memory_of_the_stance_codes_not_of_every_profiles_stances():
    profiles = sorted_profiles(ALTS, 4)  # 28,561, built before tracing
    tracemalloc.start()
    try:
        domain = arrow._OrderTables(ALTS, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert domain.profiles is profiles
    assert peak < 200 * len(profiles)


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty order-table cache for one test, so that what it finds built
    in a domain's tables was built by the test."""
    monkeypatch.setattr(arrow, "_tables",
                        functools.lru_cache(maxsize=None, typed=True)(arrow._OrderTables))


def test_evaluate_finds_the_code_by_arithmetic_and_builds_no_table(fresh_tables):
    for alternatives, n in (param.values for param in STANCE_DOMAINS):
        domain = arrow._tables(alternatives, n)
        m, built = len(domain.orders), set(vars(domain))
        table = arrow.TabulatedSWF._of_indices(alternatives, n,
                                               bytes(code * 7 % m for code in range(m ** n)))
        assert list(map(table.evaluate, domain.profiles)) == list(table.value_tuple())
        assert set(vars(domain)) == built
    table = arrow_search(2, ALTS)[0]  # built by ``_of_indices``
    domain = arrow._tables(ALTS, 2)
    built = set(vars(domain))
    for swf in (table, projection_swf(ALTS, 2, 1), borda_swf(ALTS, 2)):
        for check in (arrow.check_a2, arrow.check_a3, arrow.check_a4, arrow.check_a5,
                      arrow.find_dictator, factor_into_pair_functions):
            check(swf)
    assert set(vars(domain)) - built <= {"honours", "voter_orders", "grouped", "moves"}
    profiles = sorted_profiles(ALTS, 2)
    with pytest.raises(KeyError):
        table.evaluate(profiles[100][:1])  # another length
    with pytest.raises(KeyError):
        table.evaluate((WeakOrder((("a",), ("b",))),) * 2)  # other alternatives
    with pytest.raises(TypeError):
        table.evaluate(list(profiles[100]))  # not a tuple
    with pytest.raises(TypeError):
        table.evaluate((profiles[100][0], []))  # an unhashable order
