"""The family search checks C6 while it assigns values, and ``maximal_elements``
compares one-hot bitmasks; here both are held to the code they replaced.

``old_passes_c6`` is the leaf filter the search used to apply to each finished
table, and ``old_maximal_elements`` with ``old_table_leq`` the pairwise
comparison of value tuples.  They are copies, kept as an independent oracle.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import axioms
from votelab.core import Alphabet, signatures_up_to
from votelab.enumeration import FamilySet, enumerate_c_families, maximal_elements
from votelab.rules import TabulatedFamily, TabulatedRule

AB2 = Alphabet.make(2)


def old_passes_c6(table, alphabet, horizon):
    k = len(alphabet.non_bot)
    for s in table:
        if sum(s) > horizon - 1 or table[s] != alphabet.bot:
            continue
        if not any(
            table[s[:j] + (s[j] + 1,) + s[j + 1:]] != alphabet.bot for j in range(k)
        ):
            return False
    return True


def old_table_leq(f, g, bot):
    return all(v == bot or v == w for v, w in zip(f, g))


def old_maximal_elements(family_set):
    bot = family_set.alphabet.bot
    values = [f.value_tuple() for f in family_set.families]
    return tuple(
        f for f, v in zip(family_set.families, values)
        if not any(w != v and old_table_leq(v, w, bot) for w in values)
    )


@functools.lru_cache(maxsize=None)
def families(k, horizon, with_c6=False):
    return enumerate_c_families(Alphabet.make(k), horizon, with_c6=with_c6)


# --- C6 during the search against the leaf filter ---------------------------------


SEARCH_BOUNDS = [(2, h) for h in range(9)] + [(3, h) for h in range(6)]


@pytest.mark.parametrize("k, horizon", SEARCH_BOUNDS)
def test_c6_search_matches_the_leaf_filter(k, horizon):
    alphabet = Alphabet.make(k)
    kept = [f.value_tuple() for f in families(k, horizon).families
            if old_passes_c6(f.table, alphabet, horizon)]
    assert [f.value_tuple() for f in families(k, horizon, True).families] == kept


def test_three_alternatives_h6_with_c6_keeps_14_families():
    assert len(families(3, 6, True).families) == 14


# --- maximal_elements against the pairwise loop ---------------------------------


def _restrict(family_set, horizon):
    """The horizon-``horizon`` restrictions of the families, deduplicated and
    in canonical order."""
    sigs = [sig.counts for sig in signatures_up_to(family_set.alphabet, horizon)]
    restricted = {}
    for fam in family_set.families:
        table = TabulatedFamily(family_set.alphabet, horizon,
                                {s: fam.table[s] for s in sigs})
        restricted.setdefault(table.value_tuple(), table)
    return FamilySet(family_set.alphabet, horizon,
                     tuple(restricted[v] for v in sorted(restricted)))


ORDER_SETS = (
    [("all", 2, h) for h in range(7)] + [("all", 3, h) for h in range(5)]
    + [("c6", 2, h) for h in range(9)] + [("c6", 3, h) for h in range(7)]
    + [("restricted", 2, h) for h in range(1, 5)] + [("restricted", 3, h) for h in (1, 2)]
)


@pytest.mark.parametrize("kind, k, horizon", ORDER_SETS)
def test_maximal_elements_match_the_pairwise_loop(kind, k, horizon):
    if kind == "all":
        fs = families(k, horizon)
    elif kind == "c6":
        fs = families(k, horizon, True)
    else:
        fs = _restrict(families(k, 2 * horizon), horizon)
    assert maximal_elements(fs) == old_maximal_elements(fs)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, len(families(2, 5).families) - 1)))
def test_maximal_elements_of_subsets_match_the_pairwise_loop(picked):
    every = families(2, 5).families
    fs = FamilySet(AB2, 5, tuple(every[i] for i in sorted(picked)))
    assert maximal_elements(fs) == old_maximal_elements(fs)


# --- the dual route at 3 alternatives ---------------------------------------------


@pytest.mark.parametrize("horizon", [5, 6])
def test_c6_families_pass_the_raw_profile_checkers(horizon):
    fs = families(3, horizon, True)
    assert fs.families
    for fam in fs.families:
        rule = TabulatedRule(fam)
        assert axioms.check_c6(rule, horizon - 1).passed, fam.value_tuple()
        report = axioms.audit(rule, ("C2", "C3", "C4", "C5"), horizon)
        assert [r.axiom for r in report.results] == ["C2", "C3", "C4", "C5"]
        for result in report.results:
            assert result.passed, (result.axiom, fam.value_tuple())
