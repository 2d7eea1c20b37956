"""The family search poses every axiom as a constraint for the one search
core, ``core.solutions``, C6 as a "not all tie" constraint over a signature and
its extensions, and ``maximal_elements`` compares one-hot bitmasks against the
maximal set found so far; here each is held to the code it replaced.

``old_enumerate_c_families`` is the backtracker that looked up forcing
predecessors and orbit representatives at every node, ``old_passes_c6`` the
leaf filter the search used to apply to each finished table, and
``old_maximal_elements`` with ``old_table_leq`` the pairwise comparison of
value tuples.  They are copies, kept as an independent oracle.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import axioms
from votelab.core import Alphabet, signatures_up_to
from votelab.enumeration import FamilySet, enumerate_c_families, maximal_elements
from votelab.rules import TabulatedFamily, TabulatedRule

from helpers import table_of

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


def _permute_counts(counts, perm):
    out = [0] * len(counts)
    for i, c in enumerate(counts):
        out[perm[i]] = c
    return tuple(out)


def old_enumerate_c_families(alphabet, horizon, with_c6=False):
    """The family value tuples, in canonical order."""
    k = len(alphabet.non_bot)
    sigs = list(signatures_up_to(alphabet, horizon))
    position = {s: i for i, s in enumerate(sigs)}
    perms = list(itertools.permutations(range(k)))
    non_bot = alphabet.non_bot
    bot = alphabet.bot

    def permute_value(value, perm):
        if value == bot:
            return bot
        return non_bot[perm[non_bot.index(value)]]

    orbit_rep = {}
    stabilizer_allowed = {}
    rep_map_perm = {}
    for s in sigs:
        rep = orbit_rep[s] = min(_permute_counts(s, p) for p in perms)
        if rep == s:
            stab = [p for p in perms if _permute_counts(s, p) == s]
            stabilizer_allowed[s] = [bot] + [
                v for v in non_bot if all(permute_value(v, p) == v for p in stab)]
        else:
            rep_map_perm[s] = next(p for p in perms if _permute_counts(rep, p) == s)

    due = [[] for _ in sigs]
    for i, s in enumerate(sigs):
        if with_c6 and sum(s) < horizon:
            ext = [position[s[:j] + (s[j] + 1,) + s[j + 1:]] for j in range(k)]
            due[max(ext)].append((i, ext))

    assignment = [None] * len(sigs)
    found = []

    def forced_value(s):
        forced = None
        for j, sym in enumerate(non_bot):
            if s[j] == 0:
                continue
            pred = s[:j] + (s[j] - 1,) + s[j + 1:]
            pv = assignment[position[pred]]
            if pv == sym:
                if forced is None:
                    forced = sym
                elif forced != sym:
                    return "__conflict__"
        return forced

    def backtrack(idx):
        if idx == len(sigs):
            found.append(tuple(assignment))
            return
        s = sigs[idx]
        forced = forced_value(s)
        if forced == "__conflict__":
            return
        if orbit_rep[s] == s:
            candidates = stabilizer_allowed[s]
            if forced is not None:
                candidates = [forced] if forced in candidates else []
        else:
            rep_value = assignment[position[orbit_rep[s]]]
            determined = permute_value(rep_value, rep_map_perm[s])
            candidates = [determined] if forced in (None, determined) else []
        for value in candidates:
            assignment[idx] = value
            if not any(assignment[i] == bot and all(assignment[e] == bot for e in ext)
                       for i, ext in due[idx]):
                backtrack(idx + 1)
            assignment[idx] = None

    backtrack(0)
    return sorted(found)


@functools.lru_cache(maxsize=None)
def families(k, horizon, with_c6=False):
    return enumerate_c_families(Alphabet.make(k), horizon, with_c6=with_c6)


# --- C6 during the search against the leaf filter ---------------------------------


SEARCH_BOUNDS = [(2, h) for h in range(9)] + [(3, h) for h in range(6)]


@pytest.mark.parametrize("k, horizon", SEARCH_BOUNDS)
def test_c6_search_matches_the_leaf_filter(k, horizon):
    alphabet = Alphabet.make(k)
    kept = [f.value_tuple() for f in families(k, horizon).families
            if old_passes_c6(table_of(f), alphabet, horizon)]
    assert [f.value_tuple() for f in families(k, horizon, True).families] == kept


@pytest.mark.parametrize("with_c6", [False, True])
@pytest.mark.parametrize("k, horizon", SEARCH_BOUNDS)
def test_planned_search_matches_the_old_backtracker(k, horizon, with_c6):
    expected = old_enumerate_c_families(Alphabet.make(k), horizon, with_c6)
    assert [f.value_tuple() for f in families(k, horizon, with_c6).families] == expected


def test_three_alternatives_h6_with_c6_keeps_14_families():
    assert len(families(3, 6, True).families) == 14


def test_three_alternatives_h6_keeps_10528_families():
    # the largest plain search tier-1 affords; no golden file reaches it
    assert len(families(3, 6).families) == 10528


# --- maximal_elements against the pairwise loop ---------------------------------


def _restrict(family_set, horizon):
    """The horizon-``horizon`` restrictions of the families, deduplicated and
    in canonical order."""
    sigs = list(signatures_up_to(family_set.alphabet, horizon))
    restricted = {}
    for fam in family_set.families:
        full = table_of(fam)
        table = TabulatedFamily.from_table(family_set.alphabet, horizon,
                                           {s: full[s] for s in sigs})
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


@pytest.mark.parametrize("horizon, with_c6", [(4, False), (6, True)])  # 100 and 14 families
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_maximal_elements_of_three_alternative_subsets_match_the_pairwise_loop(
        horizon, with_c6, data):
    every = families(3, horizon, with_c6)
    picked = data.draw(st.sets(st.integers(0, len(every.families) - 1)))
    fs = FamilySet(every.alphabet, horizon, tuple(every.families[i] for i in sorted(picked)))
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
