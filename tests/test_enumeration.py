import itertools

import pytest

from votelab.core import (
    Alphabet, BoundError, Profile, RuleDomainError, VoteLabError, profiles_of_size,
    signatures_up_to,
)
from votelab.rules import (
    PureMajorityRule,
    QuorumRule,
    TabulatedFamily,
    TabulatedRule,
    pure_majority_table,
)
from votelab import arrow, axioms, enumeration
from votelab.enumeration import (
    FamilySet,
    MayFunctionTable,
    enumerate_c_families,
    enumerate_may_functions,
    maximal_elements,
    plurality_artifacts,
    rule_leq,
)

AB2 = Alphabet.make(2)


def no_work(*args):
    raise AssertionError("the search started before its bound was checked")


# --- May tables -------------------------------------------------------------


def brute_force_may_tables(n, semantics):
    """Oracle: filter every table by the conditions stated on raw profiles."""
    triples = [(m, z, n - m - z) for m in range(n + 1) for z in range(n - m + 1)]
    profiles = list(itertools.product((-1, 0, 1), repeat=n))

    def counts(p):
        return (p.count(-1), p.count(0), p.count(1))

    survivors = []
    for values in itertools.product((-1, 0, 1), repeat=len(triples)):
        table = dict(zip(triples, values))

        def f(p):
            return table[counts(p)]

        ok = True
        for p in profiles:
            if f(tuple(-v for v in p)) != -f(p):
                ok = False
                break
            for v in range(n):
                for new in (-1, 0, 1):
                    if new == p[v]:
                        continue
                    if semantics == "flip" and (p[v] == 0 or new != -p[v]):
                        continue
                    d = 1 if new > p[v] else -1
                    if f(p) not in (0, d):
                        continue
                    q = p[:v] + (new,) + p[v + 1:]
                    if f(q) != d:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            survivors.append(values)
    return sorted(survivors)


class TestMayEnumeration:
    def test_single_voter_hand_check(self):
        # neutrality pins the all-zero ballot to 0; responsiveness then forces
        # the lone +1 ballot to elect 1 and its mirror to elect -1
        tables = enumerate_may_functions(1, "in_favor")
        assert len(tables) == 1
        assert tables[0].value_tuple() == MayFunctionTable.sign_table(1).value_tuple()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("semantics", ["in_favor", "flip"])
    def test_matches_raw_profile_oracle(self, n, semantics):
        got = [t.value_tuple() for t in enumerate_may_functions(n, semantics)]
        assert sorted(got) == brute_force_may_tables(n, semantics)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_uniqueness_in_favor(self, n):
        tables = enumerate_may_functions(n, "in_favor")
        assert [t.value_tuple() for t in tables] == [
            MayFunctionTable.sign_table(n).value_tuple()
        ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_flip_semantics_results_are_stable(self, n):
        first = [t.value_tuple() for t in enumerate_may_functions(n, "flip")]
        second = [t.value_tuple() for t in enumerate_may_functions(n, "flip")]
        assert first == second
        assert MayFunctionTable.sign_table(n).value_tuple() in first

    def test_bound_rejected(self):
        with pytest.raises(BoundError):
            enumerate_may_functions(12)

    def test_the_profile_budget_admits_eleven_voters(self):
        # the cross-check reads all 3^11 = 177,147 profiles; 3^12 is over the budget
        assert enumerate_may_functions(11) == (MayFunctionTable.sign_table(11),)

    def test_a_bool_voter_count_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(enumeration, "compositions", no_work)
        with pytest.raises(BoundError):
            enumerate_may_functions(True)

    # each value tuple has the length the voter count would give
    @pytest.mark.parametrize("n, values", [(-1, ()), (True, (1, 0, -1)), (2.0, (0,) * 6)])
    def test_a_table_needs_a_non_negative_int_voter_count(self, n, values):
        with pytest.raises(ValueError, match="voter count"):
            MayFunctionTable(n, values)

    def test_table_rule_rejects_other_sizes(self):
        rule = MayFunctionTable.sign_table(2).as_rule()
        from votelab.core import VoteLabError

        with pytest.raises(VoteLabError):
            rule.evaluate(Profile(Alphabet.may(), ("1",)))


# --- consistent families ----------------------------------------------------


def brute_force_families(alphabet, horizon, with_c6=False):
    """Oracle: filter every signature table by independently written
    neutrality-orbit, consistency-closure and tie-escape constraints."""
    sigs = list(signatures_up_to(alphabet, horizon))
    non_bot = alphabet.non_bot
    bot = alphabet.bot
    k = len(non_bot)
    values = (bot,) + non_bot
    perms = list(itertools.permutations(range(k)))

    def permute_sig(s, perm):
        out = [0] * k
        for i, c in enumerate(s):
            out[perm[i]] = c
        return tuple(out)

    def permute_val(v, perm):
        return v if v == bot else non_bot[perm[non_bot.index(v)]]

    survivors = []
    for assignment in itertools.product(values, repeat=len(sigs)):
        table = dict(zip(sigs, assignment))
        ok = True
        for s in sigs:
            v = table[s]
            for perm in perms:
                if table[permute_sig(s, perm)] != permute_val(v, perm):
                    ok = False
                    break
            if not ok:
                break
            if v != bot:
                j = non_bot.index(v)
                succ = s[:j] + (s[j] + 1,) + s[j + 1:]
                if sum(succ) <= horizon and table[succ] != v:
                    ok = False
                    break
        if ok and with_c6:
            for s in sigs:
                if sum(s) > horizon - 1 or table[s] != bot:
                    continue
                if not any(
                    table[s[:j] + (s[j] + 1,) + s[j + 1:]] != bot for j in range(k)
                ):
                    ok = False
                    break
        if ok:
            survivors.append(tuple(table[s] for s in sigs))
    return sorted(survivors)


class TestFamilyEnumeration:
    def test_h2_contains_pure_majority_and_always_tie(self):
        fs = enumerate_c_families(AB2, 2)
        values = [f.value_tuple() for f in fs.families]
        assert pure_majority_table(AB2, 2).value_tuple() in values
        assert tuple([AB2.bot] * len(values[0])) in values
        assert len(values) == 4  # frozen from the oracle cross-check below

    @pytest.mark.parametrize("horizon", [0, 1, 2, 3])
    @pytest.mark.parametrize("with_c6", [False, True])
    def test_matches_brute_force_oracle(self, horizon, with_c6):
        fs = enumerate_c_families(AB2, horizon, with_c6=with_c6)
        got = sorted(f.value_tuple() for f in fs.families)
        assert got == brute_force_families(AB2, horizon, with_c6)

    def test_three_alternatives_supported(self):
        ab3 = Alphabet.make(3)
        fs = enumerate_c_families(ab3, 2)
        values = [f.value_tuple() for f in fs.families]
        assert pure_majority_table(ab3, 2).value_tuple() in values
        assert sorted(values) == brute_force_families(ab3, 2)

    def test_with_c6_h6_is_exactly_pure_majority(self):
        fs = enumerate_c_families(AB2, 6, with_c6=True)
        assert [f.value_tuple() for f in fs.families] == [
            pure_majority_table(AB2, 6).value_tuple()
        ]

    def test_families_pass_independent_checkers(self):
        # dual route at a small horizon: the raw-profile checkers must accept
        # every enumerated family over the same bounds
        fs = enumerate_c_families(AB2, 4)
        for fam in fs.families:
            rule = TabulatedRule(fam)
            assert axioms.check_c2(rule, 4).passed
            assert axioms.check_c3(rule, 4).passed
            assert axioms.check_c4(rule, 4).passed
            assert axioms.check_c5(rule, 4).passed
        fs6 = enumerate_c_families(AB2, 4, with_c6=True)
        for fam in fs6.families:
            assert axioms.check_c6(TabulatedRule(fam), 3).passed

    def test_full_horizon_set_passes_independent_checkers(self):
        # the same dual route over the whole horizon-6 set, checker bounds
        # matching the enumeration horizon
        fs = enumerate_c_families(AB2, 6)
        for fam in fs.families:
            report = axioms.audit(TabulatedRule(fam), ("C2", "C3", "C4", "C5"), 6)
            assert [r.axiom for r in report.results] == ["C2", "C3", "C4", "C5"]
            for result in report.results:
                assert result.passed, (result.axiom, fam.value_tuple())

    def test_half_horizon_soundness(self):
        # conclusive-against-the-winner cells exist only above half horizon
        fs = enumerate_c_families(AB2, 6)
        offenders = plurality_artifacts(fs)
        assert len(offenders) > 0  # the truncation artifacts are real
        assert all(sum(sig) > 3 for _, sig in offenders)

    def test_deterministic(self):
        a = [f.value_tuple() for f in enumerate_c_families(AB2, 5).families]
        b = [f.value_tuple() for f in enumerate_c_families(AB2, 5).families]
        assert a == b

    def test_bounds_rejected(self):
        with pytest.raises(BoundError):
            enumerate_c_families(AB2, 9)
        with pytest.raises(BoundError):
            enumerate_c_families(Alphabet.make(4), 3)

    @pytest.mark.parametrize("horizon", [True, 2.0])
    def test_a_horizon_that_is_not_an_int_is_refused_before_any_work(self, monkeypatch, horizon):
        monkeypatch.setattr(enumeration, "signature_positions", no_work)
        with pytest.raises(BoundError):
            enumerate_c_families(AB2, horizon)

    def test_one_alternative_is_a_domain_error(self):
        with pytest.raises(RuleDomainError, match="at least 2 non-tie alternatives"):
            enumerate_c_families(Alphabet.make(1), 2)


# --- the conclusiveness order ------------------------------------------------


class TestRuleLeq:
    def test_quorum_below_pure_majority(self):
        holds, witness = rule_leq(
            QuorumRule(AB2, 3, "participation"), PureMajorityRule(AB2), 6
        )
        assert holds and witness is None

    def test_pure_majority_not_below_quorum(self):
        holds, witness = rule_leq(
            PureMajorityRule(AB2), QuorumRule(AB2, 3, "participation"), 6
        )
        assert not holds
        assert witness.ballots == ("a",)

    def test_reflexive(self):
        rule = PureMajorityRule(AB2)
        assert rule_leq(rule, rule, 5) == (True, None)

    def test_partial_order_on_enumerated_set(self):
        fs = enumerate_c_families(AB2, 4)
        rules = [TabulatedRule(f) for f in fs.families]
        leq = {}
        for f in rules:
            for g in rules:
                leq[(f.descriptor, g.descriptor)] = rule_leq(f, g, 4)[0]
        for f in rules:
            assert leq[(f.descriptor, f.descriptor)]
        for f in rules:
            for g in rules:
                if f is g:
                    continue
                if leq[(f.descriptor, g.descriptor)] and leq[(g.descriptor, f.descriptor)]:
                    assert f.family.value_tuple() == g.family.value_tuple()
        for f in rules:
            for g in rules:
                for h in rules:
                    if leq[(f.descriptor, g.descriptor)] and leq[(g.descriptor, h.descriptor)]:
                        assert leq[(f.descriptor, h.descriptor)]


class TestMaximalElements:
    def test_singleton(self):
        fam = pure_majority_table(AB2, 3)
        fs = FamilySet(AB2, 3, (fam,))
        assert maximal_elements(fs) == (fam,)

    def test_always_tie_is_dominated(self):
        pm = pure_majority_table(AB2, 3)
        bot_table = TabulatedFamily(AB2, 3, (AB2.bot,) * len(pm.value_tuple()))
        families = tuple(sorted([pm, bot_table], key=TabulatedFamily.value_tuple))
        fs = FamilySet(AB2, 3, families)
        assert maximal_elements(fs) == (pm,)

    def test_pure_majority_is_maximal_at_h6(self):
        fs = enumerate_c_families(AB2, 6)
        maximal = maximal_elements(fs)
        pm = pure_majority_table(AB2, 6).value_tuple()
        assert pm in [f.value_tuple() for f in maximal]

    def test_extra_maximal_elements_are_horizon_artifacts(self):
        # beyond pure majority, every maximal element is conclusive against
        # the winner somewhere above the half-horizon soundness region
        fs = enumerate_c_families(AB2, 6)
        maximal = maximal_elements(fs)
        assert len(maximal) == 14  # frozen; includes pure majority
        pm = pure_majority_table(AB2, 6).value_tuple()
        artifact_values = {f.value_tuple() for f, _ in plurality_artifacts(fs)}
        for fam in maximal:
            if fam.value_tuple() != pm:
                assert fam.value_tuple() in artifact_values


@pytest.mark.parametrize("call, error, message", [
    (lambda: FamilySet(AB2, 2, enumerate_c_families(AB2, 2).families[::-1]),
     ValueError, "sorted and pairwise distinct"),
    (lambda: FamilySet(AB2, 2, enumerate_c_families(AB2, 2).families[:1] * 2),
     ValueError, "sorted and pairwise distinct"),
    (lambda: rule_leq(PureMajorityRule(AB2), PureMajorityRule(Alphabet.make(3)), 2),
     VoteLabError, "share an alphabet"),
    (lambda: enumerate_may_functions(2, "sideways"), VoteLabError, "unknown Ma4 semantics"),
], ids=["unsorted-family-set", "duplicated-family-set", "rules-over-two-alphabets",
        "unknown-ma4-semantics"])
def test_refusals_raise_their_class(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert raised.type is error


# --- search networks built once per domain ------------------------------------


NETWORKS = (enumeration._c_network, enumeration._may_network, arrow._search_network)
SWAPPED = (Alphabet(("_", "a", "b"), "_"), Alphabet(("b", "a", "_"), "_"))


def arrow_key(survivors):
    return [(s._indices, s.descriptor) for s in survivors]


def network_calls():
    """Searches over every cached domain kind, interleaved."""
    calls = [lambda a=a, h=h, c6=c6: enumerate_c_families(a, h, with_c6=c6)
             for h in range(7) for c6 in (False, True) for a in (AB2,) + SWAPPED]
    calls += [lambda n=n, s=s: enumerate_may_functions(n, s)
              for n in range(1, 5) for s in ("in_favor", "flip")]
    calls += [lambda n=n: arrow_key(arrow.arrow_search(n)) for n in (1, 2)]
    return calls[::2] + calls[1::2]


def test_cached_networks_give_the_results_of_fresh_ones():
    calls = network_calls()
    cached = [call() for call in calls + calls[::-1]]
    fresh = []
    for call in calls:
        for network in NETWORKS:
            network.cache_clear()
        fresh.append(call())
    assert cached == fresh + fresh[::-1]


@pytest.mark.parametrize("network, args, search", [
    (enumeration._c_network, (Alphabet.make(3), 5, True),
     lambda: enumerate_c_families(Alphabet.make(3), 5, with_c6=True)),
    (enumeration._may_network, (4, "flip"), lambda: enumerate_may_functions(4, "flip")),
    (arrow._search_network, (("a", "b", "c"), 2), lambda: arrow.arrow_search(2)),
], ids=["c-families", "may", "arrow"])
def test_a_search_leaves_its_cached_network_unchanged(network, args, search):
    shared = network(*args)
    masks, rows = shared[:2]
    assert type(masks) is tuple and type(rows) is tuple
    assert all(type(row) is tuple for row in rows)
    search()
    search()
    assert network(*args) is shared
    assert shared == network.__wrapped__(*args)  # equal to a network built anew


@pytest.mark.parametrize("call, error", [
    (lambda: enumerate_c_families(AB2, True), BoundError),
    (lambda: enumerate_c_families(AB2, 2.0), BoundError),
    (lambda: enumerate_c_families(AB2, -1), BoundError),
    (lambda: enumerate_c_families(AB2, enumeration.MAX_HORIZON + 1), BoundError),
    (lambda: enumerate_c_families(Alphabet.make(1), 2), RuleDomainError),
    (lambda: enumerate_c_families(Alphabet.make(4), 2), BoundError),
    (lambda: enumerate_may_functions(0), BoundError),
    (lambda: enumerate_may_functions(12), BoundError),
    (lambda: enumerate_may_functions(True), BoundError),
    (lambda: enumerate_may_functions(2, "sideways"), VoteLabError),
    (lambda: arrow.arrow_search(4), BoundError),
], ids=["bool-horizon", "float-horizon", "negative-horizon", "horizon-over-bound",
        "one-alternative", "four-alternatives", "no-voters", "twelve-voters", "bool-voters",
        "unknown-semantics", "arrow-four-voters"])
def test_a_refused_search_caches_no_network(call, error):
    before = [network.cache_info().currsize for network in NETWORKS]
    with pytest.raises(error):
        call()
    assert [network.cache_info().currsize for network in NETWORKS] == before
