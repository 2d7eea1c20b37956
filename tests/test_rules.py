import itertools
from fractions import Fraction

import pytest

from votelab.core import (
    Alphabet,
    AltPermutation,
    HorizonError,
    Profile,
    RuleDomainError,
    VoterPermutation,
    apply_alt_permutation,
    apply_voter_permutation,
    extend,
    signature,
    signature_positions,
    signatures_up_to,
    strict_plurality,
    tally,
)
from votelab import rules
from votelab.enumeration import MayFunctionTable
from votelab.rules import (
    FunctionRule,
    MaySignRule,
    PureMajorityRule,
    QuorumRule,
    SupermajorityRule,
    TabulatedFamily,
    TabulatedRule,
    pure_majority_table,
)

from helpers import profiles_up_to, table_of

AB2 = Alphabet.make(2)
MAY = Alphabet.may()


def prof(*ballots, alphabet=AB2):
    return Profile(alphabet, tuple(ballots))


def mprof(*ballots):
    return Profile(MAY, tuple(ballots))


class TestMaySign:
    def test_positive_sum(self):
        assert MaySignRule().evaluate(mprof("1", "1", "-1")) == "1"

    def test_zero_sum(self):
        assert MaySignRule().evaluate(mprof("0", "0", "0")) == "0"

    def test_negative_sum(self):
        assert MaySignRule().evaluate(mprof("1", "-1", "-1", "0")) == "-1"

    def test_rejects_wrong_alphabet(self):
        with pytest.raises(RuleDomainError):
            MaySignRule().evaluate(prof("a"))


class TestPureMajority:
    def test_conclusive(self):
        assert PureMajorityRule(AB2).evaluate(prof("a", "a", "b", "_")) == "a"

    def test_top_tie(self):
        assert PureMajorityRule(AB2).evaluate(prof("a", "b")) == "_"

    def test_empty(self):
        assert PureMajorityRule(AB2).evaluate(prof()) == "_"

    def test_winner_strictly_beats_all(self):
        # brute force: a conclusive outcome always has a strictly larger count
        for p in profiles_up_to(AB2, 6):
            winner = PureMajorityRule(AB2).evaluate(p)
            if winner == "_":
                continue
            t = tally(p)
            for s in AB2.non_bot:
                if s != winner:
                    assert t.count(winner) > t.count(s)

    def test_matches_sign_rule_on_two_options(self):
        # identify a=-1 is absent: over the {-1, 0, 1} alphabet with tie 0 the
        # two rules coincide, exhaustively to size 8
        for p in profiles_up_to(MAY, 8):
            assert PureMajorityRule(MAY).evaluate(p) == MaySignRule().evaluate(p)


class TestQuorum:
    def test_literal_below_threshold(self):
        assert QuorumRule(AB2, 3, "literal").evaluate(prof("a", "a")) == "_"

    def test_literal_counts_abstentions(self):
        assert QuorumRule(AB2, 3, "literal").evaluate(prof("a", "a", "_")) == "a"

    def test_participation_ignores_abstentions(self):
        assert QuorumRule(AB2, 3, "participation").evaluate(prof("a", "a", "_")) == "_"

    def test_rejects_bad_threshold(self):
        with pytest.raises(RuleDomainError):
            QuorumRule(AB2, 0, "literal")

    def test_participation_invariant_under_bot_extension(self):
        rule = QuorumRule(AB2, 3, "participation")
        for p in profiles_up_to(AB2, 6):
            assert rule.evaluate(p) == rule.evaluate(extend(p, "_"))


class TestSupermajority:
    def test_all_votes_denominator(self):
        rule = SupermajorityRule(AB2, Fraction(1, 2), "all")
        assert rule.evaluate(prof("a", "a", "b")) == "a"

    def test_all_votes_blocked_by_abstention(self):
        rule = SupermajorityRule(AB2, Fraction(1, 2), "all")
        assert rule.evaluate(prof("a", "a", "b", "_")) == "_"

    def test_nonbot_denominator(self):
        rule = SupermajorityRule(AB2, Fraction(1, 2), "nonbot")
        assert rule.evaluate(prof("a", "a", "b", "_")) == "a"

    def test_threshold_is_strict(self):
        rule = SupermajorityRule(AB2, Fraction(1, 2), "nonbot")
        assert rule.evaluate(prof("a", "b")) == "_"

    def test_two_qualifiers_rejected(self):
        with pytest.raises(RuleDomainError):
            SupermajorityRule(AB2, Fraction(1, 4), "all").evaluate(prof("a", "a", "b", "b"))

    def test_nonbot_invariant_under_bot_extension(self):
        rule = SupermajorityRule(AB2, Fraction(1, 2), "nonbot")
        for p in profiles_up_to(AB2, 6):
            assert rule.evaluate(p) == rule.evaluate(extend(p, "_"))


def bad_tables(table, key, foreign_key, foreign_value):
    """(case, table, error text) for each way a table can miss its domain:
    ``key`` is one of its keys, ``foreign_key`` lies outside its domain."""
    without = {k: v for k, v in table.items() if k != key}
    keys = "table must cover exactly the canonical keys of its domain"
    return [
        ("missing key", without, keys),
        ("extra key", {**table, foreign_key: table[key]}, keys),
        ("key of the wrong length", {**without, key + (0,): table[key]}, keys),
        ("value outside the alphabet", {**table, key: foreign_value},
         f"table value {foreign_value!r} not in"),
        ("unhashable value", {**table, key: [table[key]]}, r"table value \["),
    ]


def bad_values(values, foreign_value):
    """(case, values, error text) for each way a value tuple can miss its domain."""
    size = "table must be a tuple of"
    return [
        ("missing value", values[:-1], size),
        ("extra value", values + values[-1:], size),
        ("a list, not a tuple", list(values), size),
        ("value outside the alphabet", values[:-1] + (foreign_value,),
         f"table value {foreign_value!r} not in"),
        ("unhashable value", values[:-1] + ([values[-1]],), r"table value \["),
    ]


FAMILY_CASES = bad_tables(table_of(pure_majority_table(AB2, 2)), (1, 1), (3, 0), "z")
FAMILY_VALUE_CASES = bad_values(pure_majority_table(AB2, 2).value_tuple(), "z")
MAY_CASES = bad_values(MayFunctionTable.sign_table(2).value_tuple(), 2)


@pytest.mark.parametrize("case, table, error", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_a_bad_family_table_raises_value_error(case, table, error):
    with pytest.raises(ValueError, match=error):
        TabulatedFamily.from_table(AB2, 2, table)


@pytest.mark.parametrize("case, values, error", FAMILY_VALUE_CASES,
                         ids=[c[0] for c in FAMILY_VALUE_CASES])
def test_a_bad_family_value_tuple_raises_value_error(case, values, error):
    with pytest.raises(ValueError, match=error):
        TabulatedFamily(AB2, 2, values)


@pytest.mark.parametrize("case, values, error", MAY_CASES, ids=[c[0] for c in MAY_CASES])
def test_a_bad_may_table_raises_value_error(case, values, error):
    with pytest.raises(ValueError, match=error):
        MayFunctionTable(2, values)


class TestTabulated:
    def test_pure_majority_table_lookup(self):
        fam = pure_majority_table(AB2, 4)
        assert TabulatedRule(fam).evaluate(prof("a", "b", "_")) == "_"
        assert TabulatedRule(fam).evaluate(prof("a", "_", "_")) == "a"

    def test_beyond_horizon_is_an_error(self):
        fam = pure_majority_table(AB2, 4)
        with pytest.raises(HorizonError):
            TabulatedRule(fam).evaluate(prof("a", "a", "a", "b", "b"))

    def test_table_must_be_complete(self):
        fam = pure_majority_table(AB2, 2)
        partial = table_of(fam)
        del partial[(1, 1)]
        with pytest.raises(ValueError):
            TabulatedFamily.from_table(AB2, 2, partial)
        extra = table_of(fam)
        extra[(3, 0)] = "a"  # beyond the horizon
        with pytest.raises(ValueError):
            TabulatedFamily.from_table(AB2, 2, extra)
        swapped = dict(partial)
        swapped[(1, 1, 0)] = "_"  # same length, but a key of the wrong length
        with pytest.raises(ValueError):
            TabulatedFamily.from_table(AB2, 2, swapped)

    def test_table_values_must_be_in_alphabet(self):
        fam = pure_majority_table(AB2, 2)
        bad = table_of(fam)
        bad[(1, 1)] = "z"
        with pytest.raises(ValueError):
            TabulatedFamily.from_table(AB2, 2, bad)

    @pytest.mark.parametrize("horizon", [-1, 0.9, 2.0, True, "2", 10 ** 12])
    def test_horizon_is_checked_before_any_key_is_built(self, monkeypatch, horizon):
        fam = pure_majority_table(AB2, 2)

        def no_keys(*args):
            raise AssertionError("signature keys built before the horizon was checked")

        monkeypatch.setattr(rules, "signatures_up_to", no_keys)
        monkeypatch.setattr(rules, "signature_positions", no_keys)
        with pytest.raises(ValueError):
            TabulatedFamily.from_table(AB2, horizon, table_of(fam))
        with pytest.raises(ValueError):
            TabulatedFamily(AB2, horizon, fam.value_tuple())

    def test_rule_wrapper_descriptor_is_stable(self):
        fam = pure_majority_table(AB2, 4)
        assert TabulatedRule(fam).descriptor == TabulatedRule(fam).descriptor

    @pytest.mark.parametrize("alphabet", [AB2, Alphabet.make(3)], ids=["k=2", "k=3"])
    def test_a_profiles_signature_keys_the_cell_its_rule_reads(self, alphabet):
        # one table per position, an alternative there and the tie symbol
        # elsewhere: a profile reads the one cell its signature keys
        first, bot = alphabet.non_bot[0], alphabet.bot
        for h in range(5):
            positions = signature_positions(alphabet, h)
            size = len(positions)
            one_hot = [TabulatedRule(TabulatedFamily(alphabet, h, (bot,) * i + (first,)
                                                     + (bot,) * (size - 1 - i)))
                       for i in range(size)]
            for p in profiles_up_to(alphabet, h):
                at = positions[signature(p)]
                assert signatures_up_to(alphabet, h)[at] == signature(p)
                expected = [bot] * at + [first] + [bot] * (size - 1 - at)
                assert [rule.evaluate(p) for rule in one_hot] == expected


def symmetry_rules():
    return [
        PureMajorityRule(AB2),
        QuorumRule(AB2, 3, "literal"),
        QuorumRule(AB2, 3, "participation"),
        SupermajorityRule(AB2, Fraction(1, 2), "all"),
        SupermajorityRule(AB2, Fraction(1, 2), "nonbot"),
        TabulatedRule(pure_majority_table(AB2, 5)),
    ]


@pytest.mark.parametrize("rule", symmetry_rules(), ids=lambda r: r.descriptor)
def test_every_rule_is_anonymous_and_neutral(rule):
    # direct brute force, independent of the checker module
    perms = [
        AltPermutation.from_non_bot_images(AB2, images)
        for images in itertools.permutations(AB2.non_bot)
    ]
    for p in profiles_up_to(AB2, 5):
        value = rule.evaluate(p)
        for mapping in itertools.permutations(range(len(p))):
            q = apply_voter_permutation(p, VoterPermutation(mapping))
            assert rule.evaluate(q) == value
        for perm in perms:
            assert rule.evaluate(apply_alt_permutation(p, perm)) == perm.apply(value)


def test_may_sign_rule_is_anonymous_and_neutral():
    rule = MaySignRule()
    negate = AltPermutation.swap(MAY, "-1", "1")
    for p in profiles_up_to(MAY, 5):
        value = rule.evaluate(p)
        for mapping in itertools.permutations(range(len(p))):
            q = apply_voter_permutation(p, VoterPermutation(mapping))
            assert rule.evaluate(q) == value
        assert rule.evaluate(apply_alt_permutation(p, negate)) == negate.apply(value)


AB3 = Alphabet.make(3)


def builtin_rules():
    return [
        PureMajorityRule(AB3),
        MaySignRule(),
        QuorumRule(AB3, 2, "literal"),
        QuorumRule(AB3, 2, "participation"),
        SupermajorityRule(AB3, Fraction(1, 2), "all"),
        SupermajorityRule(AB3, Fraction(1, 2), "nonbot"),
        TabulatedRule(pure_majority_table(AB3, 4)),
        FunctionRule(AB3, lambda p: p.ballots[0] if p.ballots else p.alphabet.bot, "first"),
    ]


@pytest.mark.parametrize("rule", builtin_rules(), ids=lambda r: r.descriptor)
def test_a_profile_over_an_equal_alphabet_object_evaluates_as_over_the_rules_own(rule):
    own = rule.alphabet
    twin = Alphabet(own.alternatives, own.bot)
    assert twin == own and twin is not own
    for p in profiles_up_to(own, 4):
        assert rule.evaluate(Profile(twin, p.ballots)) == rule.evaluate(p)


@pytest.mark.parametrize("rule", builtin_rules(), ids=lambda r: r.descriptor)
def test_a_profile_over_a_foreign_alphabet_is_refused(rule):
    foreign = MAY if rule.alphabet != MAY else AB2
    for ballots in [(), (foreign.bot,), foreign.alternatives]:
        with pytest.raises(RuleDomainError):
            rule.evaluate(Profile(foreign, ballots))


@pytest.mark.parametrize("call, message", [
    (lambda: QuorumRule(AB2, 2, "majority"), "unknown quorum mode 'majority'"),
    (lambda: SupermajorityRule(AB2, Fraction(0), "all"), "strictly between 0 and 1"),
    (lambda: SupermajorityRule(AB2, Fraction(1), "nonbot"), "strictly between 0 and 1"),
    (lambda: QuorumRule(AB2, True, "literal"), "quorum threshold must be at least 1"),
    (lambda: QuorumRule(AB2, 1.5, "literal"), "quorum threshold must be at least 1"),
], ids=["quorum-mode", "quota-0", "quota-1", "quorum-threshold-bool", "quorum-threshold-float"])
def test_ill_formed_rules_are_refused(call, message):
    with pytest.raises(RuleDomainError, match=message) as raised:
        call()
    assert raised.type is RuleDomainError
