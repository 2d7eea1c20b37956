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
    profiles_up_to,
    strict_plurality,
    tally,
)
from votelab.rules import (
    MaySignRule,
    PureMajorityRule,
    QuorumRule,
    SupermajorityRule,
    TabulatedFamily,
    TabulatedRule,
    may_sign_rule,
    pure_majority,
    pure_majority_table,
    quorum_rule,
    supermajority,
    tabulated_evaluate,
)

AB2 = Alphabet.make(2)
MAY = Alphabet.may()


def prof(*ballots, alphabet=AB2):
    return Profile(alphabet, tuple(ballots))


def mprof(*ballots):
    return Profile(MAY, tuple(ballots))


class TestMaySign:
    def test_positive_sum(self):
        assert may_sign_rule(mprof("1", "1", "-1")) == "1"

    def test_zero_sum(self):
        assert may_sign_rule(mprof("0", "0", "0")) == "0"

    def test_negative_sum(self):
        assert may_sign_rule(mprof("1", "-1", "-1", "0")) == "-1"

    def test_rejects_wrong_alphabet(self):
        with pytest.raises(RuleDomainError):
            may_sign_rule(prof("a"))


class TestPureMajority:
    def test_conclusive(self):
        assert pure_majority(prof("a", "a", "b", "_")) == "a"

    def test_top_tie(self):
        assert pure_majority(prof("a", "b")) == "_"

    def test_empty(self):
        assert pure_majority(prof()) == "_"

    def test_winner_strictly_beats_all(self):
        # brute force: a conclusive outcome always has a strictly larger count
        for p in profiles_up_to(AB2, 6):
            winner = pure_majority(p)
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
            assert pure_majority(p) == may_sign_rule(p)


class TestQuorum:
    def test_literal_below_threshold(self):
        assert quorum_rule(prof("a", "a"), 3, "literal") == "_"

    def test_literal_counts_abstentions(self):
        assert quorum_rule(prof("a", "a", "_"), 3, "literal") == "a"

    def test_participation_ignores_abstentions(self):
        assert quorum_rule(prof("a", "a", "_"), 3, "participation") == "_"

    def test_rejects_bad_threshold(self):
        with pytest.raises(RuleDomainError):
            quorum_rule(prof("a"), 0, "literal")

    def test_participation_invariant_under_bot_extension(self):
        for p in profiles_up_to(AB2, 6):
            assert quorum_rule(p, 3, "participation") == quorum_rule(
                extend(p, "_"), 3, "participation"
            )


class TestSupermajority:
    def test_all_votes_denominator(self):
        assert supermajority(prof("a", "a", "b"), Fraction(1, 2), "all") == "a"

    def test_all_votes_blocked_by_abstention(self):
        assert supermajority(prof("a", "a", "b", "_"), Fraction(1, 2), "all") == "_"

    def test_nonbot_denominator(self):
        assert supermajority(prof("a", "a", "b", "_"), Fraction(1, 2), "nonbot") == "a"

    def test_threshold_is_strict(self):
        assert supermajority(prof("a", "b"), Fraction(1, 2), "nonbot") == "_"

    def test_two_qualifiers_rejected(self):
        with pytest.raises(RuleDomainError):
            supermajority(prof("a", "a", "b", "b"), Fraction(1, 4), "all")

    def test_nonbot_invariant_under_bot_extension(self):
        for p in profiles_up_to(AB2, 6):
            assert supermajority(p, Fraction(1, 2), "nonbot") == supermajority(
                extend(p, "_"), Fraction(1, 2), "nonbot"
            )


class TestTabulated:
    def test_pure_majority_table_lookup(self):
        fam = pure_majority_table(AB2, 4)
        assert tabulated_evaluate(fam, prof("a", "b", "_")) == "_"
        assert tabulated_evaluate(fam, prof("a", "_", "_")) == "a"

    def test_beyond_horizon_is_an_error(self):
        fam = pure_majority_table(AB2, 4)
        with pytest.raises(HorizonError):
            tabulated_evaluate(fam, prof("a", "a", "a", "b", "b"))

    def test_table_must_be_complete(self):
        fam = pure_majority_table(AB2, 2)
        partial = dict(fam.table)
        del partial[(1, 1)]
        with pytest.raises(ValueError):
            TabulatedFamily(AB2, 2, partial)
        extra = dict(fam.table)
        extra[(3, 0)] = "a"  # beyond the horizon
        with pytest.raises(ValueError):
            TabulatedFamily(AB2, 2, extra)
        swapped = dict(partial)
        swapped[(1, 1, 0)] = "_"  # same length, but a key of the wrong length
        with pytest.raises(ValueError):
            TabulatedFamily(AB2, 2, swapped)

    def test_table_values_must_be_in_alphabet(self):
        fam = pure_majority_table(AB2, 2)
        bad = dict(fam.table)
        bad[(1, 1)] = "z"
        with pytest.raises(ValueError):
            TabulatedFamily(AB2, 2, bad)

    def test_rule_wrapper_descriptor_is_stable(self):
        fam = pure_majority_table(AB2, 4)
        assert TabulatedRule(fam).descriptor == TabulatedRule(fam).descriptor


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
