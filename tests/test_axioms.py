import itertools
from fractions import Fraction

import pytest

from votelab.core import (
    Alphabet,
    BoundError,
    Profile,
    VoteLabError,
    VoterPermutation,
    apply_voter_permutation,
    extend,
    profile_budget,
    profiles_of_size,
    signature,
)
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
from votelab import axioms
from votelab.axioms import (
    audit,
    check_c2,
    check_c3,
    check_c4,
    check_c5,
    check_c6,
    check_ma2,
    check_ma3,
    check_ma4,
    check_plurality_property,
    check_tie_closure,
    check_unavoidable_ties,
    replay_main_proof,
)

from helpers import profiles_up_to, table_of

AB2 = Alphabet.make(2)
AB3 = Alphabet.make(3)
MAY = Alphabet.may()


def pure_majority(p):
    return PureMajorityRule(p.alphabet).evaluate(p)


def prof(*ballots, alphabet=AB2):
    return Profile(alphabet, tuple(ballots))


def constant_a():
    return FunctionRule(AB2, lambda p: "a", "constant:a")


def first_ballot_dictator(alphabet=AB2):
    return FunctionRule(
        alphabet,
        lambda p: p.ballots[0] if p.ballots else alphabet.bot,
        "first-ballot-dictator",
    )


def always_bot(alphabet=AB2):
    return FunctionRule(alphabet, lambda p: alphabet.bot, "always-tie")


class TestC2:
    def test_pure_majority_passes(self):
        assert check_c2(PureMajorityRule(AB2), 5).passed

    def test_constant_rule_fails_on_empty_profile(self):
        res = check_c2(constant_a(), 2)
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ()
        assert res.witness.expected == "b"
        assert res.witness.observed == "a"

    def test_quorum_participation_passes(self):
        assert check_c2(QuorumRule(AB2, 2, "participation"), 5).passed

    def test_rejects_single_alternative(self):
        tiny = Alphabet(("a", "_"), "_")
        with pytest.raises(VoteLabError):
            check_c2(FunctionRule(tiny, lambda p: "a", "x"), 2)


class TestC3:
    def test_pure_majority_passes(self):
        assert check_c3(PureMajorityRule(AB2), 5).passed

    def test_dictator_fails(self):
        res = check_c3(first_ballot_dictator(), 2)
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ("a", "b")
        assert res.witness.moved_to.ballots == ("b", "a")
        assert res.witness.voter_permutation.mapping == (1, 0)

    def test_may_sign_passes(self):
        assert check_c3(MaySignRule(), 5).passed

    def test_matches_naive_permutation_loop(self):
        # independent oracle: the literal profile x permutation quantifier
        def naive(rule, n_max):
            for size in range(n_max + 1):
                for p in profiles_of_size(rule.alphabet, size):
                    fx = rule.evaluate(p)
                    for mapping in itertools.permutations(range(size)):
                        q = apply_voter_permutation(p, VoterPermutation(mapping))
                        if rule.evaluate(q) != fx:
                            return ("fail", p.ballots, mapping)
            return ("pass", None, None)

        for rule in (
            PureMajorityRule(AB2),
            first_ballot_dictator(),
            QuorumRule(AB2, 2, "literal"),
            FunctionRule(AB2, lambda p: p.ballots[-1] if p.ballots else "_", "last-ballot"),
        ):
            verdict, ballots, mapping = naive(rule, 4)
            res = check_c3(rule, 4)
            assert res.status == verdict
            if verdict == "fail":
                assert res.witness.base_profile.ballots == ballots
                assert res.witness.voter_permutation.mapping == mapping


    def test_first_non_tie_ballot_fails_c3_alone(self):
        # a C3 audit witness is reached: the rule passes every other C-axiom
        rule = FunctionRule(AB2, lambda p: next((b for b in p.ballots if b != "_"), "_"),
                            "first-non-tie")
        report = audit(rule, ("C2", "C3", "C4", "C5", "C6"), 6)
        assert [r.status for r in report.results] == ["pass", "fail", "pass", "pass", "pass"]
        w = report.result_for("C3").witness
        assert apply_voter_permutation(w.base_profile, w.voter_permutation) == w.moved_to
        assert rule.evaluate(w.base_profile) == w.expected
        assert rule.evaluate(w.moved_to) == w.observed

    def test_witness_is_the_first_profile_of_the_least_offending_class(self):
        # (a,_,b) is the first profile off its class's outcome, but the class
        # of (a,a,b), which (b,a,a) leaves, comes first
        changed = {("b", "a", "a"): "b", ("a", "_", "b"): "b"}
        rule = FunctionRule(AB2, lambda p: changed.get(p.ballots) or pure_majority(p),
                            "two-changed")
        res = check_c3(rule, 3)
        w = res.witness
        assert (w.base_profile.ballots, w.moved_to.ballots) == (("a", "a", "b"), ("b", "a", "a"))
        assert w.voter_permutation.mapping == (2, 0, 1)
        assert (w.expected, w.observed, res.profiles_checked) == ("a", "b", 40)


class TestC4:
    def test_quorum_literal_fails_at_threshold_minus_one(self):
        res = check_c4(QuorumRule(AB2, 3, "literal"), 4)
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ("a", "a")
        assert res.witness.expected == "_"
        assert res.witness.observed == "a"

    def test_supermajority_all_votes_fails(self):
        res = check_c4(SupermajorityRule(AB2, Fraction(1, 2), "all"), 4)
        assert res.status == "fail"
        # minimal witness: one lone vote wins outright, an abstention kills it
        assert res.witness.base_profile.ballots == ("a",)
        # the size-3 pair is also a violation, just not the minimal one
        rule = SupermajorityRule(AB2, Fraction(1, 2), "all")
        assert rule.evaluate(prof("a", "a", "b")) == "a"
        assert rule.evaluate(prof("a", "a", "b", "_")) == "_"

    def test_pure_majority_passes(self):
        assert check_c4(PureMajorityRule(AB2), 5).passed


class TestC5:
    def test_pure_majority_passes(self):
        assert check_c5(PureMajorityRule(AB2), 5).passed

    def test_patched_majority_fails(self):
        # conclusive for b at two a's against one b: adding the echoing b
        # ballot reaches the tied signature, where symmetry forces the tie
        def patched(p):
            if signature(p) == (2, 1):
                return "b"
            return pure_majority(p)

        res = check_c5(FunctionRule(AB2, patched, "patched"), 4)
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ("a", "a", "b")
        assert res.witness.expected == "b"
        assert res.witness.observed == "_"

    def test_quorum_participation_passes(self):
        assert check_c5(QuorumRule(AB2, 3, "participation"), 5).passed


class TestC6:
    def test_pure_majority_passes(self):
        assert check_c6(PureMajorityRule(AB2), 4).passed

    def test_quorum_literal_fails_on_empty_profile(self):
        res = check_c6(QuorumRule(AB2, 3, "literal"), 4)
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ()

    def test_always_tie_fails(self):
        res = check_c6(always_bot(), 2)
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ()


class TestPluralityProperty:
    def test_pure_majority_passes(self):
        assert check_plurality_property(PureMajorityRule(AB2), 6).passed

    def test_supermajority_nonbot_passes(self):
        assert check_plurality_property(
            SupermajorityRule(AB2, Fraction(1, 2), "nonbot"), 6
        ).passed

    def test_dictator_fails(self):
        res = check_plurality_property(first_ballot_dictator(), 3)
        assert res.status == "fail"
        # the quoted mechanism: a dictated b against an a majority
        rule = first_ballot_dictator()
        assert rule.evaluate(prof("b", "a", "a")) == "b"


class TestUnavoidableTies:
    def test_pure_majority_passes(self):
        assert check_unavoidable_ties(PureMajorityRule(AB2), 6).passed

    def test_dictator_fails(self):
        res = check_unavoidable_ties(first_ballot_dictator(), 2)
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ("a", "b")


class TestTieClosure:
    def test_pure_majority_passes(self):
        assert check_tie_closure(PureMajorityRule(AB2), 5).passed

    def test_constructed_violation(self):
        def collapsing(p):
            sig = signature(p)
            if sig == (2, 0):
                return "a"
            if sig == (3, 0):
                return "_"
            return pure_majority(p)

        res = check_tie_closure(FunctionRule(AB2, collapsing, "collapsing"), 3)
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ("a", "a")
        assert res.witness.observed == "_"

    def test_follows_from_c5(self):
        # consequence, tested not assumed, over a small rule zoo
        rules = [
            PureMajorityRule(AB2),
            QuorumRule(AB2, 2, "literal"),
            QuorumRule(AB2, 2, "participation"),
            SupermajorityRule(AB2, Fraction(2, 3), "nonbot"),
            first_ballot_dictator(),
            always_bot(),
        ]
        for rule in rules:
            if check_c5(rule, 5).passed:
                assert check_tie_closure(rule, 5).passed, rule.descriptor


class TestMayChecks:
    def test_may_sign_passes_everything(self):
        rule = MaySignRule()
        for n in range(4):
            assert check_ma2(rule, n).passed
            assert check_ma3(rule, n).passed
            assert check_ma4(rule, n, "flip").passed
            assert check_ma4(rule, n, "in_favor").passed

    def test_ma2_catches_order_sensitivity(self):
        rule = FunctionRule(
            MAY, lambda p: p.ballots[0] if p.ballots else "0", "first-ballot"
        )
        res = check_ma2(rule, 2)
        assert res.status == "fail"

    def test_ma3_catches_bias(self):
        rule = FunctionRule(MAY, lambda p: "1", "always-1")
        res = check_ma3(rule, 1)
        assert res.status == "fail"

    def test_always_zero_fails_ma4_flip(self):
        res = check_ma4(FunctionRule(MAY, lambda p: "0", "always-0"), 1, "flip")
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ("-1",)
        assert res.witness.moved_to.ballots == ("1",)
        assert res.witness.expected == "1"
        assert res.witness.observed == "0"

    def test_negated_sign_fails_ma4(self):
        def negsign(p):
            s = sum(int(b) for b in p.ballots)
            return "-1" if s > 0 else ("1" if s < 0 else "0")

        rule = FunctionRule(MAY, negsign, "negated-sign")
        res = check_ma4(rule, 1, "flip")
        assert res.status == "fail"
        # the quoted mechanism the other way round: f([1]) = -1 equals the
        # flipped voter's new ballot, forcing f([-1]) = -1, observed 1
        assert rule.evaluate(prof("1", alphabet=MAY)) == "-1"
        assert rule.evaluate(prof("-1", alphabet=MAY)) == "1"

    def test_in_favor_covers_half_steps(self):
        # never answers -1: full flips cannot catch it at one voter, the
        # half-step 0 -> -1 move can
        def nonneg(p):
            return "1" if sum(int(b) for b in p.ballots) >= 1 else "0"

        rule = FunctionRule(MAY, nonneg, "nonneg-sign")
        assert check_ma4(rule, 1, "flip").passed
        res = check_ma4(rule, 1, "in_favor")
        assert res.status == "fail"
        assert res.witness.base_profile.ballots == ("-1",)
        assert res.witness.moved_to.ballots == ("0",)
        assert res.witness.expected == "1"

    def test_rejects_wrong_alphabet(self):
        with pytest.raises(VoteLabError):
            check_ma2(PureMajorityRule(AB2), 2)


class TestWitnessMinimality:
    # a witness at size s means the same check restricted below s passes
    def test_c4_minimality(self):
        rule = QuorumRule(AB2, 3, "literal")
        res = check_c4(rule, 5)
        size = len(res.witness.base_profile)
        assert size == 2
        assert check_c4(rule, size).passed

    def test_c6_minimality(self):
        rule = QuorumRule(AB2, 4, "literal")
        res = check_c6(rule, 4)
        size = len(res.witness.base_profile)
        assert not res.passed
        if size > 0:
            assert check_c6(rule, size - 1).passed

    def test_plurality_minimality(self):
        rule = first_ballot_dictator()
        res = check_plurality_property(rule, 4)
        size = len(res.witness.base_profile)
        assert check_plurality_property(rule, size - 1).passed


class TestAudit:
    def test_pure_majority_full_pass(self):
        report = audit(PureMajorityRule(AB2), axioms.C_AXIOMS, 5)
        assert report.all_pass
        assert [r.axiom for r in report.results] == list(axioms.C_AXIOMS)

    def test_quorum_literal_fail_pattern(self):
        report = audit(QuorumRule(AB2, 3, "literal"), axioms.C_AXIOMS, 5)
        by = {r.axiom: r for r in report.results}
        assert by["C2"].passed and by["C3"].passed
        assert by["C4"].status == "fail" and len(by["C4"].witness.base_profile) == 2
        # the consistency check covers the tie-echo move, so a tie-insertion
        # violation is a consistency violation as well
        assert by["C5"].status == "fail"
        assert by["C5"].witness.base_profile.ballots == ("a", "a")
        assert by["C6"].status == "fail" and len(by["C6"].witness.base_profile) == 0

    def test_may_sign_audit(self):
        report = audit(MaySignRule(), ("C2", "C3", "C4", "C5"), 6)
        assert report.all_pass

    def test_ma_axioms_swept_over_sizes(self):
        report = audit(MaySignRule(), axioms.MA_AXIOMS, 4)
        assert report.all_pass

    def test_errors_are_isolated_per_axiom(self):
        # C6 probes one size beyond the bound, beyond this table's horizon
        rule = TabulatedRule(pure_majority_table(AB2, 4))
        report = audit(rule, axioms.C_AXIOMS, 4)
        by = {r.axiom: r for r in report.results}
        assert by["C6"].status == "error"
        for ax in ("C2", "C3", "C4", "C5"):
            assert by[ax].passed

    def test_determinism(self):
        r1 = audit(QuorumRule(AB2, 3, "literal"), axioms.C_AXIOMS, 5)
        r2 = audit(QuorumRule(AB2, 3, "literal"), axioms.C_AXIOMS, 5)
        assert r1 == r2

    def test_rejects_unknown_axiom(self):
        with pytest.raises(VoteLabError):
            audit(PureMajorityRule(AB2), ("C9",), 3)


ALL_CHECKERS = [check_c2, check_c3, check_c4, check_c5, check_c6, check_plurality_property,
                check_unavoidable_ties, check_tie_closure, check_ma2, check_ma3, check_ma4]


class TestBounds:
    @pytest.mark.parametrize("check", ALL_CHECKERS, ids=lambda c: c.__name__)
    def test_negative_bound_raises(self, check):
        rule = MaySignRule() if check.__name__.startswith("check_ma") else PureMajorityRule(AB2)
        with pytest.raises(BoundError):
            check(rule, -1)
        if check in (check_c4, check_c5, check_tie_closure):
            # they extend profiles below the bound: at 0 there are none to extend
            with pytest.raises(BoundError):
                check(rule, 0)
        else:
            assert check(rule, 0).passed

    @pytest.mark.parametrize("axiom", ["C4", "C5", "TIE_CLOSURE"])
    def test_audit_refuses_a_zero_bound_for_extension_axioms(self, axiom):
        calls = []
        rule = FunctionRule(AB2, lambda p: calls.append(p) or "_", "counting")
        with pytest.raises(BoundError):
            audit(rule, ("C2", axiom), 0)
        assert calls == []
        assert audit(rule, ("C2", "C3", "C6"), 0).results[0].passed

    @pytest.mark.parametrize("check", ALL_CHECKERS, ids=lambda c: c.__name__)
    def test_over_budget_raises_before_evaluating(self, check):
        calls = []
        alphabet = MAY if check.__name__.startswith("check_ma") else AB3
        rule = FunctionRule(alphabet, lambda p: calls.append(p) or alphabet.bot, "counting")
        with pytest.raises(BoundError):
            check(rule, 20)
        assert calls == []

    @pytest.mark.parametrize("n_max", [0, 1])
    @pytest.mark.parametrize("check", ALL_CHECKERS, ids=lambda c: c.__name__)
    def test_no_checker_passes_vacuously(self, check, n_max):
        rule = MaySignRule() if check.__name__.startswith("check_ma") else PureMajorityRule(AB2)
        try:
            result = check(rule, n_max)
        except BoundError:
            return
        assert result.profiles_checked > 0

    def test_unknown_ma4_semantics_is_refused(self):
        with pytest.raises(VoteLabError, match="unknown Ma4 semantics 'sideways'") as raised:
            check_ma4(MaySignRule(), 2, "sideways")
        assert raised.type is VoteLabError

    def test_audit_budget_counts_the_c6_probes(self):
        # 3 ballot symbols at n=11: 265,720 profiles, 797,161 with the n=12 probes
        assert profile_budget(AB2, 11, range(12)) == 265_720
        calls = []
        rule = FunctionRule(AB2, lambda p: calls.append(p) or "_", "counting")
        with pytest.raises(BoundError):
            audit(rule, ("C2", "C6"), 11)
        assert calls == []


class TestTheoremAtDeskScale:
    def test_consistency_implies_plurality_at_half_bound(self):
        # rules passing C2-C5 exhaustively to 6 obey the plurality property to 3
        rules = [
            PureMajorityRule(AB2),
            QuorumRule(AB2, 2, "participation"),
            QuorumRule(AB2, 3, "participation"),
            SupermajorityRule(AB2, Fraction(1, 2), "nonbot"),
            SupermajorityRule(AB2, Fraction(2, 3), "nonbot"),
            PureMajorityRule(AB3),
            QuorumRule(AB3, 2, "participation"),
        ]
        for rule in rules:
            report = audit(rule, ("C2", "C3", "C4", "C5"), 6)
            if report.all_pass:
                assert check_plurality_property(rule, 3).passed, rule.descriptor


class TestReplay:
    def test_confirmation_on_pure_majority(self):
        res = replay_main_proof(PureMajorityRule(AB2), prof("a", "a", "b"))
        assert res.kind == "confirmation"
        assert res.outcome == "a" and res.winner == "a"

    def test_rejects_profiles_without_strict_winner(self):
        with pytest.raises(ValueError):
            replay_main_proof(PureMajorityRule(AB2), prof("a", "b"))

    def _corrupt(self, counts, value, horizon=6):
        fam = pure_majority_table(AB2, horizon)
        table = table_of(fam)
        table[counts] = value
        return TabulatedRule(TabulatedFamily.from_table(AB2, horizon, table),
                             f"corrupt:{counts}->{value}")

    def test_chain_exposes_consistency_break(self):
        rule = self._corrupt((2, 1), "b")
        res = replay_main_proof(rule, prof("a", "a", "b"))
        assert res.kind == "contradiction"
        assert res.extensions == 1
        assert res.violated_axioms == ("C5",)
        # every recorded evaluation must reproduce
        for step in res.steps:
            if step.axiom == "C2":
                assert rule.evaluate(step.after) == step.lhs
                assert res.alt_permutation.apply(rule.evaluate(step.before)) == step.rhs
            else:
                assert rule.evaluate(step.before) == step.lhs
                assert rule.evaluate(step.after) == step.rhs

    def test_chain_exposes_neutrality_break(self):
        # keep the corruption consistent through the extension so the
        # contradiction must surface at the relabeling stage
        fam = pure_majority_table(AB2, 6)
        table = table_of(fam)
        table[(2, 1)] = "b"
        table[(2, 2)] = "b"
        rule = TabulatedRule(TabulatedFamily.from_table(AB2, 6, table), "corrupt:c2")
        res = replay_main_proof(rule, prof("a", "a", "b"))
        assert res.kind == "contradiction"
        assert "C5" not in res.violated_axioms
        assert "C2" in res.violated_axioms or "C3" in res.violated_axioms

    def test_horizon_exceeded_is_explicit(self):
        fam = pure_majority_table(AB2, 4)
        table = table_of(fam)
        table[(4, 0)] = "b"
        rule = TabulatedRule(TabulatedFamily.from_table(AB2, 4, table), "corrupt:boundary")
        from votelab.core import HorizonError

        with pytest.raises(HorizonError):
            replay_main_proof(rule, prof("a", "a", "a", "a"))
