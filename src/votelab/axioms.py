"""Black-box axiom checkers with minimal witnesses, plus the audit driver.

Every verdict is exhaustive over its stated bounds: "pass" means no
counterexample exists within the bounds, never a sample.  A reported witness is
minimal (smallest failing profile size, then lexicographically first in the
alphabet's canonical order), so reports are reproducible byte for byte.

Neutrality (C2), anonymity (C3) and tie-ballot invariance (C4) are always
tested on raw profiles, never through the count-signature quotient, so a bug in
the signature representation cannot mask a violation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Alphabet,
    AltPermutation,
    BoundError,
    Profile,
    VoteLabError,
    VoterPermutation,
    apply_alt_permutation,
    apply_voter_permutation,
    extend,
    profiles_of_size,
    strict_plurality,
    tally,
)
from .rules import RuleFamily

C2 = "C2"
C3 = "C3"
C4 = "C4"
C5 = "C5"
C6 = "C6"
MA2 = "MA2"
MA3 = "MA3"
MA4 = "MA4"
PLURALITY_PROPERTY = "PLURALITY_PROPERTY"
UNAVOIDABLE_TIES = "UNAVOIDABLE_TIES"
TIE_CLOSURE = "TIE_CLOSURE"

ALL_AXIOMS = (
    C2,
    C3,
    C4,
    C5,
    C6,
    MA2,
    MA3,
    MA4,
    PLURALITY_PROPERTY,
    UNAVOIDABLE_TIES,
    TIE_CLOSURE,
)

C_AXIOMS = (C2, C3, C4, C5, C6)
MA_AXIOMS = (MA2, MA3, MA4)


@dataclass(frozen=True)
class Witness:
    """Minimal counterexample: re-evaluating the rule on the stored profiles
    reproduces expected/observed exactly."""

    axiom: str
    base_profile: Profile
    moved_to: Profile | None = None
    alt_permutation: AltPermutation | None = None
    voter_permutation: VoterPermutation | None = None
    expected: str | None = None
    observed: str | None = None


@dataclass(frozen=True)
class CheckResult:
    axiom: str
    status: str  # "pass" | "fail" | "error"
    witness: Witness | None = None
    profiles_checked: int = 0
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class AuditReport:
    """Per-axiom verdicts for one rule over explicit bounds."""

    rule_descriptor: str
    alphabet: Alphabet
    n_max: int
    results: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    @property
    def any_fail(self) -> bool:
        return any(r.status == "fail" for r in self.results)

    @property
    def any_error(self) -> bool:
        return any(r.status == "error" for r in self.results)

    def result_for(self, axiom: str) -> CheckResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)


def _require_checkable(alphabet: Alphabet) -> None:
    if len(alphabet.non_bot) < 2:
        raise VoteLabError(
            f"checkers need at least 2 non-tie alternatives, got {alphabet.non_bot}"
        )


def check_c2(rule: RuleFamily, n_max: int) -> CheckResult:
    """Neutrality: relabeling non-tie alternatives relabels the outcome."""
    _require_checkable(rule.alphabet)
    non_bot = rule.alphabet.non_bot
    perms = [
        AltPermutation.from_non_bot_images(rule.alphabet, images)
        for images in itertools.permutations(non_bot)
        if images != non_bot
    ]
    checked = 0
    for size in range(n_max + 1):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            fx = rule.evaluate(p)
            for perm in perms:
                q = apply_alt_permutation(p, perm)
                expected = perm.apply(fx)
                observed = rule.evaluate(q)
                if observed != expected:
                    w = Witness(C2, p, q, alt_permutation=perm,
                                expected=expected, observed=observed)
                    return CheckResult(C2, "fail", w, checked)
    return CheckResult(C2, "pass", None, checked)


def check_c3(rule: RuleFamily, n_max: int) -> CheckResult:
    """Anonymity: reordering the ballots never changes the outcome.

    Reorderings of a profile are exactly the profiles with the same ballot
    multiset, so the outcome map is evaluated on every raw profile and checked
    for constancy on each multiset class; the witness permutation is then
    reconstructed for the first offending profile.  This is equivalent to the
    quadratic profile-times-permutation loop, witness included.
    """
    _require_checkable(rule.alphabet)
    checked = 0
    for size in range(n_max + 1):
        witness, count = _multiset_scan(rule, size, C3)
        checked += count
        if witness is not None:
            return CheckResult(C3, "fail", witness, checked)
    return CheckResult(C3, "pass", None, checked)


def _multiset_scan(rule: RuleFamily, size: int, axiom: str) -> tuple[Witness | None, int]:
    """Voter-permutation invariance at one profile size, with the profile count.

    Evaluates every profile of the size once and checks the outcome for
    constancy on each ballot-multiset class.  The witness is the first
    profile of an offending class with the first voter permutation that
    changes its outcome.
    """
    index = rule.alphabet.index
    outcomes: dict[tuple[str, ...], str] = {}
    class_value: dict[tuple[str, ...], str] = {}
    bad_classes: set[tuple[str, ...]] = set()
    for p in profiles_of_size(rule.alphabet, size):
        value = rule.evaluate(p)
        outcomes[p.ballots] = value
        key = tuple(sorted(p.ballots, key=index))
        if class_value.setdefault(key, value) != value:
            bad_classes.add(key)
    if not bad_classes:
        return None, len(outcomes)
    for ballots, fx in outcomes.items():
        if tuple(sorted(ballots, key=index)) not in bad_classes:
            continue
        p = Profile(rule.alphabet, ballots)
        for mapping in itertools.permutations(range(size)):
            perm = VoterPermutation(mapping)
            q = apply_voter_permutation(p, perm)
            observed = outcomes[q.ballots]
            if observed != fx:
                w = Witness(axiom, p, q, voter_permutation=perm, expected=fx, observed=observed)
                return w, len(outcomes)
    return None, len(outcomes)


def check_c4(rule: RuleFamily, n_max: int) -> CheckResult:
    """Tie-ballot invariance: an added abstention never changes the outcome."""
    _require_checkable(rule.alphabet)
    bot = rule.alphabet.bot
    checked = 0
    for size in range(n_max):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            before = rule.evaluate(p)
            q = extend(p, bot)
            after = rule.evaluate(q)
            if after != before:
                w = Witness(C4, p, q, expected=before, observed=after)
                return CheckResult(C4, "fail", w, checked)
    return CheckResult(C4, "pass", None, checked)


def check_c5(rule: RuleFamily, n_max: int) -> CheckResult:
    """Consistency: a new voter echoing the current outcome preserves it.

    When the outcome is the tie symbol this coincides with the C4 move and is
    checked here as well.
    """
    _require_checkable(rule.alphabet)
    checked = 0
    for size in range(n_max):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            outcome = rule.evaluate(p)
            q = extend(p, outcome)
            after = rule.evaluate(q)
            if after != outcome:
                w = Witness(C5, p, q, expected=outcome, observed=after)
                return CheckResult(C5, "fail", w, checked)
    return CheckResult(C5, "pass", None, checked)


def check_c6(rule: RuleFamily, n_max: int) -> CheckResult:
    """Tie escapability: every tied profile has a conclusive one-voter extension.

    Probes extensions of size n_max + 1, so the rule must be evaluable there.
    """
    _require_checkable(rule.alphabet)
    bot = rule.alphabet.bot
    checked = 0
    for size in range(n_max + 1):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            if rule.evaluate(p) != bot:
                continue
            if any(rule.evaluate(extend(p, s)) != bot for s in rule.alphabet.alternatives):
                continue
            w = Witness(C6, p, None, expected=None, observed=bot)
            return CheckResult(C6, "fail", w, checked)
    return CheckResult(C6, "pass", None, checked)


def check_plurality_property(rule: RuleFamily, n_max: int) -> CheckResult:
    """Conclusive outcomes must be the strict plurality winner."""
    _require_checkable(rule.alphabet)
    bot = rule.alphabet.bot
    checked = 0
    for size in range(n_max + 1):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            outcome = rule.evaluate(p)
            if outcome == bot:
                continue
            winner = strict_plurality(tally(p))
            if winner != outcome:
                w = Witness(PLURALITY_PROPERTY, p, None,
                            expected=winner if winner is not None else bot,
                            observed=outcome)
                return CheckResult(PLURALITY_PROPERTY, "fail", w, checked)
    return CheckResult(PLURALITY_PROPERTY, "pass", None, checked)


def check_unavoidable_ties(rule: RuleFamily, n_max: int) -> CheckResult:
    """A shared top count forces the tie outcome."""
    _require_checkable(rule.alphabet)
    bot = rule.alphabet.bot
    checked = 0
    for size in range(n_max + 1):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            t = tally(p)
            counts = [t.count(s) for s in rule.alphabet.non_bot]
            top = max(counts)
            if counts.count(top) < 2:
                continue
            outcome = rule.evaluate(p)
            if outcome != bot:
                w = Witness(UNAVOIDABLE_TIES, p, None, expected=bot, observed=outcome)
                return CheckResult(UNAVOIDABLE_TIES, "fail", w, checked)
    return CheckResult(UNAVOIDABLE_TIES, "pass", None, checked)


def check_tie_closure(rule: RuleFamily, n_max: int) -> CheckResult:
    """No conclusive outcome collapses to a tie when its own supporter joins.

    A logical consequence of C5; checked independently so the implication can
    be tested rather than assumed.
    """
    _require_checkable(rule.alphabet)
    bot = rule.alphabet.bot
    checked = 0
    for size in range(n_max):
        for p in profiles_of_size(rule.alphabet, size):
            checked += 1
            outcome = rule.evaluate(p)
            if outcome == bot:
                continue
            q = extend(p, outcome)
            after = rule.evaluate(q)
            if after == bot:
                w = Witness(TIE_CLOSURE, p, q, expected=outcome, observed=after)
                return CheckResult(TIE_CLOSURE, "fail", w, checked)
    return CheckResult(TIE_CLOSURE, "pass", None, checked)


def _require_may(rule: RuleFamily) -> None:
    a = rule.alphabet
    if set(a.alternatives) != {"-1", "0", "1"} or a.bot != "0":
        raise VoteLabError("May-style checks need the {-1, 0, 1} alphabet with tie 0")


def check_ma2(rule: RuleFamily, n: int) -> CheckResult:
    """May's symmetry at exact size n: full voter-permutation invariance."""
    _require_may(rule)
    witness, checked = _multiset_scan(rule, n, MA2)
    return CheckResult(MA2, "pass" if witness is None else "fail", witness, checked)


def check_ma3(rule: RuleFamily, n: int) -> CheckResult:
    """May's neutrality at exact size n: negating every ballot negates the outcome."""
    _require_may(rule)
    negate = AltPermutation.swap(rule.alphabet, "-1", "1")
    checked = 0
    for p in profiles_of_size(rule.alphabet, n):
        checked += 1
        q = apply_alt_permutation(p, negate)
        expected = negate.apply(rule.evaluate(p))
        observed = rule.evaluate(q)
        if observed != expected:
            w = Witness(MA3, p, q, alt_permutation=negate,
                        expected=expected, observed=observed)
            return CheckResult(MA3, "fail", w, checked)
    return CheckResult(MA3, "pass", None, checked)


def check_ma4(rule: RuleFamily, n: int, semantics: str = "in_favor") -> CheckResult:
    """May's positive responsiveness at exact size n.

    ``flip`` relates profiles where one voter swings fully between -1 and 1;
    ``in_favor`` (May's original) additionally covers the one-step moves
    through 0.  In both, if the old outcome was the tie or already the move's
    direction, the new outcome must be the move's direction.
    """
    _require_may(rule)
    if semantics not in ("flip", "in_favor"):
        raise VoteLabError(f"unknown Ma4 semantics {semantics!r}")
    checked = 0
    for p in profiles_of_size(rule.alphabet, n):
        checked += 1
        fx = rule.evaluate(p)
        for v in range(n):
            old = p.ballots[v]
            for new in rule.alphabet.alternatives:
                if new == old:
                    continue
                if semantics == "flip" and (old == "0" or new != _negate_symbol(old)):
                    continue
                direction = "1" if int(new) > int(old) else "-1"
                if fx not in ("0", direction):
                    continue
                q = Profile(p.alphabet, p.ballots[:v] + (new,) + p.ballots[v + 1:])
                observed = rule.evaluate(q)
                if observed != direction:
                    w = Witness(MA4, p, q, expected=direction, observed=observed)
                    return CheckResult(MA4, "fail", w, checked)
    return CheckResult(MA4, "pass", None, checked)


def _negate_symbol(symbol: str) -> str:
    return {"-1": "1", "1": "-1", "0": "0"}[symbol]


@dataclass(frozen=True)
class ReplayStep:
    """One claimed equality in the equalize-then-swap construction."""

    axiom: str | None  # C5 / C3 / C2, or None for the structural relabel identity
    claim: str
    before: Profile
    after: Profile
    lhs: str
    rhs: str

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying the equalize-then-swap argument on one profile.

    For a conclusive-but-wrong outcome y on a profile with strict winner x, the
    chain extends the profile with y-ballots until the x and y counts match,
    then swaps the two alternatives and the two ballot blocks.  If consistency
    (C5), anonymity (C3) and neutrality (C2) all held, the chain would prove
    y = x, which is absurd; so on a concrete rule at least one recorded step
    fails, naming a violated axiom.
    """

    kind: str  # "confirmation" | "contradiction"
    profile: Profile
    outcome: str
    winner: str
    extensions: int = 0
    steps: tuple[ReplayStep, ...] = ()
    alt_permutation: AltPermutation | None = None
    voter_permutation: VoterPermutation | None = None

    @property
    def violated_axioms(self) -> tuple[str, ...]:
        seen = []
        for s in self.steps:
            if not s.holds and s.axiom is not None and s.axiom not in seen:
                seen.append(s.axiom)
        return tuple(seen)


def replay_main_proof(rule: RuleFamily, profile: Profile) -> ReplayResult:
    """Replay the equalize-then-swap argument against a concrete rule.

    Requires a strict plurality winner x on the profile.  Returns a
    confirmation when the rule answers x or the tie symbol; otherwise returns
    the full evaluation chain exposing the contradiction.
    """
    alphabet = rule.alphabet
    t = tally(profile)
    winner = strict_plurality(t)
    if winner is None:
        raise ValueError("profile has no strict plurality winner")
    outcome = rule.evaluate(profile)
    if outcome == winner or outcome == alphabet.bot:
        return ReplayResult("confirmation", profile, outcome, winner)

    k = t.count(winner) - t.count(outcome)
    steps: list[ReplayStep] = []
    current = profile
    current_value = outcome
    for _ in range(k):
        nxt = extend(current, outcome)
        nxt_value = rule.evaluate(nxt)
        steps.append(
            ReplayStep(C5, "appending a ballot for the current outcome keeps it",
                       current, nxt, current_value, nxt_value)
        )
        current, current_value = nxt, nxt_value

    equalized = current
    winner_slots = [i for i, b in enumerate(equalized.ballots) if b == winner]
    outcome_slots = [i for i, b in enumerate(equalized.ballots) if b == outcome]
    assert len(winner_slots) == len(outcome_slots)
    mapping = list(range(len(equalized)))
    for i, j in zip(winner_slots, outcome_slots):
        mapping[i], mapping[j] = j, i
    voter_perm = VoterPermutation(tuple(mapping))
    reordered = apply_voter_permutation(equalized, voter_perm)
    steps.append(
        ReplayStep(C3, "reordering ballots keeps the outcome",
                   equalized, reordered, rule.evaluate(equalized), rule.evaluate(reordered))
    )

    alt_perm = AltPermutation.swap(alphabet, winner, outcome)
    relabeled = apply_alt_permutation(equalized, alt_perm)
    assert relabeled == reordered, "block swap must coincide with the relabeling"
    steps.append(
        ReplayStep(None, "the ballot-block swap is the same profile as the relabeling",
                   reordered, relabeled, rule.evaluate(reordered), rule.evaluate(relabeled))
    )
    steps.append(
        ReplayStep(C2, "relabeling the profile relabels the outcome",
                   equalized, relabeled,
                   rule.evaluate(relabeled), alt_perm.apply(rule.evaluate(equalized)))
    )
    return ReplayResult(
        "contradiction", profile, outcome, winner,
        extensions=k, steps=tuple(steps),
        alt_permutation=alt_perm, voter_permutation=voter_perm,
    )


def audit(
    rule: RuleFamily,
    axioms: tuple[str, ...],
    n_max: int,
    ma4_semantics: str = "in_favor",
) -> AuditReport:
    """Run the selected checkers; checker errors are recorded per axiom and do
    not abort the remaining ones.  A negative bound raises BoundError up front,
    so it never yields a vacuous pass."""
    if n_max < 0:
        raise BoundError(f"max voters {n_max} is negative")
    for a in axioms:
        if a not in ALL_AXIOMS:
            raise VoteLabError(f"unknown axiom {a!r}")
    results = []
    for axiom in ALL_AXIOMS:
        if axiom not in axioms:
            continue
        try:
            results.append(_run_one(rule, axiom, n_max, ma4_semantics))
        except (VoteLabError, ValueError) as exc:
            results.append(CheckResult(axiom, "error", None, 0, error=str(exc)))
    return AuditReport(rule.descriptor, rule.alphabet, n_max, tuple(results))


def _run_one(rule: RuleFamily, axiom: str, n_max: int, ma4_semantics: str) -> CheckResult:
    if axiom == C2:
        return check_c2(rule, n_max)
    if axiom == C3:
        return check_c3(rule, n_max)
    if axiom == C4:
        return check_c4(rule, n_max)
    if axiom == C5:
        return check_c5(rule, n_max)
    if axiom == C6:
        return check_c6(rule, n_max)
    if axiom == PLURALITY_PROPERTY:
        return check_plurality_property(rule, n_max)
    if axiom == UNAVOIDABLE_TIES:
        return check_unavoidable_ties(rule, n_max)
    if axiom == TIE_CLOSURE:
        return check_tie_closure(rule, n_max)
    # May checks quantify over exact sizes; audit sweeps every size in bounds.
    checked = 0
    for n in range(n_max + 1):
        if axiom == MA2:
            res = check_ma2(rule, n)
        elif axiom == MA3:
            res = check_ma3(rule, n)
        else:
            res = check_ma4(rule, n, ma4_semantics)
        checked += res.profiles_checked
        if res.status != "pass":
            return CheckResult(axiom, res.status, res.witness, checked, res.error)
    return CheckResult(axiom, "pass", None, checked)
