"""Concrete voting rules behind one uniform evaluator interface.

A rule family maps profiles of any size over a fixed alphabet to a single
alternative, deterministically.  Each rule is one class: its parameters are
checked once, when it is built, and its ``evaluate`` is the rule.  Rules never
use floating point: supermajority thresholds are exact rationals, so equality
at the threshold is meaningful.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .core import (
    Alphabet,
    HorizonError,
    Profile,
    RuleDomainError,
    check_values,
    plurality_winner,
    signature_positions,
    signatures_up_to,
)


class RuleFamily:
    """Deterministic total evaluator from profiles to one alternative."""

    def __init__(self, alphabet: Alphabet, descriptor: str):
        self.alphabet = alphabet
        self.descriptor = descriptor

    def evaluate(self, profile: Profile) -> str:
        raise NotImplementedError

    def _check_profile(self, profile: Profile) -> None:
        """RuleDomainError unless the profile's alphabet equals the rule's.  The
        built-in rules call it only for an alphabet other than their own object."""
        if profile.alphabet != self.alphabet:
            raise RuleDomainError(
                f"rule {self.descriptor!r} expects alphabet {self.alphabet.alternatives}"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.descriptor}>"


def _domain_size(alphabet: Alphabet, horizon: int) -> int:
    """The number of signatures with total at most ``horizon``; ValueError,
    before any key is built, unless the horizon is a non-negative int."""
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 0:
        raise ValueError(f"family horizon must be a non-negative int, got {horizon!r}")
    return math.comb(horizon + len(alphabet.non_bot), len(alphabet.non_bot))


@dataclass(frozen=True)
class TabulatedFamily:
    """Explicit signature -> alternative table, defined up to a horizon.

    ``values`` holds one value per signature with total <= horizon, in the
    canonical order of :func:`signatures_up_to`; each is the tie symbol or a
    non-tie alternative.  Evaluating a profile whose signature total exceeds
    the horizon is a hard error, never a silent default.
    """

    alphabet: Alphabet
    horizon: int
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        check_values(self.values, _domain_size(self.alphabet, self.horizon), self.alphabet)

    @staticmethod
    def from_table(alphabet: Alphabet, horizon: int,
                   table: Mapping[tuple[int, ...], str]) -> "TabulatedFamily":
        """The family of a signature counts -> value mapping, such as a family
        file's entries; ValueError unless it holds exactly the canonical keys."""
        # the size check comes first, so a bad horizon builds no key
        if len(table) != _domain_size(alphabet, horizon) \
                or not table.keys() >= signature_positions(alphabet, horizon).keys():
            raise ValueError("table must cover exactly the canonical keys of its domain")
        keys = signature_positions(alphabet, horizon)
        return TabulatedFamily(alphabet, horizon, tuple(map(table.__getitem__, keys)))

    def value_tuple(self) -> tuple[str, ...]:
        """Values in canonical signature order; the family's identity for sorting."""
        return self.values

    def content_id(self) -> str:
        payload = "|".join(self.values).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def pure_majority_table(alphabet: Alphabet, horizon: int) -> TabulatedFamily:
    """Pure majority restricted to signatures within the horizon."""
    return TabulatedFamily(alphabet, horizon, tuple(
        plurality_winner(alphabet.non_bot, sig, alphabet.bot)
        for sig in signatures_up_to(alphabet, horizon)))


class PureMajorityRule(RuleFamily):
    """Strict plurality winner among non-tie alternatives, or the tie symbol."""

    def __init__(self, alphabet: Alphabet):
        super().__init__(alphabet, "pure-majority")

    def evaluate(self, profile: Profile) -> str:
        a = self.alphabet
        if profile.alphabet is not a:
            self._check_profile(profile)
        return plurality_winner(a.non_bot, tuple(map(profile.ballots.count, a.non_bot)), a.bot)


class MaySignRule(RuleFamily):
    """Sign of the ballot sum over the {-1, 0, 1} alphabet."""

    def __init__(self):
        super().__init__(Alphabet.may(), "may-sign")

    def evaluate(self, profile: Profile) -> str:
        a = profile.alphabet
        if a is not self.alphabet and (set(a.alternatives) != {"-1", "0", "1"} or a.bot != "0"):
            raise RuleDomainError("may-sign requires the {-1, 0, 1} alphabet with tie 0")
        total = profile.ballots.count("1") - profile.ballots.count("-1")
        return str((total > 0) - (total < 0))


class QuorumRule(RuleFamily):
    """Tie below a turnout threshold, pure majority at or above it.

    ``literal`` counts every ballot toward the threshold, abstentions included;
    ``participation`` counts only non-tie ballots.  The literal variant is the
    naive reading of a quorum and is not tie-insertion invariant (the audit
    engine exhibits the witness); the participation variant is.
    """

    def __init__(self, alphabet: Alphabet, threshold: int, mode: str):
        if mode not in ("literal", "participation"):
            raise RuleDomainError(f"unknown quorum mode {mode!r}")
        if threshold < 1:
            raise RuleDomainError("quorum threshold must be at least 1")
        super().__init__(alphabet, f"quorum:{mode}:{threshold}")
        self.threshold = threshold
        self.mode = mode

    def evaluate(self, profile: Profile) -> str:
        a = self.alphabet
        if profile.alphabet is not a:
            self._check_profile(profile)
        ballots = profile.ballots
        turnout = len(ballots)
        if self.mode == "participation":
            turnout -= ballots.count(a.bot)
        if turnout < self.threshold:
            return a.bot
        return plurality_winner(a.non_bot, tuple(map(ballots.count, a.non_bot)), a.bot)


class SupermajorityRule(RuleFamily):
    """Alternative exceeding ``quota`` of the denominator, else the tie symbol.

    ``denom`` is "all" (every ballot counts toward the denominator) or "nonbot"
    (tie ballots excluded).  Comparison is exact; for quota >= 1/2 at most one
    alternative can qualify.  A profile where two alternatives qualify marks the
    configuration ill-formed and is rejected rather than tie-broken.
    """

    def __init__(self, alphabet: Alphabet, quota: Fraction, denom: str):
        if denom not in ("all", "nonbot"):
            raise RuleDomainError(f"unknown supermajority denominator {denom!r}")
        if not 0 < quota < 1:
            raise RuleDomainError("supermajority quota must lie strictly between 0 and 1")
        super().__init__(
            alphabet, f"supermajority:{denom}:{quota.numerator}/{quota.denominator}"
        )
        self.quota = quota
        self.denom = denom

    def evaluate(self, profile: Profile) -> str:
        if profile.alphabet is not self.alphabet:
            self._check_profile(profile)
        ballots = profile.ballots
        base = len(ballots)
        if self.denom == "nonbot":
            base -= ballots.count(self.alphabet.bot)
        # count > quota * base, in integers
        bar, den = self.quota.numerator * base, self.quota.denominator
        counts = tuple(map(ballots.count, self.alphabet.non_bot))
        top = max(counts)
        if top * den <= bar:
            return self.alphabet.bot
        # the top count qualifies; only the plurality winner may qualify alone
        winner = plurality_winner(self.alphabet.non_bot, counts)
        if winner is None or any(count * den > bar for count in counts if count != top):
            raise RuleDomainError(
                f"quota {self.quota} with denominator {self.denom!r} admits two "
                "qualifiers: ill-formed"
            )
        return winner


class TabulatedRule(RuleFamily):
    """Table lookup on the profile's non-tie ballot counts."""

    def __init__(self, family: TabulatedFamily, descriptor: str | None = None):
        if descriptor is None:
            descriptor = f"tabulated:sha256:{family.content_id()}"
        super().__init__(family.alphabet, descriptor)
        self.family = family
        self._values = family.values
        self._position = signature_positions(family.alphabet, family.horizon)

    def evaluate(self, profile: Profile) -> str:
        if profile.alphabet is not self.alphabet:
            self._check_profile(profile)
        counts = tuple(map(profile.ballots.count, self.alphabet.non_bot))
        # no more ballots than the horizon: the signature total is within it
        if len(profile.ballots) > self.family.horizon and sum(counts) > self.family.horizon:
            raise HorizonError(
                f"signature total {sum(counts)} exceeds family horizon {self.family.horizon}"
            )
        return self._values[self._position[counts]]


class FunctionRule(RuleFamily):
    """Wrap an arbitrary evaluator; used for ad-hoc and counterexample rules."""

    def __init__(self, alphabet: Alphabet, fn: Callable[[Profile], str], descriptor: str):
        super().__init__(alphabet, descriptor)
        self._fn = fn

    def evaluate(self, profile: Profile) -> str:
        if profile.alphabet is not self.alphabet:
            self._check_profile(profile)
        return self._fn(profile)
