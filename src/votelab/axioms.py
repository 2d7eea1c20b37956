"""Black-box axiom checkers with minimal witnesses, plus the audit driver.

Every verdict is exhaustive over its stated bounds: "pass" means no
counterexample exists within the bounds, never a sample.  A reported witness is
minimal (smallest failing profile size, then lexicographically first in the
alphabet's canonical order), so reports are reproducible byte for byte.

Every checker reads one evaluation pass, an :class:`Outcomes` table: the rule's
outcome on each raw profile, stored under the profile's base-|A| code (ballots
are digits in alphabet order, the first ballot most significant).  Code order
is the order of ``profiles_of_size``, so the first failing code is the minimal
witness.  A slot is evaluated once and then kept, an evaluation that raised
included: :func:`audit` hands one table to every selected checker.  A table
handed in is shared, and later checkers read what one skips, so C2, C3, C6 and
the May checkers (each reads every profile of a size when it passes) fill each
size of it in code order just before they scan it (:meth:`Outcomes.fill`), up
to the first profile that raises or answers outside the alphabet; later slots
wait for a checker's first read.  Other checkers, and every checker on a table
of its own, which dies with the check, evaluate only the profiles they read.  A
slot's profile is built from its level's ballot halves only by
``Outcomes._store``.  Checkers read the slots in the order of a per-profile
loop, and a filled slot holds a symbol, so an error surfaces at the same
profile.  Moves between profiles are index arithmetic: a voter joining with
ballot d leads to ``code*k + d``, a relabeling maps every digit, and a changed
ballot at voter v adds ``(new-old)*k^(n-1-v)``.

The relabeling checks (C2, MA3) read each orbit once.  The relabelings a
check tests, with the identity, form a group G that acts on profiles and on
outcomes through the same symbol map.  Let x be the least code of an orbit
and suppose f(g x) = g f(x) for every g in G.  Then for any y = h x in the
orbit and any g, f(g y) = f(gh x) = gh f(x) = g f(y): every code of the orbit
passes.  So the scan skips a code that it has already read as the image of an
earlier code.  Every read of a skipped code was made, and passed, at that
earlier code, and a failing code is always the least of its orbit.  The
evaluated profiles, the witness, the profile count and the first error raised
are therefore those of the loop over every code.

The index tables an outcome table reads depend only on the alphabet and the
profile size, so each is built once per process and shared by every table:
the ballot tuples of a profile's head and tail halves (``_halves``), each
code's counts and class representative (by k), the relabeled codes of half a
profile (by the relabeling's digit map), the relabelings C2 tests, and per
tuple of relabelings and size their symbol maps and half-profile code tables
(``_relabel_maps``).  Once every slot of a level holds a symbol its reader is
the slot list's own lookup, so the checkers after C2 read lists; a level
holding an error keeps the evaluating reader.  C3 and MA2 compare each outcome
with the one at its class representative, the least code with the same
counts.  A class offends iff one of its codes mismatches, and its first code
is its representative, so the least representative among the mismatching
codes is the first code of the first offending class: the witness of the loop
over every class.

Neutrality (C2), anonymity (C3) and tie-ballot invariance (C4) are always
tested on raw profiles, never through the count-signature quotient, so a bug in
the signature representation cannot mask a violation.  The table is indexed by
raw profiles, and the ballot-multiset classes of C3 are keyed by per-code
counts over every alternative, tie included, never by ``core.signature``.
Every checker scans its sizes through ``_sweep``, the one loop over profile
sizes.  Before any evaluation, BoundError refuses a bound that is not a
non-negative int, one over ``core.PROFILE_BUDGET`` and one leaving no size to
scan (0 for C4, C5 and TIE_CLOSURE, which extend smaller profiles);
:func:`audit` refuses them before any checker.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (
    Alphabet,
    AltPermutation,
    BoundError,
    Profile,
    RuleDomainError,
    VoteLabError,
    VoterPermutation,
    apply_alt_permutation,
    apply_voter_permutation,
    extend,
    plurality_winner,
    profile_budget,
    profiles_of_size,  # unused here; perfbench's tracer patches this module attribute
    require_voter_bound,
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

ALL_AXIOMS = (C2, C3, C4, C5, C6, MA2, MA3, MA4,
              PLURALITY_PROPERTY, UNAVOIDABLE_TIES, TIE_CLOSURE)

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
    error_type: type[Exception] | None = None  # the class of the error recorded

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

    def result_for(self, axiom: str) -> CheckResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)


# --- the outcome table ------------------------------------------------------

_PENDING = object()


class Outcomes:
    """The rule's outcome on raw profiles by base-|A| code, each evaluated once.

    Built by :func:`audit` or another caller to share among checkers, which
    then fill the sizes they scan whole, or by a checker called without one.
    A slot is evaluated when first read, or when :meth:`fill` reaches it.
    """

    def __init__(self, rule: RuleFamily):
        self.rule = rule
        self.alphabet = rule.alphabet
        self.k = len(rule.alphabet.alternatives)
        self._digit = {s: d for d, s in enumerate(rule.alphabet.alternatives)}
        self._slots: dict[int, list] = {}
        self._symbols: dict[int, int] = {}
        self._halves: dict[int, tuple[list, list, int]] = {}

    def _level(self, size: int) -> list:
        if size not in self._slots:
            self._slots[size], self._symbols[size] = [_PENDING] * self.k ** size, 0
            self._halves[size] = _halves(self.alphabet.alternatives, size)
        return self._slots[size]

    def _store(self, size: int, codes: Iterable[int]) -> object:
        """Evaluate the profile at each code whose slot is pending, in turn,
        and keep its symbol, up to the first profile that raises or answers
        outside the alphabet (or a slot holding such an error); returns the
        exception or RuleDomainError kept there, else the last outcome.  The
        one place a slot's profile is built: inline (a call per profile made
        filled audits about 5% slower) and unchecked, as its ballots are the
        alphabet's own symbols; it equals, and hashes like, the checked ``Profile``."""
        slots, evaluate = self._slots[size], self.rule.evaluate
        alphabet, alternatives = self.alphabet, self.alphabet.alternatives
        heads, tails, tail_codes = self._halves[size]
        new, put = object.__new__, object.__setattr__
        kept, value = 0, None
        for code in codes:
            value = slots[code]
            if value is _PENDING:
                profile = new(Profile)
                put(profile, "alphabet", alphabet)
                put(profile, "ballots", heads[code // tail_codes] + tails[code % tail_codes])
                try:
                    value = evaluate(profile)
                except Exception as exc:  # kept in the slot; every read raises it
                    value = slots[code] = exc
                    break
                if value not in alternatives:
                    value = slots[code] = RuleDomainError(
                        f"rule {self.rule.descriptor} answered {value!r}, which is "
                        f"not a symbol of the alphabet {alternatives}")
                    break
                slots[code] = value
                kept += 1
            elif isinstance(value, Exception):
                break
        self._symbols[size] += kept
        return value

    def fill(self, size: int) -> bool:
        """Evaluate the pending slots of ``size`` ballots in code order up to the
        first error, leaving later slots pending; True if every slot holds a symbol."""
        slots = self._level(size)
        return (self._symbols[size] == len(slots)  # already full
                or not isinstance(self._store(size, range(len(slots))), Exception))

    def reader(self, size: int) -> Callable[[int], str]:
        """Outcome by code among the profiles of ``size`` ballots; raises what
        the rule raised on that profile, or RuleDomainError where its outcome
        is not a symbol of the alphabet.  Once every slot of the level holds a
        symbol, the reader is the slot list's own lookup."""
        slots = self._level(size)
        if self._symbols[size] == len(slots):
            return slots.__getitem__

        def read(code: int) -> str:
            value = slots[code]
            if type(value) is str:
                return value
            if value is _PENDING:
                value = self._store(size, (code,))
            if isinstance(value, Exception):
                raise value
            return value  # a symbol, or a str subclass equal to one

        return read

    def digit(self, symbol: str) -> int:
        """The digit of a ballot symbol; KeyError for a symbol outside the alphabet."""
        return self._digit[symbol]

    def profile(self, size: int, code: int) -> Profile:
        """The checked profile at ``code`` of a level already read, for a witness."""
        heads, tails, tail_codes = self._halves[size]
        return Profile(self.alphabet, heads[code // tail_codes] + tails[code % tail_codes])


@functools.lru_cache(maxsize=None)
def _halves(alternatives: tuple[str, ...], size: int) -> tuple[list, list, int]:
    """The head and tail ballot tuples of ``size`` ballots in code order, and k^(size//2)."""
    low = size // 2
    return (list(itertools.product(alternatives, repeat=size - low)),
            list(itertools.product(alternatives, repeat=low)), len(alternatives) ** low)


@functools.lru_cache(maxsize=None)
def _counts(k: int, size: int) -> list[tuple[int, ...]]:
    """Per code of ``size`` ballots over k symbols, the count of every symbol,
    tie included: one tuple per ballot multiset, shared by its codes."""
    if size == 0:
        return [(0,) * k]
    one: dict[tuple[int, ...], tuple[int, ...]] = {}
    grown = (c[:d] + (c[d] + 1,) + c[d + 1:] for c in _counts(k, size - 1) for d in range(k))
    return [one.setdefault(c, c) for c in grown]


@functools.lru_cache(maxsize=None)
def _class_first(k: int, size: int) -> list[int]:
    """Per code, the least code with the same ballot multiset: its class
    representative, found by the per-code counts."""
    first: dict[tuple[int, ...], int] = {}
    return [first.setdefault(c, code) for code, c in enumerate(_counts(k, size))]


@functools.lru_cache(maxsize=None)
def _images(sigma: tuple[int, ...], size: int) -> list[int]:
    """Per code of ``size`` digits, the code of its image under the digit map
    ``sigma`` (digit d becomes ``sigma[d]``)."""
    k = len(sigma)
    return [c * k + s for c in _images(sigma, size - 1) for s in sigma] if size else [0]


@functools.lru_cache(maxsize=None)
def _relabel_maps(
    perms: tuple[AltPermutation, ...], size: int
) -> list[tuple[AltPermutation, dict[str, str], list[int], list[int]]]:
    """Per relabeling, at ``size`` ballots: its symbol map, and the relabeled
    codes of a profile's head and of its tail (see :func:`_relabel_scan`)."""
    low = size // 2
    maps = []
    for perm in perms:
        sigma = tuple(map(perm.alphabet.index, perm.mapping))
        maps.append((perm, dict(zip(perm.alphabet.alternatives, perm.mapping)),
                     _images(sigma, size - low), _images(sigma, low)))
    return maps


@functools.lru_cache(maxsize=None)
def _relabelings(alphabet: Alphabet) -> tuple[AltPermutation, ...]:
    """Every relabeling of the non-tie alternatives but the identity."""
    return tuple(AltPermutation.from_non_bot_images(alphabet, images)
                 for images in itertools.permutations(alphabet.non_bot)
                 if images != alphabet.non_bot)


def _sweep(rule: RuleFamily, axiom: str, n_max: int, sizes: range, reads: range,
           outcomes: Outcomes | None,
           scan: Callable[[Outcomes, int], tuple[Witness | None, int]],
           whole: bool = False) -> CheckResult:
    """The one loop over profile sizes.  Once the sizes the check ``reads`` are
    within budget, ``outcomes`` belongs to ``rule`` (or a new table is made)
    and ``sizes`` is not empty, ``scan(table, size)`` gives each size's witness
    or None and its profile count, up to the first witness.  A ``whole`` scan
    reads every profile of its size when it passes, so a shared table handed in
    is filled there first; one made here stays lazy."""
    profile_budget(rule.alphabet, n_max, reads)
    shared = outcomes is not None
    if not shared:
        outcomes = Outcomes(rule)
    elif outcomes.rule is not rule:
        raise ValueError("the outcome table belongs to another rule")
    _require_extensible(axiom, n_max, sizes)
    checked = 0
    for size in sizes:
        if whole and shared:
            outcomes.fill(size)
        witness, count = scan(outcomes, size)
        checked += count
        if witness is not None:
            return CheckResult(axiom, "fail", witness, checked)
    return CheckResult(axiom, "pass", None, checked)


def _require_extensible(axiom: str, n_max: int, sizes: range) -> None:
    if not sizes:  # no profile lies below the bound: the scan would pass vacuously
        raise BoundError(f"{axiom} extends the profiles below max voters {n_max}: none")


# --- checkers ---------------------------------------------------------------


def _require_checkable(alphabet: Alphabet, n_max: int) -> None:
    if len(alphabet.non_bot) < 2:
        raise RuleDomainError(
            f"checkers need at least 2 non-tie alternatives, got {alphabet.non_bot}"
        )
    require_voter_bound(n_max)  # before the checker builds a range from it


def check_c2(rule: RuleFamily, n_max: int, *, outcomes: Outcomes | None = None) -> CheckResult:
    """Neutrality: relabeling non-tie alternatives relabels the outcome."""
    _require_checkable(rule.alphabet, n_max)
    perms = _relabelings(rule.alphabet)
    return _sweep(rule, C2, n_max, range(n_max + 1), range(n_max + 1), outcomes,
                  lambda table, size: _relabel_scan(table, size, perms, C2), whole=True)


def _relabel_scan(
    table: Outcomes, size: int, perms: tuple[AltPermutation, ...], axiom: str
) -> tuple[Witness | None, int]:
    """Relabeling at one profile size, with the profile count: the outcome of
    each relabeled profile must be the relabeled outcome.

    A code splits into a head and a tail of half the size each; the image
    code is read from one table of relabeled codes per half.  ``perms`` with
    the identity form a group, so a code already read as the image of an
    earlier code is skipped: its orbit was checked there (see the module
    docstring)."""
    k = table.k
    read = table.reader(size)
    tail_codes = k ** (size // 2)
    maps = _relabel_maps(perms, size)
    seen = bytearray(k ** size)
    for code in range(k ** size):
        if seen[code]:
            continue
        fx = read(code)
        head, tail = divmod(code, tail_codes)
        for perm, relabel, hi, lo in maps:
            moved = hi[head] * tail_codes + lo[tail]
            seen[moved] = 1
            expected = relabel[fx]
            observed = read(moved)
            if observed != expected:
                w = Witness(axiom, table.profile(size, code), table.profile(size, moved),
                            alt_permutation=perm, expected=expected, observed=observed)
                return w, code + 1
    return None, k ** size


def check_c3(rule: RuleFamily, n_max: int, *, outcomes: Outcomes | None = None) -> CheckResult:
    """Anonymity: reordering the ballots never changes the outcome.

    Reorderings of a profile are exactly the profiles with the same ballot
    multiset, so the outcome map is read on every raw profile and checked for
    constancy on each multiset class; the witness permutation is then
    reconstructed for the first offending profile.  This is equivalent to the
    quadratic profile-times-permutation loop, witness included.
    """
    _require_checkable(rule.alphabet, n_max)
    return _sweep(rule, C3, n_max, range(n_max + 1), range(n_max + 1), outcomes,
                  lambda table, size: _multiset_scan(table, size, C3), whole=True)


def _multiset_scan(table: Outcomes, size: int, axiom: str) -> tuple[Witness | None, int]:
    """Voter-permutation invariance at one profile size, with the profile count.

    Reads every profile of the size and compares each outcome with the one
    at its class representative.  The witness is the least representative
    among the mismatching codes, the first profile of an offending class,
    with the first voter permutation that changes its outcome.
    """
    outcomes = list(map(table.reader(size), range(table.k ** size)))
    first = _class_first(table.k, size)
    if list(map(outcomes.__getitem__, first)) == outcomes:
        return None, len(outcomes)
    code = min(r for r, value in zip(first, outcomes) if outcomes[r] != value)
    fx, base = outcomes[code], table.profile(size, code)
    digits = list(map(table.digit, base.ballots))
    for mapping in itertools.permutations(range(size)):
        moved = 0
        for voter in mapping:
            moved = moved * table.k + digits[voter]
        if outcomes[moved] != fx:
            w = Witness(axiom, base, table.profile(size, moved),
                        voter_permutation=VoterPermutation(mapping),
                        expected=fx, observed=outcomes[moved])
            return w, len(outcomes)
    raise AssertionError("an offending class holds another outcome")


def _extension_check(rule: RuleFamily, n_max: int, outcomes: Outcomes | None, axiom: str,
                     joining: Callable[[str], str | None],
                     broken: Callable[[str, str], bool]) -> CheckResult:
    """One voter joins every profile below ``n_max`` with the ballot
    ``joining(outcome)`` (None: no move); ``broken(before, after)`` fails it."""
    _require_checkable(rule.alphabet, n_max)

    def scan(table: Outcomes, size: int) -> tuple[Witness | None, int]:
        k, digit = table.k, table._digit  # every outcome read is a symbol of the alphabet
        read, read_joined = table.reader(size), table.reader(size + 1)
        for code in range(k ** size):
            before = read(code)
            ballot = joining(before)
            if ballot is None:
                continue
            joined = code * k + digit[ballot]
            after = read_joined(joined)
            if broken(before, after):
                return Witness(axiom, table.profile(size, code), table.profile(size + 1, joined),
                               expected=before, observed=after), code + 1
        return None, k ** size

    return _sweep(rule, axiom, n_max, range(n_max), range(n_max + 1), outcomes, scan)


def check_c4(rule: RuleFamily, n_max: int, *, outcomes: Outcomes | None = None) -> CheckResult:
    """Tie-ballot invariance: an added abstention never changes the outcome."""
    bot = rule.alphabet.bot
    return _extension_check(rule, n_max, outcomes, C4,
                            lambda outcome: bot, lambda before, after: after != before)


def check_c5(rule: RuleFamily, n_max: int, *, outcomes: Outcomes | None = None) -> CheckResult:
    """Consistency: a new voter echoing the current outcome preserves it.

    When the outcome is the tie symbol this coincides with the C4 move and is
    checked here as well.
    """
    return _extension_check(rule, n_max, outcomes, C5,
                            lambda outcome: outcome, lambda before, after: after != before)


def check_c6(rule: RuleFamily, n_max: int, *, outcomes: Outcomes | None = None) -> CheckResult:
    """Tie escapability: every tied profile has a conclusive one-voter extension.

    Probes extensions of size n_max + 1, so the rule must be evaluable there.
    """
    _require_checkable(rule.alphabet, n_max)
    bot = rule.alphabet.bot

    def scan(table: Outcomes, size: int) -> tuple[Witness | None, int]:
        k = table.k
        read, read_joined = table.reader(size), table.reader(size + 1)
        for code in range(k ** size):
            if read(code) == bot and all(read_joined(code * k + d) == bot for d in range(k)):
                return Witness(C6, table.profile(size, code), None,
                               expected=None, observed=bot), code + 1
        return None, k ** size

    return _sweep(rule, C6, n_max, range(n_max + 1), range(n_max + 2), outcomes, scan,
                  whole=True)


def _expected_check(rule: RuleFamily, n_max: int, outcomes: Outcomes | None, axiom: str,
                    expect: Callable[[tuple[int, ...]], str | None]) -> CheckResult:
    """Each profile's outcome must be the tie or ``expect(counts)`` of its
    ballot multiset (None: no constraint, and the outcome is not read)."""
    _require_checkable(rule.alphabet, n_max)
    bot = rule.alphabet.bot

    def scan(table: Outcomes, size: int) -> tuple[Witness | None, int]:
        read, counts = table.reader(size), _counts(table.k, size)
        expected_at = {c: expect(c) for c in dict.fromkeys(counts)}  # per ballot multiset
        for code, expected in enumerate(map(expected_at.__getitem__, counts)):
            if expected is None:
                continue
            outcome = read(code)
            if outcome != bot and outcome != expected:
                return Witness(axiom, table.profile(size, code), None,
                               expected=expected, observed=outcome), code + 1
        return None, len(counts)

    return _sweep(rule, axiom, n_max, range(n_max + 1), range(n_max + 1), outcomes, scan)


def check_plurality_property(
    rule: RuleFamily, n_max: int, *, outcomes: Outcomes | None = None
) -> CheckResult:
    """Conclusive outcomes must be the strict plurality winner."""
    alphabet = rule.alphabet
    bot, non_bot = alphabet.bot, alphabet.non_bot
    bot_at = alphabet.index(bot)
    return _expected_check(
        rule, n_max, outcomes, PLURALITY_PROPERTY,
        lambda counts: plurality_winner(non_bot, counts[:bot_at] + counts[bot_at + 1:], bot))


def check_unavoidable_ties(
    rule: RuleFamily, n_max: int, *, outcomes: Outcomes | None = None
) -> CheckResult:
    """A shared top count forces the tie outcome."""
    alphabet = rule.alphabet
    non_bot = list(map(alphabet.index, alphabet.non_bot))

    def expect(counts: tuple[int, ...]) -> str | None:
        tops = [counts[d] for d in non_bot]
        return alphabet.bot if tops.count(max(tops)) >= 2 else None

    return _expected_check(rule, n_max, outcomes, UNAVOIDABLE_TIES, expect)


def check_tie_closure(
    rule: RuleFamily, n_max: int, *, outcomes: Outcomes | None = None
) -> CheckResult:
    """No conclusive outcome collapses to a tie when its own supporter joins.

    A logical consequence of C5; checked independently so the implication can
    be tested rather than assumed.
    """
    bot = rule.alphabet.bot
    return _extension_check(rule, n_max, outcomes, TIE_CLOSURE,
                            lambda outcome: None if outcome == bot else outcome,
                            lambda before, after: after == bot)


def _require_may(rule: RuleFamily, n: int) -> None:
    a = rule.alphabet
    if set(a.alternatives) != {"-1", "0", "1"} or a.bot != "0":
        raise RuleDomainError("May-style checks need the {-1, 0, 1} alphabet with tie 0")
    require_voter_bound(n)


def check_ma2(rule: RuleFamily, n: int, *, outcomes: Outcomes | None = None) -> CheckResult:
    """May's symmetry at exact size n: full voter-permutation invariance."""
    _require_may(rule, n)
    return _sweep(rule, MA2, n, range(n, n + 1), range(n, n + 1), outcomes,
                  lambda table, size: _multiset_scan(table, size, MA2), whole=True)


def check_ma3(rule: RuleFamily, n: int, *, outcomes: Outcomes | None = None) -> CheckResult:
    """May's neutrality at exact size n: negating every ballot negates the outcome."""
    _require_may(rule, n)
    negate = (AltPermutation.swap(rule.alphabet, "-1", "1"),)
    return _sweep(rule, MA3, n, range(n, n + 1), range(n, n + 1), outcomes,
                  lambda table, size: _relabel_scan(table, size, negate, MA3), whole=True)


def check_ma4(
    rule: RuleFamily, n: int, semantics: str = "in_favor", *, outcomes: Outcomes | None = None
) -> CheckResult:
    """May's positive responsiveness at exact size n.

    ``flip`` relates profiles where one voter swings fully between -1 and 1;
    ``in_favor`` (May's original) additionally covers the one-step moves
    through 0.  In both, if the old outcome was the tie or already the move's
    direction, the new outcome must be the move's direction.
    """
    _require_may(rule, n)
    if semantics not in ("flip", "in_favor"):
        raise VoteLabError(f"unknown Ma4 semantics {semantics!r}")
    value = [int(s) for s in rule.alphabet.alternatives]

    def scan(table: Outcomes, size: int) -> tuple[Witness | None, int]:
        k = table.k
        # per voter and old ballot: each new ballot's code step and direction
        moves = [[[((new - old) * k ** (size - 1 - v), "1" if value[new] > value[old] else "-1")
                   for new in range(k)
                   if new != old and (semantics == "in_favor" or value[new] == -value[old])]
                  for old in range(k)] for v in range(size)]
        # per old outcome, the moves it constrains: all from the tie, else its direction's
        constrained = {fx: [[[(step, direction) for step, direction in by_old
                              if fx in ("0", direction)] for by_old in by_voter]
                            for by_voter in moves]
                       for fx in rule.alphabet.alternatives}
        read = table.reader(size)
        for code, digits in enumerate(itertools.product(range(k), repeat=size)):
            fx = read(code)
            fx_moves = constrained[fx]
            for v, old in enumerate(digits):
                for step, direction in fx_moves[v][old]:
                    moved = code + step
                    observed = read(moved)
                    if observed != direction:
                        return Witness(MA4, table.profile(size, code), table.profile(size, moved),
                                       expected=direction, observed=observed), code + 1
        return None, k ** size

    return _sweep(rule, MA4, n, range(n, n + 1), range(n, n + 1), outcomes, scan, whole=True)


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
    """Run the selected checkers on one shared outcome table, so each raw
    profile is evaluated at most once.  Checker errors are recorded per axiom
    and do not abort the remaining ones.  A bound that is not a non-negative
    int, one whose profiles exceed the budget, and 0 with C4, C5 or TIE_CLOSURE
    raise BoundError before any evaluation, so none yields a vacuous pass."""
    require_voter_bound(n_max)
    profile_budget(rule.alphabet, n_max, range(n_max + (2 if C6 in axioms else 1)))
    for a in axioms:
        if a not in ALL_AXIOMS:
            raise VoteLabError(f"unknown axiom {a!r}")
        if a in (C4, C5, TIE_CLOSURE):
            _require_extensible(a, n_max, range(n_max))
    outcomes = Outcomes(rule)
    results = []
    for axiom in ALL_AXIOMS:
        if axiom not in axioms:
            continue
        try:
            results.append(_run_one(rule, axiom, n_max, ma4_semantics, outcomes))
        except (VoteLabError, ValueError) as exc:
            results.append(CheckResult(axiom, "error", None, 0, error=str(exc),
                                       error_type=type(exc)))
    return AuditReport(rule.descriptor, rule.alphabet, n_max, tuple(results))


def _run_one(
    rule: RuleFamily, axiom: str, n_max: int, ma4_semantics: str, outcomes: Outcomes
) -> CheckResult:
    # Built on each call, so a wrapper later bound to a checker's module-level
    # name is the one called.
    checkers: dict[str, Callable[..., CheckResult]] = {
        C2: check_c2,
        C3: check_c3,
        C4: check_c4,
        C5: check_c5,
        C6: check_c6,
        PLURALITY_PROPERTY: check_plurality_property,
        UNAVOIDABLE_TIES: check_unavoidable_ties,
        TIE_CLOSURE: check_tie_closure,
        MA2: check_ma2,
        MA3: check_ma3,
        MA4: lambda r, n, outcomes: check_ma4(r, n, ma4_semantics, outcomes=outcomes),
    }
    check = checkers[axiom]
    if axiom not in MA_AXIOMS:
        return check(rule, n_max, outcomes=outcomes)
    # May checks quantify over exact sizes; audit sweeps every size in bounds.

    def scan(table: Outcomes, n: int) -> tuple[Witness | None, int]:
        res = check(rule, n, outcomes=table)
        return res.witness, res.profiles_checked

    return _sweep(rule, axiom, n_max, range(n_max + 1), range(n_max + 1), outcomes, scan)
