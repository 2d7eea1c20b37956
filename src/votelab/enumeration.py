"""Exhaustive enumeration of rule families satisfying axiom sets, and the
conclusiveness order among rules with maximality checks.

Both enumerators pose their axioms as constraints for the one search core,
:func:`core.solutions`, over canonical domains (count triples for the
two-option setting, count signatures for the general one), and emit
canonically sorted, deterministic family sets.  Each search's constraint
network is built once per domain, on first use, and shared by later calls in
the process; a search narrows a copy of its root masks.  Enumerator output is
meant to be cross-checked against the raw-profile checkers in
:mod:`votelab.axioms`, which are implemented independently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import (
    Alphabet,
    BoundError,
    Profile,
    RuleDomainError,
    Rows,
    VoteLabError,
    Watch,
    check_values,
    compositions,
    listed,
    not_all,
    post,
    profile_budget,
    require_voter_bound,
    rows,
    signature_positions,
    signatures_up_to,
    solutions,
)
from .rules import FunctionRule, RuleFamily, TabulatedFamily, pure_majority_table
from . import axioms

MAY_VALUES = (-1, 0, 1)

# The family enumerator's bound stays fixed rather than follow
# core.PROFILE_BUDGET: what it costs grows with the families it lists, not
# with profiles (at 3 alternatives, h=7 without C6 lists 356,160 families:
# 5.6-8.1 s and 411 MB peak RSS in-process, 2-vCPU Xeon VM, Python 3.11).
MAX_HORIZON = 8


@dataclass(frozen=True)
class MayFunctionTable:
    """Group decision function for exactly n voters, on ballot-count triples.

    ``values`` holds the decision at each (count of -1, count of 0, count of 1)
    summing to n, in the order of ``compositions(n, 3)``; symmetry holds
    structurally because the domain forgets voter order.
    """

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"voter count must be a non-negative int, got {self.n!r}")
        check_values(self.values, math.comb(self.n + 2, 2), MAY_VALUES)

    def value_tuple(self) -> tuple[int, ...]:
        return self.values

    def as_rule(self) -> RuleFamily:
        alphabet = Alphabet.may()
        position = {t: i for i, t in enumerate(compositions(self.n, 3))}

        def run(profile: Profile) -> str:
            if len(profile) != self.n:
                raise VoteLabError(
                    f"table is for exactly {self.n} voters, got {len(profile)}"
                )
            counts = tuple(map(profile.ballots.count, alphabet.alternatives))
            return str(self.values[position[counts]])

        return FunctionRule(alphabet, run, f"may-table:n{self.n}:{self.values}")

    @staticmethod
    def sign_table(n: int) -> "MayFunctionTable":
        """The majority-by-sign rule: compare the +1 and -1 counts."""
        return MayFunctionTable(n, tuple((p > m) - (p < m) for m, z, p in compositions(n, 3)))


def _may_moves(n: int, semantics: str) -> list[tuple[tuple[int, int, int], tuple[int, int, int], int]]:
    """Single-voter moves (source triple, target triple, move direction)."""
    if semantics == "flip":
        transitions = [(-1, 1), (1, -1)]
    elif semantics == "in_favor":
        transitions = [(u, w) for u in MAY_VALUES for w in MAY_VALUES if u != w]
    else:
        raise VoteLabError(f"unknown Ma4 semantics {semantics!r}")
    slot = {-1: 0, 0: 1, 1: 2}
    moves = []
    for t in compositions(n, 3):
        for u, w in transitions:
            if t[slot[u]] == 0:
                continue
            target = list(t)
            target[slot[u]] -= 1
            target[slot[w]] += 1
            direction = 1 if w > u else -1
            moves.append((t, tuple(target), direction))
    return moves


# Value v of a May table is value v + 1 of the search.  Negation mirrors the
# value; a move in ``direction`` from a source valued 0 or ``direction`` keeps
# the target at ``direction``.
_MIRROR = ((0, 2), (1, 1), (2, 0))
_RESPONSIVE = {d: tuple((a, b) for a in range(3) for b in range(3)
                        if a - 1 not in (0, d) or b - 1 == d) for d in (-1, 1)}


@functools.lru_cache(maxsize=None)
def _may_network(n: int, semantics: str) -> tuple[tuple[int, ...], Rows]:
    """The root masks and constraint rows of the n-voter May search, built once."""
    triples = list(compositions(n, 3))
    position = {t: i for i, t in enumerate(triples)}
    watch: Watch = [[] for _ in triples]
    for t in triples:
        if t[2] > t[0]:
            post(watch, (position[t], position[t[::-1]]), listed(_MIRROR, 3))
    for src, dst, direction in _may_moves(n, semantics):
        post(watch, (position[src], position[dst]), listed(_RESPONSIVE[direction], 3))
    return tuple(2 if t[0] == t[2] else 7 for t in triples), rows(watch)


def enumerate_may_functions(n: int, semantics: str = "in_favor") -> tuple[MayFunctionTable, ...]:
    """All n-voter tables satisfying symmetry, neutrality and positive
    responsiveness under the chosen responsiveness semantics.

    Symmetry is structural (count-triple domain).  Neutrality pins the
    self-negating triples to 0 and ties every other triple to its mirror, and
    each single-voter move is one responsiveness constraint between its two
    triples; :func:`core.solutions` lists the tables these allow.  Every
    emitted table is re-checked against the raw-profile checkers, which read
    all 3^n profiles, so the bound is ``core.PROFILE_BUDGET`` (n <= 11).  A
    voter count that is not a positive int, or is over that bound, raises
    BoundError before the network is built.
    """
    if type(n) is not int or n < 1:
        raise BoundError(f"voter count {n!r} is not a positive int")
    profile_budget(Alphabet.may(), n, range(n, n + 1))
    masks, rows = _may_network(n, semantics)
    found = sorted((MayFunctionTable(n, tuple(m.bit_length() - 2 for m in s))
                    for s in solutions(list(masks), rows, 3)), key=MayFunctionTable.value_tuple)
    for table in found:
        _cross_check_may(table, semantics)
    return tuple(found)


def _cross_check_may(table: MayFunctionTable, semantics: str) -> None:
    """Independent route: the raw-profile checkers must agree with the
    table-level enumeration constraints.  They share one outcome table, so it
    is filled in code order and each profile is evaluated once."""
    rule = table.as_rule()
    outcomes = axioms.Outcomes(rule)
    for res in (
        axioms.check_ma2(rule, table.n, outcomes=outcomes),
        axioms.check_ma3(rule, table.n, outcomes=outcomes),
        axioms.check_ma4(rule, table.n, semantics, outcomes=outcomes),
    ):
        if not res.passed:
            raise VoteLabError(
                f"enumerated table {table.value_tuple()} fails {res.axiom}: "
                "enumerator and checker disagree"
            )


def _family_masks(alphabet: Alphabet, families: tuple[TabulatedFamily, ...]) -> tuple[int, ...]:
    """Each family's table as one int: one bit per (cell, non-tie value), bit j
    of a cell for ``non_bot[j]``, first cell most significant."""
    k = len(alphabet.non_bot)
    cell = {alphabet.bot: 0} | {x: 1 << j for j, x in enumerate(alphabet.non_bot)}
    if k <= 4 and all(len(x) == 1 for x in cell):  # a cell is one digit in base 2^k
        digits = str.maketrans({x: format(c, "x") for x, c in cell.items()})
        return tuple(int("".join(f.values).translate(digits), 1 << k) for f in families)
    bits = {x: format(c, f"0{k}b") for x, c in cell.items()}
    return tuple(int("".join(map(bits.__getitem__, f.values)), 2) for f in families)


@dataclass(frozen=True)
class FamilySet:
    """Canonically ordered, pairwise distinct families over one alphabet and horizon."""

    alphabet: Alphabet
    horizon: int
    families: tuple[TabulatedFamily, ...]

    def __post_init__(self) -> None:
        a, h = self.alphabet, self.horizon  # the masks read every table as over these
        if any(f.alphabet is not a and f.alphabet != a or f.horizon != h for f in self.families):
            raise ValueError("families must share the set's alphabet and horizon")
        values = [f.values for f in self.families]
        if not all(map(tuple.__lt__, values, values[1:])):  # strictly increasing
            raise ValueError("families must be sorted and pairwise distinct")

    @functools.cached_property
    def _masks(self) -> tuple[int, ...]:
        """The families' masks (:func:`_family_masks`), built on first use."""
        return _family_masks(self.alphabet, self.families)


@functools.lru_cache(maxsize=None)
def _c_network(alphabet: Alphabet, horizon: int, with_c6: bool) -> tuple[tuple[int, ...], Rows]:
    """The root masks and constraint rows of the family search, built once."""
    k = len(alphabet.non_bot)
    # value 0 is the tie symbol, value j + 1 the alternative non_bot[j]; a
    # signature valued j + 1 forces its extension by one j ballot to j + 1
    width = k + 1
    forward = [listed(tuple((a, b) for a in range(width) for b in range(width)
                            if a != j + 1 or b == j + 1), width) for j in range(k)]
    position = signature_positions(alphabet, horizon)
    watch: Watch = [[] for _ in position]
    masks = []
    for i, s in enumerate(position):
        rep = tuple(sorted(s))  # the least of its orbit
        if rep == s:  # the swaps fixing s fix its value
            masks.append(1 + sum(2 << j for j in range(k) if s.count(s[j]) == 1))
        else:
            perm = sorted(range(k), key=s.__getitem__)  # sends rep's coordinate j to perm[j]
            relabel = ((0, 0),) + tuple((j + 1, perm[j] + 1) for j in range(k))
            post(watch, (position[rep], i), listed(relabel, width))
            masks.append((1 << width) - 1)
        if sum(s) < horizon:
            ext = tuple(position[s[:j] + (s[j] + 1,) + s[j + 1:]] for j in range(k))
            for supports, e in zip(forward, ext):
                post(watch, (i, e), supports)
            if with_c6:
                post(watch, (i,) + ext, not_all(0, k + 1, width))
    return tuple(masks), rows(watch)


def enumerate_c_families(alphabet: Alphabet, horizon: int, with_c6: bool = False) -> FamilySet:
    """All tabulated families within the horizon satisfying the consistency
    axioms structurally.

    Anonymity and tie-ballot invariance hold by the signature domain.
    Neutrality constrains the table along orbits of the non-tie coordinate
    permutations (values relabel along); in particular any signature fixed by
    a swap can only map to the tie symbol or an alternative that swap fixes,
    which forces the empty signature to the tie outcome.  Consistency is the
    forward closure f(s) = x != tie  =>  f(s + one x) = x whenever the target
    stays within the horizon.  With ``with_c6``, every tie-valued signature
    with total <= horizon - 1 must have a conclusive one-step extension.

    Each signature is one variable of :func:`core.solutions`, over the tie
    symbol and the k alternatives.  Neutrality narrows each orbit
    representative's values and ties every other signature to its
    representative, consistency is one constraint per signature and
    alternative, and C6 one "not all tie" constraint over a signature and its
    extensions, so every axiom prunes as soon as its cells narrow.  Solutions
    become families unchecked, sorted only if tie-then-``non_bot`` is not
    string order.  Fewer than 2 alternatives raise RuleDomainError; more than
    3, or a horizon that is not an int in 0..MAX_HORIZON, BoundError.
    """
    k = len(alphabet.non_bot)
    if k < 2:
        raise RuleDomainError("family enumeration needs at least 2 non-tie alternatives")
    if k > 3:
        raise BoundError("family enumeration supports 2 or 3 non-tie alternatives")
    if type(horizon) is not int or not 0 <= horizon <= MAX_HORIZON:
        raise BoundError(f"horizon {horizon!r} outside bound 0..{MAX_HORIZON}")
    masks, rows = _c_network(alphabet, horizon, with_c6)
    assert len(masks) == math.comb(horizon + k, k)  # one cell per signature
    symbols = (alphabet.bot,) + alphabet.non_bot  # a mask not one of their bits: KeyError
    symbol = {1 << v: x for v, x in enumerate(symbols)}
    families = [TabulatedFamily._of_search(alphabet, horizon, tuple(map(symbol.__getitem__, m)))
                for m in solutions(list(masks), rows, k + 1)]
    if list(symbols) != sorted(symbols):  # else the search's order is the canonical one
        families.sort(key=TabulatedFamily.value_tuple)
    return FamilySet(alphabet, horizon, tuple(families))


def rule_leq(f: RuleFamily, g: RuleFamily, n_max: int) -> tuple[bool, Profile | None]:
    """Whether f is at most g: wherever f is conclusive, g agrees.

    Reads the two rules' outcome tables (:class:`axioms.Outcomes`) code by code,
    g only where f is conclusive.  On failure returns the minimal profile
    (smallest size, lexicographically first) where f is conclusive and differs
    from g.  A negative bound, or one over the profile budget, raises
    BoundError before any evaluation, as does one that is not an int; an
    outcome outside the alphabet raises RuleDomainError.
    """
    require_voter_bound(n_max)
    profile_budget(f.alphabet, n_max, range(n_max + 1))
    if f.alphabet != g.alphabet:
        raise VoteLabError("rules must share an alphabet to be compared")
    bot = f.alphabet.bot
    f_table, g_table = axioms.Outcomes(f), axioms.Outcomes(g)
    for size in range(n_max + 1):
        f_read, g_read = f_table.reader(size), g_table.reader(size)
        for code in range(f_table.k ** size):
            fv = f_read(code)
            if fv != bot and fv != g_read(code):
                return False, f_table.profile(size, code)
    return True, None


def maximal_elements(family_set: FamilySet) -> tuple[TabulatedFamily, ...]:
    """Families with nothing strictly above them in the set.

    f is strictly below g when g agrees wherever f is conclusive and the tables
    differ, over the set's common horizon.  With the set's one int per table
    (:func:`_family_masks`), f is at most g exactly when ``F & ~G == 0``.  The
    masks are visited by decreasing bit count, each compared only with the
    maximal masks found so far.  That is exact: a mask below any other is below
    a maximal one (the set is finite and containment transitive), which has
    strictly more bits and so was visited first.  The result keeps set order.

    On a truncated set such as ``enumerate_c_families(alphabet, h)`` the
    result includes horizon artifacts (see :func:`plurality_artifacts`):
    tables that nothing inside the horizon dominates but that extend to no
    consistent rule.  Pure majority is the unique maximal element of the
    horizon-h restrictions of the horizon-2h set, which are free of them.
    """
    masks = family_set._masks
    maximal: list[int] = []  # indices into the set, by decreasing bit count
    for i in sorted(range(len(masks)), key=lambda i: -masks[i].bit_count()):
        if not any(masks[i] & ~masks[j] == 0 for j in maximal):
            maximal.append(i)
    return tuple(family_set.families[i] for i in sorted(maximal))


def plurality_artifacts(
    family_set: FamilySet,
) -> list[tuple[TabulatedFamily, tuple[int, ...]]]:
    """Families conclusive against the strict count winner, with the first
    offending signature.

    The equalize-then-swap argument pins conclusive values only while the
    equalized signature stays within the horizon, i.e. for totals up to half
    the horizon; offenders above that boundary are horizon artifacts of the
    truncation, not counterexamples, and are reported separately.

    Such families can be maximal in a truncated set.  Restricting the
    horizon-2h set to horizon h drops them, since every equalized signature
    then lies inside the larger horizon; pure majority is the unique maximal
    element of that restriction.
    """
    alphabet, horizon = family_set.alphabet, family_set.horizon
    sigs = signatures_up_to(alphabet, horizon)
    k, last = len(alphabet.non_bot), len(sigs) - 1
    # an offending cell has a bit outside the winner's; the first holds the top bit
    outside = ~_family_masks(alphabet, (pure_majority_table(alphabet, horizon),))[0]
    return [(fam, sigs[last - (off.bit_length() - 1) // k])
            for fam, mask in zip(family_set.families, family_set._masks)
            if (off := mask & outside)]
