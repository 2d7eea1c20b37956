"""Exhaustive enumeration of rule families satisfying axiom sets, and the
conclusiveness order among rules with maximality checks.

Both enumerators are backtrackers over canonical domains (count triples for
the two-option setting, count signatures for the general one) and emit
canonically sorted, deterministic family sets.  Enumerator output is meant to
be cross-checked against the raw-profile checkers in :mod:`votelab.axioms`,
which are implemented independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    Alphabet,
    BoundError,
    Profile,
    RuleDomainError,
    VoteLabError,
    canonical_keys,
    compositions,
    profile_budget,
    signatures_up_to,
    table_values,
)
from .rules import FunctionRule, RuleFamily, TabulatedFamily, pure_majority_table
from . import axioms

MAY_VALUES = (-1, 0, 1)

# Bounds of the two enumerators.  They stay fixed rather than follow
# core.PROFILE_BUDGET: what an enumeration costs grows with the families it
# lists, not with profiles (at 3 alternatives, h=7 without C6 lists 356,160
# families: 76 s and 2.1 GB).
MAY_MAX_VOTERS = 4
MAX_HORIZON = 8


@dataclass(frozen=True)
class MayFunctionTable:
    """Group decision function for exactly n voters, on ballot-count triples.

    Keys are (count of -1, count of 0, count of 1) with the counts summing to
    n; symmetry holds structurally because the domain forgets voter order.
    """

    n: int
    table: dict[tuple[int, int, int], int]
    _values: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = dict.fromkeys(compositions(self.n, 3)).keys()
        object.__setattr__(self, "_values", table_values(self.table, keys, MAY_VALUES))

    def value_tuple(self) -> tuple[int, ...]:
        return self._values

    def as_rule(self) -> RuleFamily:
        alphabet = Alphabet.may()

        def run(profile: Profile) -> str:
            if len(profile) != self.n:
                raise VoteLabError(
                    f"table is for exactly {self.n} voters, got {len(profile)}"
                )
            return str(self.table[tuple(map(profile.ballots.count, alphabet.alternatives))])

        return FunctionRule(alphabet, run, f"may-table:n{self.n}:{self.value_tuple()}")

    @staticmethod
    def sign_table(n: int) -> "MayFunctionTable":
        """The majority-by-sign rule: compare the +1 and -1 counts."""
        table = {(m, z, p): (p > m) - (p < m) for m, z, p in compositions(n, 3)}
        return MayFunctionTable(n, table)


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


def enumerate_may_functions(n: int, semantics: str = "in_favor") -> tuple[MayFunctionTable, ...]:
    """All n-voter tables satisfying symmetry, neutrality and positive
    responsiveness under the chosen responsiveness semantics.

    Symmetry is structural (count-triple domain).  Neutrality pins the
    self-negating triples to 0 and mirrors the rest, so the search branches
    only on the positive side; responsiveness constraints prune as soon as
    both endpoints of a move are determined.  Every emitted table is
    re-checked against the raw-profile checkers.
    """
    if not 1 <= n <= MAY_MAX_VOTERS:
        raise BoundError(f"voter count {n} outside enumeration bound 1..{MAY_MAX_VOTERS}")
    triples = list(compositions(n, 3))
    mirror = {t: (t[2], t[1], t[0]) for t in triples}
    free = [t for t in triples if t[2] > t[0]]  # positive side; rest follows
    moves = _may_moves(n, semantics)

    assignment: dict[tuple[int, int, int], int] = {
        t: 0 for t in triples if t[0] == t[2]
    }
    found: list[MayFunctionTable] = []

    def consistent(t: tuple[int, int, int]) -> bool:
        for src, dst, direction in moves:
            if src != t and dst != t:
                continue
            if src not in assignment or dst not in assignment:
                continue
            if assignment[src] in (0, direction) and assignment[dst] != direction:
                return False
        return True

    def assign(t: tuple[int, int, int], value: int) -> bool:
        assignment[t] = value
        assignment[mirror[t]] = -value
        if consistent(t) and consistent(mirror[t]):
            return True
        return False

    def undo(t: tuple[int, int, int]) -> None:
        del assignment[t]
        if mirror[t] in assignment:
            del assignment[mirror[t]]

    def backtrack(idx: int) -> None:
        if idx == len(free):
            found.append(MayFunctionTable(n, dict(assignment)))
            return
        t = free[idx]
        for value in MAY_VALUES:
            if assign(t, value):
                backtrack(idx + 1)
            undo(t)

    backtrack(0)
    found.sort(key=MayFunctionTable.value_tuple)
    for table in found:
        _cross_check_may(table, semantics)
    return tuple(found)


def _cross_check_may(table: MayFunctionTable, semantics: str) -> None:
    """Independent route: the raw-profile checkers must agree with the
    table-level enumeration constraints."""
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


@dataclass(frozen=True)
class FamilySet:
    """Canonically ordered, pairwise distinct tabulated families."""

    alphabet: Alphabet
    horizon: int
    families: tuple[TabulatedFamily, ...]

    def __post_init__(self) -> None:
        values = [f.value_tuple() for f in self.families]
        if sorted(values) != values or len(set(values)) != len(values):
            raise ValueError("families must be sorted and pairwise distinct")


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

    Signatures are visited in nondecreasing total order so the consistency
    constraint propagates forward only and prunes early.  A signature's C6 test
    runs as soon as the last of its one-step extensions is assigned, so C6
    prunes during the search too.  Fewer than 2 alternatives raise
    RuleDomainError; more than 3, or a horizon outside 0..MAX_HORIZON, BoundError.
    """
    k = len(alphabet.non_bot)
    if k < 2:
        raise RuleDomainError("family enumeration needs at least 2 non-tie alternatives")
    if k > 3:
        raise BoundError("family enumeration supports 2 or 3 non-tie alternatives")
    if not 0 <= horizon <= MAX_HORIZON:
        raise BoundError(f"horizon {horizon} outside bound 0..{MAX_HORIZON}")

    sigs = list(canonical_keys(alphabet, horizon))
    position = {s: i for i, s in enumerate(sigs)}
    non_bot = alphabet.non_bot
    bot = alphabet.bot

    # plan[i]: the (symbol, predecessor position) pairs that can force position
    # i; an orbit representative's allowed values (the swaps fixing it fix them),
    # or else its representative's position and value relabelling; C6 checks due
    plan = []
    for s in sigs:
        forcers = [(sym, position[s[:j] + (s[j] - 1,) + s[j + 1:]])
                   for j, sym in enumerate(non_bot) if s[j]]
        rep = tuple(sorted(s))  # the least of its orbit
        if rep == s:
            allowed = [bot] + [v for j, v in enumerate(non_bot) if s.count(s[j]) == 1]
            plan.append((forcers, allowed, None, None, []))
        else:
            perm = sorted(range(k), key=s.__getitem__)  # sends rep's coordinate j to perm[j]
            relabel = {bot: bot, **{v: non_bot[perm[j]] for j, v in enumerate(non_bot)}}
            plan.append((forcers, None, position[rep], relabel, []))
    for i, s in enumerate(sigs):
        if with_c6 and sum(s) < horizon:
            ext = [position[s[:j] + (s[j] + 1,) + s[j + 1:]] for j in range(k)]
            plan[max(ext)][4].append((i, ext))

    assignment: list[str | None] = [None] * len(sigs)
    families: list[TabulatedFamily] = []

    # each position reads only earlier ones, so a stale later value is never read
    def backtrack(idx: int) -> None:
        if idx == len(sigs):
            families.append(TabulatedFamily(alphabet, horizon, dict(zip(sigs, assignment))))
            return
        forcers, candidates, rep_pos, relabel, due = plan[idx]
        forced = None
        for sym, pred in forcers:
            if assignment[pred] == sym:
                if forced is not None:
                    return  # two predecessors force different values
                forced = sym
        if relabel is not None:
            candidates = [relabel[assignment[rep_pos]]]
        if forced is not None:
            candidates = [forced] if forced in candidates else []
        for value in candidates:
            assignment[idx] = value
            if not due or not any(assignment[i] == bot and all(assignment[e] == bot for e in ext)
                                  for i, ext in due):
                backtrack(idx + 1)

    backtrack(0)
    families.sort(key=TabulatedFamily.value_tuple)
    return FamilySet(alphabet, horizon, tuple(families))


def rule_leq(f: RuleFamily, g: RuleFamily, n_max: int) -> tuple[bool, Profile | None]:
    """Whether f is at most g: wherever f is conclusive, g agrees.

    Reads the two rules' outcome tables (:class:`axioms.Outcomes`) code by code,
    g only where f is conclusive.  On failure returns the minimal profile
    (smallest size, lexicographically first) where f is conclusive and differs
    from g.  A negative bound, or one over the profile budget, raises
    BoundError before any evaluation; an outcome outside the alphabet raises
    RuleDomainError.
    """
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
    differ, over the set's common horizon.  Each table is one int, one bit per
    (cell, non-tie value), so f is at most g exactly when ``F & ~G == 0``.  The
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
    non_bot = family_set.alphabet.non_bot
    bits = {v: format(1 << j, f"0{len(non_bot)}b") for j, v in enumerate(non_bot)}
    bits[family_set.alphabet.bot] = "0" * len(non_bot)
    masks = [int("".join(map(bits.__getitem__, f.value_tuple())), 2)
             for f in family_set.families]
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
    sigs = signatures_up_to(family_set.alphabet, family_set.horizon)
    bot = family_set.alphabet.bot
    winners = pure_majority_table(family_set.alphabet, family_set.horizon).value_tuple()
    out = []
    for fam in family_set.families:
        for sig, value, winner in zip(sigs, fam.value_tuple(), winners):
            if value not in (bot, winner):
                out.append((fam, sig.counts))
                break
    return out
