"""Shared vocabulary: alphabets, profiles, tallies, permutations, count signatures.

Everything here is an immutable value; all operations are pure functions, so
concurrent evaluation needs no coordination.  The canonical symbol ordering is
fixed when an :class:`Alphabet` is constructed and every enumeration or report
ordering in the toolkit derives from it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Sequence


class VoteLabError(Exception):
    """Base class for toolkit errors."""


class RuleDomainError(VoteLabError):
    """A rule was applied to an alphabet or configuration it does not accept."""


class HorizonError(VoteLabError):
    """A tabulated family was evaluated beyond its stored horizon."""


class BoundError(VoteLabError):
    """An enumeration or search was requested beyond its configured bounds."""


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered set of alternatives with a distinguished tie symbol.

    ``bot`` is the tie/abstain alternative: on a ballot it reads as an
    abstention, as an outcome it reads as an inconclusive (tied) vote.
    """

    alternatives: tuple[str, ...]
    bot: str
    non_bot: tuple[str, ...] = field(init=False, repr=False, compare=False)
    """The non-tie symbols in alphabet order, stored once at construction."""

    def __post_init__(self) -> None:
        if len(set(self.alternatives)) != len(self.alternatives):
            raise ValueError("alphabet symbols must be pairwise distinct")
        if self.bot not in self.alternatives:
            raise ValueError("tie symbol must be a member of the alphabet")
        if len(self.alternatives) < 2:
            raise ValueError("alphabet needs at least one non-tie alternative")
        object.__setattr__(self, "non_bot",
                           tuple(s for s in self.alternatives if s != self.bot))

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.alternatives

    def index(self, symbol: str) -> int:
        return self.alternatives.index(symbol)

    @staticmethod
    def make(num_alternatives: int, bot: str = "_") -> "Alphabet":
        """Alphabet with ``num_alternatives`` non-tie symbols a, b, c, ... plus ``bot``."""
        if not 1 <= num_alternatives <= 26:
            raise ValueError("num_alternatives must be between 1 and 26")
        symbols = tuple(chr(ord("a") + i) for i in range(num_alternatives))
        if bot in symbols:
            raise ValueError("tie symbol collides with a generated alternative")
        return Alphabet(symbols + (bot,), bot)

    @staticmethod
    def may() -> "Alphabet":
        """The two-option alphabet {-1, 0, 1} with 0 as the tie symbol."""
        return Alphabet(("-1", "0", "1"), "0")


@dataclass(frozen=True)
class Profile:
    """One ballot per anonymous voter; the empty profile is legal."""

    alphabet: Alphabet
    ballots: tuple[str, ...]

    def __post_init__(self) -> None:
        alternatives = self.alphabet.alternatives
        for b in self.ballots:
            if b not in alternatives:
                raise ValueError(f"ballot symbol {b!r} not in alphabet")

    def __len__(self) -> int:
        return len(self.ballots)


def _trusted_profile(alphabet: Alphabet, ballots: tuple[str, ...]) -> Profile:
    """The profile of ``ballots``, built without ``__post_init__``: only for
    ballots drawn from the alphabet's own symbols, which need no check.  The
    result equals, and hashes like, ``Profile(alphabet, ballots)``."""
    profile = object.__new__(Profile)
    object.__setattr__(profile, "alphabet", alphabet)
    object.__setattr__(profile, "ballots", ballots)
    return profile


def _trusted_profiles(alphabet: Alphabet,
                      ballot_tuples: Iterable[tuple[str, ...]]) -> Iterator[Profile]:
    """:func:`_trusted_profile` of each ballot tuple in turn, built in this
    loop as that function builds one (keep the two in step): a call per
    profile made the filled audits of enumerated families about 5% slower."""
    new, put = object.__new__, object.__setattr__
    for ballots in ballot_tuples:
        profile = new(Profile)
        put(profile, "alphabet", alphabet)
        put(profile, "ballots", ballots)
        yield profile


@dataclass(frozen=True)
class Tally:
    """Ballot counts for every alphabet symbol (zero for absent ones)."""

    alphabet: Alphabet
    counts: tuple[int, ...]  # aligned with alphabet.alternatives

    def count(self, symbol: str) -> int:
        return self.counts[self.alphabet.index(symbol)]


@dataclass(frozen=True)
class AltPermutation:
    """Bijection on the alternatives that fixes the tie symbol."""

    alphabet: Alphabet
    mapping: tuple[str, ...]  # image of alphabet.alternatives, positionwise

    def __post_init__(self) -> None:
        if sorted(self.mapping) != sorted(self.alphabet.alternatives):
            raise ValueError("mapping is not a bijection on the alphabet")
        if self.apply(self.alphabet.bot) != self.alphabet.bot:
            raise ValueError("permutation must fix the tie symbol")

    def apply(self, symbol: str) -> str:
        return self.mapping[self.alphabet.index(symbol)]

    @staticmethod
    def identity(alphabet: Alphabet) -> "AltPermutation":
        return AltPermutation(alphabet, alphabet.alternatives)

    @staticmethod
    def swap(alphabet: Alphabet, a: str, b: str) -> "AltPermutation":
        image = {a: b, b: a}
        return AltPermutation(
            alphabet, tuple(image.get(s, s) for s in alphabet.alternatives)
        )

    @staticmethod
    def from_non_bot_images(alphabet: Alphabet, images: tuple[str, ...]) -> "AltPermutation":
        """Permutation sending alphabet.non_bot positionwise onto ``images``."""
        image = dict(zip(alphabet.non_bot, images))
        image[alphabet.bot] = alphabet.bot
        return AltPermutation(alphabet, tuple(image[s] for s in alphabet.alternatives))


@dataclass(frozen=True)
class VoterPermutation:
    """Bijection on voter indices 0..n-1, stored as the image tuple."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a permutation of the voter indices")

    def apply(self, index: int) -> int:
        return self.mapping[index]

    @staticmethod
    def identity(n: int) -> "VoterPermutation":
        return VoterPermutation(tuple(range(n)))


def tally(profile: Profile) -> Tally:
    """Count ballots per alternative."""
    return Tally(profile.alphabet,
                 tuple(map(profile.ballots.count, profile.alphabet.alternatives)))


def apply_alt_permutation(profile: Profile, perm: AltPermutation) -> Profile:
    """Relabel every ballot through a tie-fixing alternative permutation."""
    if perm.alphabet != profile.alphabet:
        raise ValueError("permutation alphabet differs from profile alphabet")
    return Profile(profile.alphabet, tuple(perm.apply(b) for b in profile.ballots))


def apply_voter_permutation(profile: Profile, perm: VoterPermutation) -> Profile:
    """Reorder ballots: result ballot i is the profile's ballot perm(i)."""
    if len(perm.mapping) != len(profile.ballots):
        raise ValueError("permutation length differs from profile size")
    return Profile(
        profile.alphabet, tuple(profile.ballots[perm.apply(i)] for i in range(len(profile)))
    )


def extend(profile: Profile, symbol: str) -> Profile:
    """Append one ballot for ``symbol`` (a new voter joins with that choice)."""
    if symbol not in profile.alphabet:
        raise ValueError(f"symbol {symbol!r} not in alphabet")
    return Profile(profile.alphabet, profile.ballots + (symbol,))


def signature(profile: Profile) -> tuple[int, ...]:
    """The count signature: the non-tie ballot counts, aligned with
    ``alphabet.non_bot``; invariant under voter reordering and tie-ballot insertion."""
    return tuple(map(profile.ballots.count, profile.alphabet.non_bot))


def strict_plurality(t: Tally) -> str | None:
    """The unique non-tie alternative whose count strictly beats every other.

    Returns None when the top non-tie count is shared or zero.  Tie ballots are
    never compared: they can neither win nor block a strict winner.
    """
    bot = t.alphabet.bot
    return plurality_winner(t.alphabet.non_bot,
                            [n for s, n in zip(t.alphabet.alternatives, t.counts) if s != bot])


def plurality_winner(symbols: Sequence[str], counts: Sequence[int],
                     default: str | None = None) -> str | None:
    """The symbol whose count (``counts`` aligned with ``symbols``) strictly
    beats every other, or ``default`` when the top count is shared or not positive."""
    top = max(counts)
    if top <= 0 or counts.count(top) > 1:
        return default
    return symbols[counts.index(top)]


def profiles_of_size(alphabet: Alphabet, size: int) -> Iterator[Profile]:
    """All profiles of exactly ``size`` ballots, lexicographic in alphabet order."""
    for ballots in itertools.product(alphabet.alternatives, repeat=size):
        yield Profile(alphabet, ballots)


PROFILE_BUDGET = 400_000
"""Most profiles one run may touch: the one bound on every job whose cost is a
count of profiles.  It holds the raw-profile checkers, the May enumeration
(whose cross-check reads 3^n profiles: n <= 11) and the Arrow checkers' m^n
order profiles (m weak orders: 2 alternatives reach n=11, 3 reach n=5, 4 reach
n=2; at 3 and n=5, profiles and order tables take 0.5 s and 72 MB peak RSS on
a 2-vCPU Xeon VM).  It admits every bound the tests, the README examples and
the benchmark use, and 3 alternatives at n=8 with C6 (349,525 profiles), whose
outcome table then holds every one of them."""


def profile_count(k: int, size: int) -> int:
    """k^size, the profiles of ``size`` ballots of k kinds; PROFILE_BUDGET + 1,
    without computing the power, once k >= 2 and that level alone exceeds it."""
    return k ** size if k < 2 or size < PROFILE_BUDGET.bit_length() else PROFILE_BUDGET + 1


def profile_budget(alphabet: Alphabet, n_max: int, sizes: range) -> int:
    """Sum of k^s over ``sizes`` (k = |A|): the raw profiles of the sizes that a
    run under the voter bound ``n_max`` touches.

    Raises BoundError, before any profile is evaluated, for a negative bound,
    which would otherwise pass vacuously, and for a sum over PROFILE_BUDGET.
    """
    if n_max < 0:
        raise BoundError(f"max voters {n_max} is negative")
    k = len(alphabet.alternatives)
    total = 0
    for size in sizes:
        total += profile_count(k, size)
        if total > PROFILE_BUDGET:
            raise BoundError(
                f"max voters {n_max} over {k} ballot symbols exceeds the budget "
                f"of {PROFILE_BUDGET} profiles"
            )
    return total


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of ``parts`` >= 1 nonnegative counts summing to ``total``, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def signatures_up_to(alphabet: Alphabet, horizon: int) -> tuple[tuple[int, ...], ...]:
    """All count signatures with total at most ``horizon``, by total then lex:
    the canonical key order of every table over the alphabet, built once."""
    k = len(alphabet.non_bot)
    return tuple(counts for total in range(horizon + 1) for counts in compositions(total, k))


@functools.lru_cache(maxsize=None)
def signature_positions(alphabet: Alphabet, horizon: int) -> dict[tuple[int, ...], int]:
    """Each signature of :func:`signatures_up_to` with its position there:
    where a table over the alphabet keeps that signature's value."""
    return {sig: i for i, sig in enumerate(signatures_up_to(alphabet, horizon))}


def check_values(values: tuple, size: int, allowed: Container) -> None:
    """ValueError unless ``values`` is a tuple of ``size`` values, each in ``allowed``."""
    if not isinstance(values, tuple) or len(values) != size:
        raise ValueError(f"table must be a tuple of {size} values, one per canonical key")
    try:
        valid = all(value in allowed for value in set(values))
    except TypeError:  # an unhashable value: the loop below names the first bad one
        valid = False
    for value in () if valid else values:
        if value not in allowed:
            raise ValueError(f"table value {value!r} not in {allowed}")


# --- constraint propagation over value masks ------------------------------------
# A variable's domain is a mask over the ``width`` values of its search (bits 0
# to width - 1).  ``post`` files a constraint in a Watch as one revision row per
# variable, watched by each of the others: (the variable, the others, the mask
# of its values supported under every packing of the others' masks, ``width``
# bits each, first other most significant).  ``rows`` compiles a Watch once per
# network into the Rows that ``propagate`` reads: per watching variable, its
# binary rows (x, y, support), its ternary rows (x, y, z, support) and its wider
# rows (x, others, support), each kind in filing order.

Watch = list[list[tuple[int, tuple[int, ...], tuple[int, ...]]]]
Rows = tuple[tuple[tuple[tuple, ...], ...], ...]  # per variable: (binary, ternary, wider)
Supports = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=None)
def listed(allowed: tuple[tuple[int, ...], ...], width: int) -> Supports:
    """The supports of "the variables take one of the ``allowed`` tuples of values"."""
    return tuple(
        tuple(sum({1 << t[pos] for t in allowed
                   if all(m >> b & 1 for m, b in zip(others, t[:pos] + t[pos + 1:]))})
              for others in itertools.product(range(1 << width), repeat=len(allowed[0]) - 1))
        for pos in range(len(allowed[0])))


@functools.lru_cache(maxsize=None)
def not_all(value: int, arity: int, width: int) -> Supports:
    """The supports of "not every one of the ``arity`` variables takes ``value``",
    in closed form: a variable may take it only while another can still take
    something else."""
    full = (1 << width) - 1
    other = full & ~(1 << value)
    some_other = sum(other << width * i for i in range(arity - 1))
    support = tuple(full if key & some_other else other
                    for key in range(1 << width * (arity - 1)))
    return (support,) * arity


def post(watch: Watch, variables: tuple[int, ...], supports: Supports) -> None:
    """File a constraint on ``variables``, given by its ``supports``
    (:func:`listed` or :func:`not_all`), one per variable in order.  A
    constraint on fewer than 2 variables would file no row: ValueError."""
    if len(variables) < 2:
        raise ValueError(f"a constraint needs at least 2 variables, got {variables}")
    for pos, (x, support) in enumerate(zip(variables, supports)):
        others = variables[:pos] + variables[pos + 1:]
        for y in others:
            watch[y].append((x, others, support))


def rows(watch: Watch) -> Rows:
    """The rows of ``watch`` compiled for :func:`propagate`, by arity."""
    return tuple((tuple((x, *others, s) for x, others, s in w if len(others) == 1),
                  tuple((x, *others, s) for x, others, s in w if len(others) == 2),
                  tuple(row for row in w if len(row[1]) > 2)) for w in watch)


def propagate(masks: list[int], rows: Rows, width: int, changed: Iterable[int]) -> bool:
    """Narrow ``masks`` in place until every value left has support in every
    constraint on its variable; False as soon as some mask is empty."""
    stack = list(changed)
    while stack:
        binary, ternary, wider = rows[stack.pop()]
        for x, y, support in binary:
            narrowed = masks[x] & support[masks[y]]
            if narrowed != masks[x]:
                if not narrowed:
                    return False
                masks[x] = narrowed
                stack.append(x)
        for x, y, z, support in ternary:
            narrowed = masks[x] & support[masks[y] << width | masks[z]]
            if narrowed != masks[x]:
                if not narrowed:
                    return False
                masks[x] = narrowed
                stack.append(x)
        for x, others, support in wider:
            key = 0
            for y in others:
                key = key << width | masks[y]
            narrowed = masks[x] & support[key]
            if narrowed != masks[x]:
                if not narrowed:
                    return False
                masks[x] = narrowed
                stack.append(x)
    return True


def solutions(masks: list[int], rows: Rows, width: int) -> Iterator[list[int]]:
    """Every assignment the constraints allow, as one-bit masks, in lexicographic
    order: propagate to a fixpoint, then branch on the first variable left open,
    its values in increasing order.  A branch is propagated when it is taken,
    and only the variables after its own can still be open."""
    branches = [(masks, -1, 0)]  # (parent masks, variable, value); -1: the root itself
    while branches:
        masks, x, value = branches.pop()
        if x >= 0:
            masks = masks.copy()
            masks[x] = 1 << value
        if not propagate(masks, rows, width, (x,) if x >= 0 else range(len(masks))):
            continue
        for x in range(x + 1, len(masks)):
            mask = masks[x]
            if mask & mask - 1:
                branches.extend((masks, x, v) for v in range(width - 1, -1, -1) if mask >> v & 1)
                break
        else:
            yield masks
