"""Weak-order ballots, social welfare functions, condition checkers, and a
bounded exhaustive search for the impossibility result at desk scale.

Weak orders are total preorders, stored as ordered indifference blocks (best
block first).  Throughout, the pair (a, b) belonging to a social order means
"a is at least as good as b" (weak preference); stances on an ordered pair are
encoded +1 (strictly better), 0 (indifferent), -1 (strictly worse).

The checkers read per-domain order tables, built once per (alternatives, n) on
first use: the weak orders and their index, each order's stance on every
ordered pair, each order's single-pair-change neighbours with the (hi, lo)
moves that responsiveness tests, each order's premise pairs under either
dictator premise, and per ordered pair each profile's stance vector code (base
3, digit stance + 1, voter 0 the most significant), read by A3 and
``arrow_search``.  A profile is addressed by its base-m code (m weak orders,
voter 0 the most significant digit: the order of ``sorted_profiles``), so
voter v switching from order i to order j leads from ``code`` to
``code + (j - i)*m^(n-1-v)``.  A ``TabulatedSWF`` is read by code and never
evaluated; any other SWF is evaluated on each profile once during one check,
when its code is first read, in the order in which a per-profile loop would
first evaluate it.  Its answer is found in the index by equality; a
``WeakOrder`` outside the index (blocks listed in another order, other
alternatives) is read through ``WeakOrder.stance`` pair by pair, so verdicts
and raised errors do not depend on the tables.  An answer that is not a
``WeakOrder`` is read through its ``stance`` too, so ``None`` raises
AttributeError on its first stance read.  A domain of more than
``core.PROFILE_BUDGET`` profiles raises BoundError before any table is built.

A ``TabulatedSWF`` is its orders' indices, one byte per code: its constructor
finds each value in the index and refuses any other value; its orders are read
from the bytes when asked for, and its ``evaluate`` computes a profile's code
from the index, sum of index[x_v]*m^(n-1-v), and builds no table.  For a table
``find_dictator`` decides, and ``check_a2`` screens, with whole-column set
operations over three more tables, built on first use: per dictator premise,
the (voter order, social order) index pairs, of the m x m, in which the social
order honours every premise pair of the voter's; per voter, the voter's order
index at every code; and per voter, the codes grouped by that voter's order,
so that a single-pair move i -> j takes group i to group j position by
position, with per move the (social before, social after) index pairs that
drop a moved-toward pair.  A failed screen falls back to the per-code loop,
which gives the witness and ``profiles_checked``.  ``arrow_search``'s survivors
carry the search's own index bytes.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import core
from .core import BoundError

Stance = int  # +1, 0, -1
PairTable = dict[tuple[Stance, ...], Stance]  # voters' stances -> social stance


@dataclass(frozen=True)
class WeakOrder:
    """Total preorder as an ordered partition into indifference blocks."""

    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("indifference blocks must be nonempty")
            for sym in block:
                if sym in seen:
                    raise ValueError(f"alternative {sym!r} appears in two blocks")
                seen.add(sym)
        object.__setattr__(self, "_hash", hash((self.blocks,)))  # not rebuilt per lookup

    def __hash__(self) -> int:
        return self._hash

    @property
    def alternatives(self) -> frozenset[str]:
        return frozenset(s for block in self.blocks for s in block)

    @functools.cached_property
    def _levels(self) -> dict[str, int]:
        """Each alternative's block index, built on first use."""
        return {s: i for i, block in enumerate(self.blocks) for s in block}

    def level(self, symbol: str) -> int:
        """The index of the symbol's block; KeyError(symbol) outside the order."""
        return self._levels[symbol]

    def stance(self, a: str, b: str) -> Stance:
        """The order's stance on the pair: +1 a above b, 0 tied, -1 below."""
        if a == b:
            raise ValueError("a stance needs two distinct alternatives")
        levels = self._levels
        la, lb = levels[a], levels[b]
        return (la < lb) - (la > lb)

    def weakly_prefers(self, a: str, b: str) -> bool:
        """(a, b) in the relation: a is at least as good as b."""
        return self.level(a) <= self.level(b)

    def reversed(self) -> "WeakOrder":
        return WeakOrder(tuple(reversed(self.blocks)))

    def __str__(self) -> str:
        return " > ".join(" = ".join(block) for block in self.blocks)


@functools.lru_cache(maxsize=None)
def enumerate_weak_orders(alternatives: tuple[str, ...]) -> tuple[WeakOrder, ...]:
    """All total preorders on the alternatives, canonically ordered, built
    once per alternatives tuple.

    Blocks keep the alternatives' given order internally; orders are produced
    by choosing the best block first, preferring smaller blocks, then earlier
    alternatives.
    """
    if not alternatives:
        raise ValueError("need at least one alternative")
    if len(set(alternatives)) != len(alternatives):
        raise ValueError("alternatives must be distinct")

    def build(remaining: tuple[str, ...]) -> Iterable[tuple[tuple[str, ...], ...]]:
        if not remaining:
            yield ()
            return
        for size in range(1, len(remaining) + 1):
            for block in itertools.combinations(remaining, size):
                rest = tuple(s for s in remaining if s not in block)
                for tail in build(rest):
                    yield (block,) + tail

    return tuple(WeakOrder(blocks) for blocks in build(alternatives))


ArrowProfile = tuple[WeakOrder, ...]


class SWF:
    """Social welfare function for a fixed voter count and alternative set."""

    _indices: bytes | None = None  # a TabulatedSWF's order index at every code

    def __init__(self, alternatives: tuple[str, ...], n: int, descriptor: str):
        self.alternatives = alternatives
        self.n = n
        self.descriptor = descriptor

    def evaluate(self, profile: ArrowProfile) -> WeakOrder:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.descriptor}>"


class FunctionSWF(SWF):
    def __init__(self, alternatives: tuple[str, ...], n: int,
                 fn: Callable[[ArrowProfile], WeakOrder], descriptor: str):
        super().__init__(alternatives, n, descriptor)
        self._fn = fn

    def evaluate(self, profile: ArrowProfile) -> WeakOrder:
        return self._fn(profile)


class TabulatedSWF(SWF):
    """Explicit order table over every profile for fixed n.

    The table is one byte per profile, in ``sorted_profiles`` order: the index
    of its social order among the domain's weak orders.  ``evaluate`` finds a
    profile's code from the order index of the domain's order tables (see the
    module docstring), which every table of the domain shares.  Every value
    must equal one of the domain's orders; anything else raises ValueError, as
    does a domain of more than 256 orders.
    """

    def __init__(self, alternatives: tuple[str, ...], n: int,
                 values: Sequence[WeakOrder], descriptor: str | None = None):
        if len(alternatives) > 4:  # 541 weak orders on 5 alternatives: over a byte
            raise ValueError(f"a table holds one byte per profile, so at most 256 weak "
                             f"orders; {len(alternatives)} alternatives have more")
        domain = _tables(alternatives, n)
        if len(values) != len(domain.profiles):
            raise ValueError(f"a table over {n} voters needs one order for each of "
                             f"{len(domain.profiles)} profiles, got {len(values)}")
        found = list(map(domain.find, values))
        if None in found:
            code = found.index(None)
            raise ValueError(f"the value at profile code {code}, {values[code]!r}, is "
                             f"not one of the weak orders on {alternatives}")
        self._fill(alternatives, n, bytes(found), descriptor)

    @classmethod
    def _of_indices(cls, alternatives: tuple[str, ...], n: int, indices: bytes) -> TabulatedSWF:
        """The table of the domain's orders at ``indices`` (one byte per code), as
        the constructor builds it from those orders, without finding them again."""
        swf = cls.__new__(cls)
        swf._fill(alternatives, n, indices, None)
        return swf

    def _fill(self, alternatives: tuple[str, ...], n: int, indices: bytes,
              descriptor: str | None) -> None:
        domain = _tables(alternatives, n)
        self._orders, self._domain, self._indices = domain.orders, domain, indices
        if descriptor is None:
            text = domain.label_text(indices)
            descriptor = f"swf:sha256:{hashlib.sha256(text).hexdigest()[:12]}"
        super().__init__(alternatives, n, descriptor)

    def evaluate(self, profile: ArrowProfile) -> WeakOrder:
        """The order at code sum of index[x_v]*m^(n-1-v); raises as a dict lookup would."""
        index, weights = self._domain.index, self._domain.weights
        if tuple.__len__(profile) != len(weights):  # TypeError unless a tuple
            raise KeyError(profile)
        return self._orders[self._indices[sum(index[x] * w for x, w in zip(profile, weights))]]

    def value_tuple(self) -> tuple[WeakOrder, ...]:
        """Orders in canonical profile order; the table's identity for sorting."""
        return tuple(map(self._orders.__getitem__, self._indices))


@functools.lru_cache(maxsize=None, typed=True)
def sorted_profiles(alternatives: tuple[str, ...], n: int) -> tuple[ArrowProfile, ...]:
    """All order profiles in canonical enumeration order, built once per domain.
    A voter count that is not a non-negative int, or over ``core.PROFILE_BUDGET``
    profiles (m^n, m weak orders), raises BoundError before any is built."""
    if type(n) is not int or n < 0:
        raise BoundError(f"voter count {n!r} is not a non-negative int")
    orders = enumerate_weak_orders(alternatives)
    if core.profile_count(len(orders), n) > core.PROFILE_BUDGET:
        raise BoundError(f"{n} voters over {len(orders)} weak orders exceed the budget "
                         f"of {core.PROFILE_BUDGET} profiles")
    return tuple(itertools.product(orders, repeat=n))


def projection_swf(alternatives: tuple[str, ...], n: int, voter: int) -> SWF:
    """The social order is voter's own order: the textbook dictatorship."""
    if type(voter) is not int or not 0 <= voter < n:
        raise ValueError("voter index out of range")
    return FunctionSWF(alternatives, n, lambda x: x[voter], f"projection:{voter}")


def constant_swf(alternatives: tuple[str, ...], n: int, order: WeakOrder) -> SWF:
    return FunctionSWF(alternatives, n, lambda x: order, f"constant:{order}")


def anti_dictator_swf(alternatives: tuple[str, ...], n: int, voter: int) -> SWF:
    """The social order reverses one voter's order; breaks responsiveness."""
    own = projection_swf(alternatives, n, voter).evaluate  # refuses another voter
    return FunctionSWF(alternatives, n, lambda x: own(x).reversed(), f"anti-dictator:{voter}")


def _order_by_score(alternatives: tuple[str, ...], score: Mapping[str, int]) -> WeakOrder:
    """Higher scores first, equal scores in one block, in the alternatives' order."""
    levels = sorted(set(score.values()), reverse=True)
    return WeakOrder(tuple(tuple(a for a in alternatives if score[a] == lv) for lv in levels))


def borda_swf(alternatives: tuple[str, ...], n: int) -> SWF:
    """Rank by summed Borda scores (ties share the midpoint credit).

    Scores depend on positions relative to every alternative, so the social
    stance on a pair is not a function of the voters' stances on that pair:
    the classic counterexample for pair independence.
    """

    def run(profile: ArrowProfile) -> WeakOrder:
        # per voter: 2 per alternative in a lower block, 1 per other in its own
        scores = dict.fromkeys(alternatives, 0)
        for w in profile:
            levels = [w.level(a) for a in alternatives]
            for a, la in zip(alternatives, levels):
                scores[a] += 2 * sum(map(la.__lt__, levels)) + levels.count(la) - 1
        return _order_by_score(alternatives, scores)

    return FunctionSWF(alternatives, n, run, "borda")


@dataclass(frozen=True)
class ArrowWitness:
    profile: ArrowProfile
    other: ArrowProfile | None
    pair: tuple[str, str] | None
    detail: str


@dataclass(frozen=True)
class ArrowCheckResult:
    condition: str
    status: str  # "pass" | "fail"
    witness: ArrowWitness | None = None
    profiles_checked: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _ordered_pairs(alternatives: tuple[str, ...]) -> list[tuple[str, str]]:
    return [(a, b) for a in alternatives for b in alternatives if a != b]


def _unordered_pairs(alternatives: tuple[str, ...]) -> list[tuple[str, str]]:
    return list(itertools.combinations(alternatives, 2))


# --- order tables -------------------------------------------------------------

_Row = Sequence[Stance]  # a social order's stance on every ordered pair
_PREMISE_FLOOR = {"strict": 1, "weak": 0}  # least stance a premise pair needs


class _OrderTables:
    """What the checkers read about the weak orders on ``alternatives`` and the
    order profiles of ``n`` voters; see the module docstring."""

    def __init__(self, alternatives: tuple[str, ...], n: int):
        self.profiles = sorted_profiles(alternatives, n)  # first: it checks the budget
        self.orders = enumerate_weak_orders(alternatives)
        self.index = {w: i for i, w in enumerate(self.orders)}
        labels = zip(*(str(w).encode() for w in self.orders))  # by column, for descriptors
        self.label_columns = tuple(bytes(column).ljust(256, b"\0") for column in labels)
        self.pairs = tuple(_ordered_pairs(alternatives))
        self.pair_index = {q: p for p, q in enumerate(self.pairs)}
        self.stances = tuple(tuple(w.stance(a, b) for a, b in self.pairs) for w in self.orders)
        # per order: (replacement, ordered pairs (hi, lo) the voter moves
        # toward hi) for every replacement that changes one unordered pair only
        both_ways = [(self.pair_index[(a, b)], self.pair_index[(b, a)])
                     for a, b in _unordered_pairs(alternatives)]
        neighbours = []
        for si in self.stances:
            neighbours.append([])
            for j, sj in enumerate(self.stances):
                changed = [q for q in both_ways if si[q[0]] != sj[q[0]]]
                if len(changed) == 1:  # never the order itself
                    # from weakly-lo-over-hi to weakly-hi-over-lo
                    moves = tuple(p for p in changed[0] if si[p] <= 0 and sj[p] >= 0)
                    neighbours[-1].append((j, moves))
        self.neighbours = tuple(map(tuple, neighbours))
        # per premise: each order's premise pairs
        self.premises = {
            premise: tuple(tuple(p for p, s in enumerate(row) if s >= floor)
                           for row in self.stances)
            for premise, floor in _PREMISE_FLOOR.items()
        }
        self.weights = tuple(len(self.orders) ** (n - 1 - v) for v in range(n))
        # per ordered pair, per code: the voters' stance vector code on the pair
        vectors = []
        for p in range(len(self.pairs)):
            codes = [0]
            for _ in range(n):
                codes = [c * 3 + row[p] + 1 for c in codes for row in self.stances]
            vectors.append(tuple(codes))
        self.vectors = tuple(vectors)

    def find(self, order: object) -> int | None:
        """The index of the order it equals; None outside the index."""
        try:
            return self.index.get(order)
        except TypeError:  # unhashable, so not an indexed order
            return None

    def label_text(self, indices: bytes) -> bytearray:
        """The labels of the orders at ``indices`` joined by "|", a column at a time:
        every label has each alternative once and 3-character separators, so one width."""
        step = len(self.label_columns) + 1
        text = bytearray(b"|" * (len(indices) * step - 1))
        for c, column in enumerate(self.label_columns):
            text[c::step] = indices.translate(column)
        return text

    # --- read by some checks only, so built on first use ---------------------

    @functools.cached_property
    def honours(self) -> dict[str, frozenset[tuple[int, int]]]:
        """Per premise: the (voter order, social order) index pairs in which
        the social order honours every premise pair of the voter's."""
        return {premise: frozenset((i, j) for i, own in enumerate(self.premises[premise])
                                   for j, row in enumerate(self.stances)
                                   if all(row[p] >= floor for p in own))
                for premise, floor in _PREMISE_FLOOR.items()}

    @functools.cached_property
    def voter_orders(self) -> tuple[bytes, ...]:
        """Per voter: the voter's order index at every code."""
        m, n = len(self.orders), len(self.weights)
        return tuple(map(bytes, zip(*itertools.product(range(m), repeat=n))))

    @functools.cached_property
    def grouped(self) -> tuple[tuple[int, ...], ...]:
        """Per voter: the codes sorted by the voter's order, then by code.  Group
        i (m^(n-1) codes) holds the profiles in which the voter has order i, and
        the voter moving to order j takes group i to group j position by position."""
        codes = range(len(self.profiles))
        return tuple(tuple(sorted(codes, key=column.__getitem__)) for column in self.voter_orders)

    @functools.cached_property
    def moves(self) -> tuple[tuple[slice, slice, frozenset[tuple[int, int]]], ...]:
        """Per single-pair move i -> j with a moved-toward pair: the slices of
        groups i and j, and the (social before, social after) index pairs that
        drop a moved-toward pair."""
        size = len(self.profiles) // len(self.orders)
        return tuple(
            (slice(i * size, (i + 1) * size), slice(j * size, (j + 1) * size),
             frozenset((s, t) for s, before in enumerate(self.stances)
                       for t, after in enumerate(self.stances)
                       if any(before[p] >= 0 and after[p] < 0 for p in moved)))
            for i, neighbours in enumerate(self.neighbours)
            for j, moved in neighbours if moved
        )


_tables = functools.lru_cache(maxsize=None, typed=True)(_OrderTables)


class _ForeignStances:
    """Stance row of a social order outside the order index, read pair by pair
    through ``WeakOrder.stance``."""

    __slots__ = ("order", "pairs")

    def __init__(self, order: WeakOrder, pairs: tuple[tuple[str, str], ...]):
        self.order = order
        self.pairs = pairs

    def __getitem__(self, p: int) -> Stance:
        return self.order.stance(*self.pairs[p])


def _social(swf: SWF, tables: _OrderTables) -> Callable[[int], _Row]:
    """The stance row of the SWF's order at a profile code: by index for a
    ``TabulatedSWF``, else found by evaluating the SWF the first time the code
    is read and kept for the rest of the check."""
    profiles, find, known = tables.profiles, tables.find, tables.stances
    indices = swf._indices
    if indices is not None:
        return lambda code: known[indices[code]]
    rows: list[_Row | None] = [None] * len(profiles)

    def read(code: int) -> _Row:
        row = rows[code]
        if row is None:
            order = swf.evaluate(profiles[code])
            i = find(order)
            row = known[i] if i is not None else _ForeignStances(order, tables.pairs)
            rows[code] = row
        return row

    return read


# --- checkers -------------------------------------------------------------------


def check_a2(swf: SWF) -> ArrowCheckResult:
    """Nonnegative responsiveness: a single voter moving one pair's stance in
    favor of a socially weakly-preferred alternative cannot overturn it."""
    domain = _tables(swf.alternatives, swf.n)
    if swf._indices is not None and _responsive(swf._indices, domain):
        return ArrowCheckResult("A2", "pass", None, len(domain.profiles))
    read = _social(swf, domain)
    neighbours, weights = domain.neighbours, domain.weights
    for code, x in enumerate(itertools.product(range(len(domain.orders)), repeat=swf.n)):
        fx = read(code)
        for v, i in enumerate(x):
            for j, moves in neighbours[i]:
                other = code + (j - i) * weights[v]
                fy = read(other)
                for p in moves:
                    if fx[p] >= 0 and fy[p] < 0:
                        hi, lo = domain.pairs[p]
                        w = ArrowWitness(
                            domain.profiles[code], domain.profiles[other], (hi, lo),
                            f"voter {v} moved toward {hi} over {lo} but the social "
                            f"stance dropped it",
                        )
                        return ArrowCheckResult("A2", "fail", w, code + 1)
    return ArrowCheckResult("A2", "pass", None, len(domain.profiles))


def _responsive(indices: bytes, tables: _OrderTables) -> bool:
    """No single-pair move of any voter drops a moved-toward pair, screened
    group against group (see ``_OrderTables.grouped``)."""
    for codes in tables.grouped:
        column = bytes([indices[code] for code in codes])
        for before, after, drops in tables.moves:
            if not drops.isdisjoint(zip(column[before], column[after])):
                return False
    return True


def _pair_factor(read: Callable[[int], _Row], tables: _OrderTables,
                 p: int) -> tuple[dict[int, Stance], tuple[int, int] | None]:
    """The social stance on ordered pair p as a table over the voters' stance
    vector codes on the pair, or the codes of the first two profiles sharing
    voter stances but not the social one."""
    table: dict[int, Stance] = {}
    first: dict[int, int] = {}
    for code, key in enumerate(tables.vectors[p]):
        social = read(code)[p]
        if table.setdefault(key, social) != social:
            return table, (first[key], code)
        first.setdefault(key, code)
    return table, None


def check_a3(swf: SWF) -> ArrowCheckResult:
    """Pair independence: the social stance on a pair depends only on the
    voters' stances on that pair."""
    domain = _tables(swf.alternatives, swf.n)
    read = _social(swf, domain)
    for a, b in _unordered_pairs(swf.alternatives):
        _, conflict = _pair_factor(read, domain, domain.pair_index[(a, b)])
        if conflict is not None:
            w = ArrowWitness(
                *(domain.profiles[code] for code in conflict), (a, b),
                f"same voter stances on ({a}, {b}) but social stance differs",
            )
            return ArrowCheckResult("A3", "fail", w, len(domain.profiles))
    return ArrowCheckResult("A3", "pass", None, len(domain.profiles))


def check_a4(swf: SWF) -> ArrowCheckResult:
    """Non-imposition: every weak social stance is achieved by some profile."""
    domain = _tables(swf.alternatives, swf.n)
    read = _social(swf, domain)
    codes = range(len(domain.profiles))
    for p, (a, b) in enumerate(domain.pairs):
        if not any(read(code)[p] >= 0 for code in codes):
            w = ArrowWitness(domain.profiles[0], None, (a, b),
                             f"no profile yields {a} at least as good as {b}")
            return ArrowCheckResult("A4", "fail", w, len(domain.profiles))
    return ArrowCheckResult("A4", "pass", None, len(domain.profiles))


def find_dictator(swf: SWF, premise: str = "strict") -> int | None:
    """Least voter whose preferences the social order always honors, if any.

    ``strict``: every strict preference of the voter is reproduced strictly.
    ``weak``: every weak preference is reproduced weakly.  The strict reading
    is the classical dictator notion and the default; serial (lexicographic)
    dictatorships have a strict dictator but no weak one, so the two variants
    genuinely differ.
    """
    if premise not in ("strict", "weak"):
        raise ValueError(f"unknown dictator premise {premise!r}")
    domain = _tables(swf.alternatives, swf.n)
    if swf._indices is not None:
        honoured = domain.honours[premise]
        for v, own in enumerate(domain.voter_orders):
            if honoured.issuperset(zip(own, swf._indices)):
                return v
        return None
    read = _social(swf, domain)
    floor = _PREMISE_FLOOR[premise]
    premises = domain.premises[premise]
    for v in range(swf.n):
        for code, x in enumerate(itertools.product(range(len(domain.orders)), repeat=swf.n)):
            fx = read(code)
            if any(fx[p] < floor for p in premises[x[v]]):
                break
        else:
            return v
    return None


def check_a5(swf: SWF, premise: str = "strict") -> ArrowCheckResult:
    """No dictator: fails when some voter's preferences are always honored."""
    profiles = _tables(swf.alternatives, swf.n).profiles
    v = find_dictator(swf, premise)
    if v is None:
        return ArrowCheckResult("A5", "pass", None, len(profiles))
    w = ArrowWitness(profiles[0], None, None, f"voter {v} is a dictator ({premise})")
    return ArrowCheckResult("A5", "fail", w, len(profiles))


@dataclass(frozen=True)
class PairwiseMajorityResult:
    """Majority stance per pair, with the induced relation's transitivity."""

    stances: Mapping[tuple[str, str], Stance]  # keyed by canonical unordered pair
    transitive: bool
    order: WeakOrder | None  # present exactly when the relation is a preorder

    def stance(self, a: str, b: str) -> Stance:
        if (a, b) in self.stances:
            return self.stances[(a, b)]
        return -self.stances[(b, a)]


def pairwise_majority_swf(
    profile: ArrowProfile, alternatives: tuple[str, ...]
) -> PairwiseMajorityResult:
    """Pairwise majority of strict stances; reports rather than hides cycles."""
    stances: dict[tuple[str, str], Stance] = {}
    for a, b in _unordered_pairs(alternatives):
        margin = sum(w.stance(a, b) for w in profile)
        stances[(a, b)] = (margin > 0) - (margin < 0)

    def ge(a: str, b: str) -> bool:
        if a == b:
            return True
        s = stances[(a, b)] if (a, b) in stances else -stances[(b, a)]
        return s >= 0

    transitive = all(
        not (ge(a, b) and ge(b, c)) or ge(a, c)
        for a in alternatives for b in alternatives for c in alternatives
    )
    score = {a: sum(ge(a, b) for b in alternatives) for a in alternatives}
    order = _order_by_score(alternatives, score) if transitive else None
    return PairwiseMajorityResult(stances, transitive, order)


def factor_into_pair_functions(
    swf: SWF,
) -> dict[tuple[str, str], PairTable] | None:
    """Per-pair stance aggregators the SWF factors through, or None.

    The factorization exists exactly when the SWF is pair-independent: the
    social stance on each pair must be constant on profiles sharing that
    pair's per-voter stance vector, and the rebuilt factors then reproduce the
    SWF's stances pointwise.
    """
    domain = _tables(swf.alternatives, swf.n)
    read = _social(swf, domain)
    vectors = tuple(itertools.product((-1, 0, 1), repeat=swf.n))  # the vector at each code
    factors: dict[tuple[str, str], dict[int, Stance]] = {}
    for a, b in _unordered_pairs(swf.alternatives):
        factors[(a, b)], conflict = _pair_factor(read, domain, domain.pair_index[(a, b)])
        if conflict is not None:
            return None
    return {q: {vectors[key]: s for key, s in table.items()} for q, table in factors.items()}


# --- exhaustive search over pair-decomposable SWFs -------------------------

_MONOTONE = tuple((lo, hi) for lo in range(3) for hi in range(lo, 3))  # value bits
# per weight 9, 3, 1: a one-bit stance mask (1, 2, 4) -> weight * (stance + 1)
_SOCIAL = tuple(bytes((0, 0, w, 0, 2 * w)).ljust(256, b"\0") for w in (9, 3, 1))


@functools.lru_cache(maxsize=None)
def _search_network(alternatives: tuple[str, ...], n: int) -> tuple[
        tuple[int, ...], core.Rows, tuple[bytes, ...], bytes]:
    """:func:`arrow_search`'s root masks and rows, each pair's stance vector code
    per profile, and the order index of each stance triple code."""
    domain = _tables(alternatives, n)
    a, b, c = alternatives
    pairs = [domain.pair_index[q] for q in ((a, b), (b, c), (a, c))]
    # variable k*size + s: pair k's stance at stance vector code s (``_OrderTables.vectors``)
    size = 3 ** n
    watch: core.Watch = [[] for _ in range(3 * size)]
    for x in range(3 * size):  # monotone: one voter's stance up one step
        for step in (3 ** v for v in range(n)):
            if x // step % 3 < 2:
                core.post(watch, (x, x + step), core.listed(_MONOTONE, 3))
    # each profile's three social stances are one weak order's
    triples = tuple(tuple(row[p] + 1 for p in pairs) for row in domain.stances)
    # per pair: each profile's stance vector code, a byte since n <= 3
    keys = [bytes(domain.vectors[p]) for p in pairs]
    for s_ab, s_bc, s_ac in zip(*keys):
        core.post(watch, (s_ab, size + s_bc, 2 * size + s_ac), core.listed(triples, 3))
    masks = ([1] + [7] * (size - 2) + [4]) * 3  # non-imposition: f(-1...) = -1, f(+1...) = +1
    # 9*(ab+1) + 3*(bc+1) + (ac+1) -> order index; 255, no order's, elsewhere
    order_at = bytearray(b"\xff" * 256)
    for i, (ab, bc, ac) in enumerate(triples):
        order_at[9 * ab + 3 * bc + ac] = i
    return tuple(masks), core.rows(watch), tuple(keys), bytes(order_at)


def arrow_search(n: int = 2, alternatives: tuple[str, ...] = ("a", "b", "c")) -> tuple[TabulatedSWF, ...]:
    """All SWFs satisfying soundness, responsiveness, pair independence and
    non-imposition, by constraint propagation; desk scale only, 1 to 3 voters,
    a fixed bound: its cost grows with the solutions listed, not with profiles.

    Pair independence makes every candidate factor into three pair functions
    on ((a,b), (b,c), (a,c)): one variable per pair and stance vector, a mask
    over the stances (bit stance + 1).  Responsiveness makes each pair function
    monotone (one voter's stance rising never lowers the social stance); under
    that, non-imposition is exactly f(all +1) = +1 and f(all -1) = -1; and on
    every profile the three social stances must be one weak order's.  Output
    is canonically sorted and independent of processing order.  The network is
    built once per domain, on first use, and shared by later calls in the
    process.
    """
    if type(n) is not int or n not in (1, 2, 3) or len(alternatives) != 3:
        raise BoundError("search is desk-scale only: 1 to 3 voters, exactly 3 alternatives")
    masks, rows, keys, order_at = _search_network(alternatives, n)
    size = 3 ** n
    found = set()  # each solution's social order index on every profile
    for m in core.solutions(list(masks), rows, 3):
        # per pair, each profile's social stance + 1, times 9, 3 or 1, by
        # translating its stance vector code; the three are added as
        # big-endian integers, byte by byte since no byte's sum exceeds 26
        code = 0
        for k, (key, table) in enumerate(zip(keys, _SOCIAL)):
            social = bytes(m[k * size:(k + 1) * size]).translate(table)
            code += int.from_bytes(key.translate(social.ljust(256, b"\0")), "big")
        found.add(code.to_bytes(len(keys[0]), "big").translate(order_at))
    # bytes of order indices sort as the tuples of them do; a 255 raises
    return tuple(TabulatedSWF._of_indices(alternatives, n, key) for key in sorted(found))
