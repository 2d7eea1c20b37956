"""Weak-order ballots, social welfare functions, condition checkers, and a
bounded exhaustive search for the impossibility result at desk scale.

Weak orders are total preorders, stored as ordered indifference blocks (best
block first).  Throughout, the pair (a, b) belonging to a social order means
"a is at least as good as b" (weak preference); stances on an ordered pair are
encoded +1 (strictly better), 0 (indifferent), -1 (strictly worse).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

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

    @property
    def alternatives(self) -> frozenset[str]:
        return frozenset(s for block in self.blocks for s in block)

    def level(self, symbol: str) -> int:
        for i, block in enumerate(self.blocks):
            if symbol in block:
                return i
        raise KeyError(symbol)

    def stance(self, a: str, b: str) -> Stance:
        la, lb = self.level(a), self.level(b)
        return (la < lb) - (la > lb)

    def weakly_prefers(self, a: str, b: str) -> bool:
        """(a, b) in the relation: a is at least as good as b."""
        return self.level(a) <= self.level(b)

    def reversed(self) -> "WeakOrder":
        return WeakOrder(tuple(reversed(self.blocks)))

    def __str__(self) -> str:
        return " > ".join(" = ".join(block) for block in self.blocks)


def restrict(order: WeakOrder, a: str, b: str) -> Stance:
    """The order's stance on the pair: +1 a above b, 0 tied, -1 below."""
    if a == b:
        raise ValueError("restriction needs two distinct alternatives")
    return order.stance(a, b)


def enumerate_weak_orders(alternatives: tuple[str, ...]) -> tuple[WeakOrder, ...]:
    """All total preorders on the alternatives, canonically ordered.

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
    """Explicit profile -> order table over all profiles for fixed n."""

    def __init__(self, alternatives: tuple[str, ...], n: int,
                 table: Mapping[ArrowProfile, WeakOrder], descriptor: str | None = None):
        self._values = tuple(table[p] for p in sorted_profiles(alternatives, n))
        if descriptor is None:
            digest = hashlib.sha256("|".join(map(str, self._values)).encode()).hexdigest()[:12]
            descriptor = f"swf:sha256:{digest}"
        super().__init__(alternatives, n, descriptor)
        self.table = dict(table)

    def evaluate(self, profile: ArrowProfile) -> WeakOrder:
        return self.table[profile]

    def value_tuple(self) -> tuple[WeakOrder, ...]:
        """Orders in canonical profile order; the table's identity for sorting."""
        return self._values


@functools.lru_cache(maxsize=None)
def sorted_profiles(alternatives: tuple[str, ...], n: int) -> tuple[ArrowProfile, ...]:
    """All order profiles in canonical enumeration order, built once per domain."""
    orders = enumerate_weak_orders(alternatives)
    return tuple(itertools.product(orders, repeat=n))


def projection_swf(alternatives: tuple[str, ...], n: int, voter: int) -> SWF:
    """The social order is voter's own order: the textbook dictatorship."""
    if not 0 <= voter < n:
        raise ValueError("voter index out of range")
    return FunctionSWF(alternatives, n, lambda x: x[voter], f"projection:{voter}")


def constant_swf(alternatives: tuple[str, ...], n: int, order: WeakOrder) -> SWF:
    return FunctionSWF(alternatives, n, lambda x: order, f"constant:{order}")


def anti_dictator_swf(alternatives: tuple[str, ...], n: int, voter: int) -> SWF:
    """The social order reverses one voter's order; breaks responsiveness."""
    return FunctionSWF(alternatives, n, lambda x: x[voter].reversed(),
                       f"anti-dictator:{voter}")


def borda_swf(alternatives: tuple[str, ...], n: int) -> SWF:
    """Rank by summed Borda scores (ties share the midpoint credit).

    Scores depend on positions relative to every alternative, so the social
    stance on a pair is not a function of the voters' stances on that pair:
    the classic counterexample for pair independence.
    """

    def run(profile: ArrowProfile) -> WeakOrder:
        scores = {
            a: sum(
                2 * sum(1 for b in alternatives if b != a and w.stance(a, b) > 0)
                + sum(1 for b in alternatives if b != a and w.stance(a, b) == 0)
                for w in profile
            )
            for a in alternatives
        }
        levels = sorted(set(scores.values()), reverse=True)
        blocks = tuple(
            tuple(a for a in alternatives if scores[a] == lv) for lv in levels
        )
        return WeakOrder(blocks)

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


def check_a2(swf: SWF) -> ArrowCheckResult:
    """Nonnegative responsiveness: a single voter moving one pair's stance in
    favor of a socially weakly-preferred alternative cannot overturn it."""
    orders = enumerate_weak_orders(swf.alternatives)
    pairs = _unordered_pairs(swf.alternatives)
    checked = 0
    for x in sorted_profiles(swf.alternatives, swf.n):
        checked += 1
        fx = swf.evaluate(x)
        for v in range(swf.n):
            for replacement in orders:
                if replacement == x[v]:
                    continue
                changed = [
                    q for q in pairs
                    if x[v].stance(q[0], q[1]) != replacement.stance(q[0], q[1])
                ]
                if len(changed) != 1:
                    continue
                a, b = changed[0]
                y = x[:v] + (replacement,) + x[v + 1:]
                fy = swf.evaluate(y)
                for hi, lo in ((a, b), (b, a)):
                    # voter moves from weakly-lo-over-hi to weakly-hi-over-lo
                    if x[v].stance(hi, lo) > 0 or replacement.stance(hi, lo) < 0:
                        continue
                    if fx.weakly_prefers(hi, lo) and not fy.weakly_prefers(hi, lo):
                        w = ArrowWitness(
                            x, y, (hi, lo),
                            f"voter {v} moved toward {hi} over {lo} but the social "
                            f"stance dropped it",
                        )
                        return ArrowCheckResult("A2", "fail", w, checked)
    return ArrowCheckResult("A2", "pass", None, checked)


def _pair_factor(swf: SWF, profiles: tuple[ArrowProfile, ...], a: str,
                 b: str) -> tuple[PairTable, tuple[ArrowProfile, ArrowProfile] | None]:
    """The social stance on (a, b) as a table over the voters' stances on the
    pair, or the first two profiles sharing voter stances but not the social one."""
    table: PairTable = {}
    first: dict[tuple[Stance, ...], ArrowProfile] = {}
    for x in profiles:
        key = tuple(w.stance(a, b) for w in x)
        social = swf.evaluate(x).stance(a, b)
        if table.setdefault(key, social) != social:
            return table, (first[key], x)
        first.setdefault(key, x)
    return table, None


def check_a3(swf: SWF) -> ArrowCheckResult:
    """Pair independence: the social stance on a pair depends only on the
    voters' stances on that pair."""
    profiles = sorted_profiles(swf.alternatives, swf.n)
    checked = len(profiles)
    for a, b in _unordered_pairs(swf.alternatives):
        _, conflict = _pair_factor(swf, profiles, a, b)
        if conflict is not None:
            w = ArrowWitness(
                *conflict, (a, b),
                f"same voter stances on ({a}, {b}) but social stance differs",
            )
            return ArrowCheckResult("A3", "fail", w, checked)
    return ArrowCheckResult("A3", "pass", None, checked)


def check_a4(swf: SWF) -> ArrowCheckResult:
    """Non-imposition: every weak social stance is achieved by some profile."""
    profiles = sorted_profiles(swf.alternatives, swf.n)
    checked = len(profiles)
    for a, b in _ordered_pairs(swf.alternatives):
        if not any(swf.evaluate(x).weakly_prefers(a, b) for x in profiles):
            w = ArrowWitness(profiles[0], None, (a, b),
                             f"no profile yields {a} at least as good as {b}")
            return ArrowCheckResult("A4", "fail", w, checked)
    return ArrowCheckResult("A4", "pass", None, checked)


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
    profiles = sorted_profiles(swf.alternatives, swf.n)
    pairs = _ordered_pairs(swf.alternatives)
    for v in range(swf.n):
        ok = True
        for x in profiles:
            fx = swf.evaluate(x)
            for a, b in pairs:
                if premise == "strict":
                    if x[v].stance(a, b) > 0 and fx.stance(a, b) <= 0:
                        ok = False
                        break
                else:
                    if x[v].weakly_prefers(a, b) and not fx.weakly_prefers(a, b):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return v
    return None


def check_a5(swf: SWF, premise: str = "strict") -> ArrowCheckResult:
    """No dictator: fails when some voter's preferences are always honored."""
    profiles = sorted_profiles(swf.alternatives, swf.n)
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
    order = _order_from_ge(alternatives, ge) if transitive else None
    return PairwiseMajorityResult(stances, transitive, order)


def _order_from_ge(alternatives: tuple[str, ...], ge: Callable[[str, str], bool]) -> WeakOrder:
    score = {a: sum(1 for b in alternatives if ge(a, b)) for a in alternatives}
    levels = sorted(set(score.values()), reverse=True)
    return WeakOrder(
        tuple(tuple(a for a in alternatives if score[a] == lv) for lv in levels)
    )


def factor_into_pair_functions(
    swf: SWF,
) -> dict[tuple[str, str], PairTable] | None:
    """Per-pair stance aggregators the SWF factors through, or None.

    The factorization exists exactly when the SWF is pair-independent: the
    social stance on each pair must be constant on profiles sharing that
    pair's per-voter stance vector, and the rebuilt factors then reproduce the
    SWF's stances pointwise.
    """
    profiles = sorted_profiles(swf.alternatives, swf.n)
    factors: dict[tuple[str, str], PairTable] = {}
    for a, b in _unordered_pairs(swf.alternatives):
        factors[(a, b)], conflict = _pair_factor(swf, profiles, a, b)
        if conflict is not None:
            return None
    return factors


# --- exhaustive search over pair-decomposable SWFs -------------------------

_STANCES = (-1, 0, 1)


def _stance_vectors(n: int) -> list[tuple[Stance, ...]]:
    return list(itertools.product(_STANCES, repeat=n))


def _monotone_pair_functions(n: int) -> list[tuple[Stance, ...]]:
    """All monotone stance aggregators attaining both strict stances.

    A pair function maps each vector of per-voter stances to a social stance;
    monotonicity (one voter's stance rising never lowers the social stance) is
    exactly the pair-level content of nonnegative responsiveness, and hitting
    both strict stances is the pair-level content of non-imposition.
    """
    vectors = _stance_vectors(n)
    vec_index = {v: i for i, v in enumerate(vectors)}
    edges = []
    for v in vectors:
        for coord in range(n):
            if v[coord] < 1:
                up = v[:coord] + (v[coord] + 1,) + v[coord + 1:]
                edges.append((vec_index[v], vec_index[up]))
    out = []
    for values in itertools.product(_STANCES, repeat=len(vectors)):
        if 1 not in values or -1 not in values:
            continue
        if all(values[i] <= values[j] for i, j in edges):
            out.append(values)
    return out


def _valid_stance_triples() -> dict[tuple[Stance, Stance, Stance], WeakOrder]:
    """Stance triples on ((a,b), (b,c), (a,c)) that induce a total preorder.

    There are exactly as many as weak orders on three alternatives; the map to
    the induced order is used to assemble search results.
    """
    placeholder = ("a", "b", "c")
    valid = {}
    for sab, sbc, sac in itertools.product(_STANCES, repeat=3):
        stance = {("a", "b"): sab, ("b", "c"): sbc, ("a", "c"): sac}

        def ge(x: str, y: str) -> bool:
            if x == y:
                return True
            if (x, y) in stance:
                return stance[(x, y)] >= 0
            return stance[(y, x)] <= 0

        if all(
            not (ge(x, y) and ge(y, z)) or ge(x, z)
            for x in placeholder for y in placeholder for z in placeholder
        ):
            valid[(sab, sbc, sac)] = _order_from_ge(placeholder, ge)
    return valid


def arrow_search(n: int = 2, alternatives: tuple[str, ...] = ("a", "b", "c")) -> tuple[TabulatedSWF, ...]:
    """All SWFs satisfying soundness, responsiveness, pair independence and
    non-imposition, by per-pair decomposition; desk scale only.

    Pair independence makes every candidate factor into three pair functions;
    responsiveness and non-imposition prune each factor independently; the
    final join keeps exactly the combinations whose induced relation is a
    total preorder on every profile.  Output is canonically sorted and
    independent of processing order.
    """
    if n not in (1, 2) or len(alternatives) != 3:
        raise BoundError("search is desk-scale only: 1 or 2 voters, exactly 3 alternatives")

    a, b, c = alternatives
    valid_triples = _valid_stance_triples()
    rename = {"a": a, "b": b, "c": c}
    triple_order = {
        triple: WeakOrder(tuple(tuple(rename[s] for s in block) for block in order.blocks))
        for triple, order in valid_triples.items()
    }

    vectors = _stance_vectors(n)
    vec_index = {v: i for i, v in enumerate(vectors)}
    candidates = _monotone_pair_functions(n)

    profiles = sorted_profiles(alternatives, n)
    realized = []
    for x in profiles:
        u = vec_index[tuple(w.stance(a, b) for w in x)]
        v = vec_index[tuple(w.stance(b, c) for w in x)]
        t = vec_index[tuple(w.stance(a, c) for w in x)]
        realized.append((u, v, t))
    realized_set = sorted(set(realized))

    # allowed third stances per (first, second) stance pair
    allowed_mask = [[0] * 3 for _ in range(3)]
    for (sab, sbc, sac) in valid_triples:
        allowed_mask[sab + 1][sbc + 1] |= 1 << (sac + 1)

    full_mask = (1 << len(_STANCES)) - 1
    candidate_masks = [
        tuple(1 << (value + 1) for value in cand) for cand in candidates
    ]

    survivors = []
    for p_ab in candidates:
        for p_bc in candidates:
            masks = [full_mask] * len(vectors)
            dead = False
            for (u, v, t) in realized_set:
                masks[t] &= allowed_mask[p_ab[u] + 1][p_bc[v] + 1]
                if masks[t] == 0:
                    dead = True
                    break
            if dead:
                continue
            for k, p_ac in enumerate(candidates):
                mk = candidate_masks[k]
                if all(mk[t] & masks[t] for t in range(len(vectors))):
                    survivors.append((p_ab, p_bc, p_ac))

    tables = []
    for p_ab, p_bc, p_ac in survivors:
        table = {}
        for x, (u, v, t) in zip(profiles, realized):
            table[x] = triple_order[(p_ab[u], p_bc[v], p_ac[t])]
        tables.append(TabulatedSWF(alternatives, n, table))

    order_index = {w: i for i, w in enumerate(enumerate_weak_orders(alternatives))}
    unique = {t.value_tuple(): t for t in tables}  # equal values: equal tables
    return tuple(sorted(unique.values(),
                        key=lambda s: tuple(order_index[w] for w in s.value_tuple())))
