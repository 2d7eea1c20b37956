"""``arrow_search`` by constraint propagation, held to the pair-function join
it replaced (n = 1, 2) and to certificates checked on its survivors (n = 3).

``old_search`` below is that join, kept as an independent oracle: every
monotone pair function attaining both strict stances is listed by brute force,
and the survivors are the (ab, bc, ac) combinations inducing a weak order on
every profile.  The n = 3 survivors are certified on their own pair functions:
each is pair independent, has the same strict dictator on all three pairs,
and merging its voters 1 and 2 gives an n = 2 survivor (Tang and Lin's voter
reduction).
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import arrow, core
from votelab.arrow import (
    TabulatedSWF,
    arrow_search,
    enumerate_weak_orders,
    find_dictator,
    sorted_profiles,
)
from votelab.core import BoundError

ALTS = ("a", "b", "c")
ALTERNATIVE_NAMES = [("a", "b", "c"), ("c", "a", "b"), ("x", "y", "z")]
STANCES = (-1, 0, 1)


# --- the oracle: the pair-function join --------------------------------------------


def old_monotone_pair_functions(n):
    vectors = list(itertools.product(STANCES, repeat=n))
    vec_index = {v: i for i, v in enumerate(vectors)}
    edges = []
    for v in vectors:
        for coord in range(n):
            if v[coord] < 1:
                up = v[:coord] + (v[coord] + 1,) + v[coord + 1:]
                edges.append((vec_index[v], vec_index[up]))
    out = []
    for values in itertools.product(STANCES, repeat=len(vectors)):
        if 1 not in values or -1 not in values:
            continue
        if all(values[i] <= values[j] for i, j in edges):
            out.append(values)
    return out


def old_search(n, alternatives):
    """(value tuple, descriptor) of every survivor, in the search's order."""
    a, b, c = alternatives
    orders = enumerate_weak_orders(alternatives)
    triple_order = {(w.stance(a, b), w.stance(b, c), w.stance(a, c)): w for w in orders}
    vectors = list(itertools.product(STANCES, repeat=n))
    vec_index = {v: i for i, v in enumerate(vectors)}
    candidates = old_monotone_pair_functions(n)
    realized = [tuple(vec_index[tuple(w.stance(*q) for w in x)]
                      for q in ((a, b), (b, c), (a, c)))
                for x in sorted_profiles(alternatives, n)]
    realized_set = sorted(set(realized))
    allowed_mask = [[0] * 3 for _ in range(3)]
    for sab, sbc, sac in triple_order:
        allowed_mask[sab + 1][sbc + 1] |= 1 << (sac + 1)
    candidate_masks = [tuple(1 << (value + 1) for value in cand) for cand in candidates]
    survivors = []
    for p_ab in candidates:
        for p_bc in candidates:
            masks = [7] * len(vectors)
            dead = False
            for u, v, t in realized_set:
                masks[t] &= allowed_mask[p_ab[u] + 1][p_bc[v] + 1]
                if masks[t] == 0:
                    dead = True
                    break
            if dead:
                continue
            for k, p_ac in enumerate(candidates):
                if all(candidate_masks[k][t] & masks[t] for t in range(len(vectors))):
                    survivors.append((p_ab, p_bc, p_ac))
    tables = {tuple(triple_order[(p_ab[u], p_bc[v], p_ac[t])] for u, v, t in realized)
              for p_ab, p_bc, p_ac in survivors}
    out = sorted(tables, key=lambda values: tuple(orders.index(w) for w in values))
    return [(values, "swf:sha256:" + hashlib.sha256(
        "|".join(map(str, values)).encode()).hexdigest()[:12]) for values in out]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alternatives", ALTERNATIVE_NAMES)
def test_search_matches_the_pair_join(alternatives, n):
    got = [(s.value_tuple(), s.descriptor) for s in arrow_search(n, alternatives)]
    assert got == old_search(n, alternatives)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alternatives", [ALTS, ("x", "yy", "zzz")])
def test_survivors_are_the_tables_the_constructor_builds(alternatives, n):
    """Survivors are built from the search's index bytes; names of unequal
    length check that the descriptor text is the join of the labels."""
    for s in arrow_search(n, alternatives):
        built = TabulatedSWF(alternatives, n, s.value_tuple())
        assert s.value_tuple() == built.value_tuple()
        assert s._indices == built._indices is not None
        text = b"|".join(str(w).encode() for w in s.value_tuple())
        assert s.descriptor == built.descriptor == (
            "swf:sha256:" + hashlib.sha256(text).hexdigest()[:12])


def test_bounds_are_checked_before_any_table_is_built():
    before = arrow._tables.cache_info()
    for n, alternatives in ((4, ALTS), (0, ALTS), (True, ALTS), (2.0, ALTS), (-1, ALTS),
                            ("2", ALTS), (2, ("a", "b")), (3, ("a", "b", "c", "d"))):
        with pytest.raises(BoundError):
            arrow_search(n, alternatives)
    assert arrow._tables.cache_info() == before


# --- the propagator, against brute force ----------------------------------------------


@st.composite
def constraint_problems(draw):
    """Masks over 3 or 4 values, with listed constraints over 2-3 variables and
    "not all" constraints over 2-4."""
    width = draw(st.sampled_from((3, 4)))
    size = draw(st.integers(2, 5))
    masks = draw(st.lists(st.integers(1, (1 << width) - 1), min_size=size, max_size=size))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        order = draw(st.permutations(range(size)))
        if draw(st.booleans()):
            variables = tuple(order[:draw(st.integers(2, 3))])
            space = list(itertools.product(range(width), repeat=len(variables)))
            allowed = draw(st.lists(st.sampled_from(space), min_size=1, unique=True))
            constraints.append(("listed", variables, tuple(allowed)))
        else:
            variables = tuple(order[:draw(st.integers(2, min(4, size)))])
            constraints.append(("not_all", variables, draw(st.integers(0, width - 1))))
    return width, masks, constraints


def holds(kind, values, arg):
    return values in arg if kind == "listed" else any(v != arg for v in values)


def posted(masks, constraints, width):
    """The watch of ``constraints``, posted in order."""
    watch = [[] for _ in masks]
    for kind, variables, arg in constraints:
        supports = (core.listed(arg, width) if kind == "listed"
                    else core.not_all(arg, len(variables), width))
        core.post(watch, variables, supports)
    return watch


@settings(max_examples=200, deadline=None)
@given(constraint_problems())
def test_solutions_match_brute_force(problem):
    width, masks, constraints = problem
    watch = posted(masks, constraints, width)
    got = sorted(tuple(m.bit_length() - 1 for m in solution)
                 for solution in core.solutions(list(masks), core.rows(watch), width))
    want = [values for values in itertools.product(range(width), repeat=len(masks))
            if all(m >> v & 1 for m, v in zip(masks, values))
            and all(holds(kind, tuple(values[x] for x in variables), arg)
                    for kind, variables, arg in constraints)]
    assert got == want


def test_a_unary_constraint_is_refused():
    # a lone variable has no other to watch it, so its row would never be filed
    watch = [[], []]
    with pytest.raises(ValueError):
        core.post(watch, (0,), core.listed(((1,),), 3))
    assert watch == [[], []]


def generic_propagate(masks, watch, width, changed):
    """``core.propagate`` before its rows were compiled by arity: one loop
    over every row of a watch, kept as the reference for the compiled rows."""
    stack = list(changed)
    while stack:
        for x, others, support in watch[stack.pop()]:
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


@settings(max_examples=300, deadline=None)
@given(constraint_problems(), st.data())
def test_compiled_rows_propagate_as_the_generic_loop(problem, data):
    width, masks, constraints = problem
    watch = posted(masks, constraints, width)
    changed = data.draw(st.lists(st.sampled_from(range(len(masks))), unique=True))
    got = list(masks)
    result = core.propagate(got, core.rows(watch), width, changed)
    # the same rows in the compiled order (binary, ternary, wider) take the
    # same steps, so even a wipeout leaves the same masks
    by_arity = [sorted(w, key=lambda row: min(len(row[1]), 3)) for w in watch]
    want = list(masks)
    assert result == generic_propagate(want, by_arity, width, changed)
    assert got == want
    # in filing order the steps differ, but the outcome and a fixpoint do not
    filed = list(masks)
    assert result == generic_propagate(filed, watch, width, changed)
    if result:
        assert got == filed


@pytest.mark.parametrize("v", range(3))
def test_a_ternary_row_keys_its_first_other_most_significant(v):
    # only (0, 1, 2) is allowed: with the others' masks swapped in the key,
    # the singleton propagated from would have no support
    watch = [[] for _ in range(3)]
    core.post(watch, (0, 1, 2), core.listed(((0, 1, 2),), 3))
    masks = [7, 7, 7]
    masks[v] = 1 << v
    assert core.propagate(masks, core.rows(watch), 3, (v,))
    assert masks == [1, 2, 4]


@settings(max_examples=100, deadline=None)
@given(constraint_problems())
def test_rows_are_tuples_and_leave_the_watch_alone(problem):
    width, masks, constraints = problem
    watch = posted(masks, constraints, width)
    before = [list(w) for w in watch]
    rows = core.rows(watch)
    assert watch == before

    def tuples(value):
        return isinstance(value, int) or isinstance(value, tuple) and all(map(tuples, value))

    assert tuples(rows)


def old_solutions(masks, rows, width, changed=None):
    """The recursive search core ``core.solutions`` replaced, kept as the
    reference for its order."""
    if not core.propagate(masks, rows, width,
                          range(len(masks)) if changed is None else changed):
        return
    x = next((x for x, m in enumerate(masks) if m & m - 1), None)
    if x is None:
        yield masks
        return
    for value in range(width):
        if masks[x] >> value & 1:
            yield from old_solutions(masks[:x] + [1 << value] + masks[x + 1:], rows, width, (x,))


@settings(max_examples=200, deadline=None)
@given(constraint_problems())
def test_solutions_come_in_the_recursive_order_which_is_lexicographic(problem):
    width, masks, constraints = problem
    watch = posted(masks, constraints, width)
    rows = core.rows(watch)
    got = [list(solution) for solution in core.solutions(list(masks), rows, width)]
    assert got == [list(solution) for solution in old_solutions(list(masks), rows, width)]
    values = [tuple(m.bit_length() - 1 for m in solution) for solution in got]
    assert values == sorted(set(values))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_not_all_supports_match_brute_force(data):
    width = data.draw(st.sampled_from((3, 4)))
    arity = data.draw(st.integers(2, 4))
    value = data.draw(st.integers(0, width - 1))
    others = data.draw(st.lists(st.integers(1, (1 << width) - 1),
                                min_size=arity - 1, max_size=arity - 1))
    key = 0
    for m in others:
        key = key << width | m
    choices = [[v for v in range(width) if m >> v & 1] for m in others]
    # the constraint is symmetric, so every variable has the same support
    want = sum(1 << v for v in range(width)
               if any(v != value or any(o != value for o in rest)
                      for rest in itertools.product(*choices)))
    assert [support[key] for support in core.not_all(value, arity, width)] == [want] * arity


# --- n = 3: pins and certificates ---------------------------------------------------


class PairFunctions:
    """Reads a survivor's social stance on (a,b), (b,c) and (a,c) as a function
    of the voters' stances on that pair, for one voter count.  Stance vectors
    are coded by their index in ``vectors``, and stances and codes are kept as
    bytes, so that a survivor is read by ``bytes.translate``."""

    def __init__(self, n):
        self.orders = enumerate_weak_orders(ALTS)
        self.index = {w: i for i, w in enumerate(self.orders)}
        self.by_id, self.seen = {}, []
        pairs = (("a", "b"), ("b", "c"), ("a", "c"))
        self.vectors = list(itertools.product(STANCES, repeat=n))
        code = {s: i for i, s in enumerate(self.vectors)}
        profiles = sorted_profiles(ALTS, n)
        # per pair: each profile's stance vector code, and one profile per code
        self.keys = [bytes(code[tuple(w.stance(*q) for w in x)] for x in profiles)
                     for q in pairs]
        self.first = [[keys.index(i) for i in range(len(self.vectors))] for keys in self.keys]
        # per pair: order index -> social stance + 1, as a translate table
        self.stance_of = [bytes(w.stance(*q) + 1 for w in self.orders).ljust(256, b"\0")
                          for q in pairs]

    def __call__(self, swf):
        """Per pair, {voter stances: social stance}; asserts that the social
        stance depends on nothing else."""
        values = swf.value_tuple()
        try:  # each distinct order object is looked up by value once
            codes = bytes(map(self.by_id.__getitem__, map(id, values)))
        except KeyError:
            for i, w in dict(zip(map(id, values), values)).items():
                self.by_id[i] = self.index[w]
                self.seen.append(w)  # kept alive, so its id is not reused
            codes = bytes(map(self.by_id.__getitem__, map(id, values)))
        functions = []
        for keys, first, stance_of in zip(self.keys, self.first, self.stance_of):
            social = codes.translate(stance_of)
            g = bytes(map(social.__getitem__, first))
            assert keys.translate(g.ljust(256, b"\0")) == social
            functions.append({s: value - 1 for s, value in zip(self.vectors, g)})
        return functions


def strict_dictators(functions, n):
    """Voters v with g(s) = s_v whenever s_v != 0, on all three pairs."""
    return [v for v in range(n)
            if all(social == s[v] for g in functions for s, social in g.items() if s[v])]


@pytest.fixture(scope="module")
def survivors3():
    return arrow_search(3, ALTS)


@pytest.fixture(scope="module")
def functions3(survivors3):
    read = PairFunctions(3)
    return [read(swf) for swf in survivors3]


# sha256 over the n = 3 survivors' descriptors, one per line, in search order
SURVIVORS3_SHA256 = "c80ca9313e3613b674c4bdede32b5d1fa84d81548b0f0cb43e063ba70bc96690"


def test_three_voter_pins(survivors3):
    assert len(survivors3) == 3543
    descriptors = "\n".join(s.descriptor for s in survivors3)
    assert hashlib.sha256(descriptors.encode()).hexdigest() == SURVIVORS3_SHA256
    orders = enumerate_weak_orders(ALTS)
    keys = [tuple(orders.index(w) for w in s.value_tuple()) for s in survivors3[::350]]
    assert keys == sorted(set(keys))


def test_every_three_voter_survivor_has_a_strict_dictator(survivors3, functions3):
    dictators = [strict_dictators(g, 3) for g in functions3]
    assert all(dictators)
    assert [find_dictator(swf) for swf in survivors3] == [d[0] for d in dictators]


def test_merging_two_voters_gives_a_two_voter_survivor(functions3):
    read = PairFunctions(2)
    two = {tuple(tuple(sorted(g.items())) for g in read(swf))
           for swf in arrow_search(2, ALTS)}
    for functions in functions3:
        merged = tuple(tuple(sorted((s, g[(s[0], s[1], s[1])])
                                    for s in itertools.product(STANCES, repeat=2)))
                       for g in functions)
        assert merged in two
