import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab.core import (
    PROFILE_BUDGET,
    Alphabet,
    AltPermutation,
    BoundError,
    Profile,
    VoterPermutation,
    apply_alt_permutation,
    apply_voter_permutation,
    compositions,
    extend,
    profile_budget,
    signature,
    signatures_up_to,
    strict_plurality,
    tally,
)

from helpers import profiles_up_to

AB2 = Alphabet.make(2)
AB3 = Alphabet.make(3)
MAY = Alphabet.may()


def prof(*ballots, alphabet=AB2):
    return Profile(alphabet, tuple(ballots))


def counts_by_symbol(t):
    """A tally's counts keyed by every symbol."""
    return dict(zip(t.alphabet.alternatives, t.counts))


class TestAlphabet:
    def test_make(self):
        assert AB2.alternatives == ("a", "b", "_")
        assert AB2.bot == "_"
        assert AB2.non_bot == ("a", "b")

    def test_non_bot_is_stored_once(self):
        alphabet = Alphabet(("x", "-", "y"), "-")
        assert alphabet.non_bot == ("x", "y")
        assert alphabet.non_bot is alphabet.non_bot
        # a stored field, but no part of the value
        assert repr(alphabet) == "Alphabet(alternatives=('x', '-', 'y'), bot='-')"
        assert alphabet == Alphabet(("x", "-", "y"), "-")
        assert hash(alphabet) == hash(Alphabet(("x", "-", "y"), "-"))

    def test_may(self):
        assert set(MAY.alternatives) == {"-1", "0", "1"}
        assert MAY.bot == "0"

    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a", "_"), "_")

    def test_rejects_missing_bot(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "b"), "_")

    def test_rejects_bot_only(self):
        with pytest.raises(ValueError):
            Alphabet(("_",), "_")

    @pytest.mark.parametrize("count", [0, 27, True, 2.0, "2"], ids=repr)
    def test_make_refuses_a_count_that_is_not_an_int_from_1_to_26(self, count):
        with pytest.raises(ValueError, match="between 1 and 26"):
            Alphabet.make(count)


class TestTally:
    def test_direct_count(self):
        t = tally(prof("a", "a", "b", "_"))
        assert counts_by_symbol(t) == {"a": 2, "b": 1, "_": 1}

    def test_empty_profile(self):
        t = tally(prof())
        assert counts_by_symbol(t) == {"a": 0, "b": 0, "_": 0}

    def test_may_alphabet(self):
        t = tally(Profile(MAY, ("1", "1", "-1", "0")))
        assert counts_by_symbol(t) == {"1": 2, "-1": 1, "0": 1}

    def test_counts_sum_to_size(self):
        for p in profiles_up_to(AB3, 4):
            assert sum(tally(p).counts) == len(p)


class TestAltPermutation:
    def test_swap(self):
        swap = AltPermutation.swap(AB2, "a", "b")
        assert apply_alt_permutation(prof("a", "b", "_"), swap).ballots == ("b", "a", "_")

    def test_identity(self):
        ident = AltPermutation.identity(AB2)
        for p in profiles_up_to(AB2, 3):
            assert apply_alt_permutation(p, ident) == p

    def test_must_fix_bot(self):
        with pytest.raises(ValueError):
            AltPermutation(AB2, ("a", "_", "b"))

    def test_tally_commutes_with_relabeling(self):
        # brute force over all profiles of size <= 4 and all tie-fixing relabelings
        perms = [
            AltPermutation.from_non_bot_images(AB2, images)
            for images in itertools.permutations(AB2.non_bot)
        ]
        for p in profiles_up_to(AB2, 4):
            t = tally(p)
            for perm in perms:
                relabeled = tally(apply_alt_permutation(p, perm))
                for s in AB2.alternatives:
                    assert relabeled.count(perm.apply(s)) == t.count(s)


class TestVoterPermutation:
    def test_transposition(self):
        perm = VoterPermutation((1, 0))
        assert apply_voter_permutation(prof("a", "b"), perm).ballots == ("b", "a")

    def test_identity(self):
        for p in profiles_up_to(AB2, 3):
            assert apply_voter_permutation(p, VoterPermutation.identity(len(p))) == p

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_voter_permutation(prof("a", "b"), VoterPermutation((0,)))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            VoterPermutation((0, 0))

    def test_tally_invariant(self):
        # brute force over all small profiles and all reorderings
        for p in profiles_up_to(AB2, 4):
            for mapping in itertools.permutations(range(len(p))):
                q = apply_voter_permutation(p, VoterPermutation(mapping))
                assert tally(q) == tally(p)


class TestExtend:
    def test_append_bot(self):
        assert extend(prof("a", "b"), "_").ballots == ("a", "b", "_")

    def test_append_to_empty(self):
        assert extend(prof(), "a").ballots == ("a",)

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            extend(prof("a"), "z")

    def test_repeated_extension_grows_count(self):
        # mirrors the equalization stage of the consistency argument
        p = prof("a", "a", "a", "b")
        k = tally(p).count("a") - tally(p).count("b")
        q = p
        for _ in range(k):
            q = extend(q, "b")
        assert tally(q).count("b") == tally(p).count("b") + k
        assert tally(q).count("a") == tally(q).count("b")


class TestSignature:
    def test_erases_bot(self):
        assert dict(zip(AB2.non_bot, signature(prof("a", "a", "b", "_", "_")))) == {"a": 2, "b": 1}

    def test_all_bot(self):
        assert signature(prof("_", "_")) == (0, 0)

    def test_classes_closed_under_moves(self):
        # group all profiles of size <= 3 by signature and verify each class is
        # closed under ballot reorderings and tie-ballot insertion
        classes: dict[tuple[int, ...], set[tuple[str, ...]]] = {}
        for p in profiles_up_to(AB2, 3):
            classes.setdefault(signature(p), set()).add(p.ballots)
        for counts, members in classes.items():
            for ballots in members:
                p = Profile(AB2, ballots)
                for mapping in itertools.permutations(range(len(p))):
                    q = apply_voter_permutation(p, VoterPermutation(mapping))
                    assert signature(q) == counts
                assert signature(extend(p, "_")) == counts
        # signature class sizes for two alternatives, size <= 3
        assert len(classes) == len(signatures_up_to(AB2, 3))


class TestCanonicalOrder:
    def test_signatures_match_filtered_product_order(self):
        for k in range(1, 4):
            alphabet = Alphabet.make(k)
            for h in range(7):
                old = [
                    counts
                    for total in range(h + 1)
                    for counts in itertools.product(range(total + 1), repeat=k)
                    if sum(counts) == total
                ]
                assert list(signatures_up_to(alphabet, h)) == old

    def test_compositions_match_count_triples(self):
        for n in range(7):
            old = [(m, z, n - m - z) for m in range(n + 1) for z in range(n - m + 1)]
            assert list(compositions(n, 3)) == old

    def test_signatures_are_a_cached_tuple(self):
        sigs = signatures_up_to(AB3, 4)
        assert isinstance(sigs, tuple)
        assert signatures_up_to(AB3, 4) is sigs
        assert signatures_up_to(Alphabet.make(3), 4) is sigs


class TestProfileBudget:
    def test_counts_every_size_touched(self):
        assert profile_budget(AB2, 3, range(4)) == 1 + 3 + 9 + 27
        assert profile_budget(Alphabet.may(), 4, range(4, 5)) == 81
        # 3 alternatives at n=8 with the C6 probes at n=9 is admitted
        assert profile_budget(AB3, 8, range(10)) == 349_525 <= PROFILE_BUDGET

    def test_refuses_over_budget_and_negative_bounds(self):
        with pytest.raises(BoundError):
            profile_budget(AB3, 9, range(11))
        with pytest.raises(BoundError):
            profile_budget(AB2, 10**12, range(10**12 + 1))
        with pytest.raises(BoundError):
            profile_budget(Alphabet.may(), 10**12, range(10**12, 10**12 + 1))
        for bound in (-1, True, 2.0, "2"):
            with pytest.raises(BoundError):
                profile_budget(AB2, bound, range(1))


class TestStrictPlurality:
    def test_bot_excluded_from_comparison(self):
        assert strict_plurality(tally(prof(*(["a"] * 2 + ["b"] + ["_"] * 5)))) == "a"

    def test_top_tie_is_none(self):
        assert strict_plurality(tally(prof("a", "b"))) is None

    def test_all_zero_is_none(self):
        assert strict_plurality(tally(prof())) is None
        assert strict_plurality(tally(prof("_", "_"))) is None


def test_invariants_exhaustive_three_alternatives():
    # the stated invariants, brute-forced over a three-alternative alphabet
    perms = [
        AltPermutation.from_non_bot_images(AB3, images)
        for images in itertools.permutations(AB3.non_bot)
    ]
    for p in profiles_up_to(AB3, 3):
        t = tally(p)
        assert sum(t.counts) == len(p)
        assert strict_plurality(tally(extend(p, "_"))) == strict_plurality(t)
        assert signature(extend(p, "_")) == signature(p)
        for mapping in itertools.permutations(range(len(p))):
            assert signature(apply_voter_permutation(p, VoterPermutation(mapping))) == signature(p)
        for perm in perms:
            relabeled = tally(apply_alt_permutation(p, perm))
            for s in AB3.alternatives:
                assert relabeled.count(perm.apply(s)) == t.count(s)


# hypothesis strategies for random small profiles over up to 3 alternatives

alphabets = st.sampled_from([AB2, AB3, MAY])


@st.composite
def random_profiles(draw, max_size=5):
    alphabet = draw(alphabets)
    size = draw(st.integers(0, max_size))
    ballots = tuple(
        draw(st.sampled_from(alphabet.alternatives)) for _ in range(size)
    )
    return Profile(alphabet, ballots)


@settings(max_examples=200)
@given(random_profiles())
def test_tally_total_matches_size(p):
    assert sum(tally(p).counts) == len(p)


@settings(max_examples=200)
@given(random_profiles(), st.randoms())
def test_signature_invariant_under_reordering_and_bot(p, rng):
    mapping = list(range(len(p)))
    rng.shuffle(mapping)
    q = apply_voter_permutation(p, VoterPermutation(tuple(mapping)))
    assert signature(q) == signature(p)
    assert signature(extend(p, p.alphabet.bot)) == signature(p)


@settings(max_examples=200)
@given(random_profiles())
def test_strict_plurality_invariant_under_bot_extension(p):
    assert strict_plurality(tally(extend(p, p.alphabet.bot))) == strict_plurality(tally(p))


@settings(max_examples=200)
@given(random_profiles(), st.randoms())
def test_relabeling_relabels_tally(p, rng):
    non_bot = list(p.alphabet.non_bot)
    images = non_bot[:]
    rng.shuffle(images)
    perm = AltPermutation.from_non_bot_images(p.alphabet, tuple(images))
    relabeled = tally(apply_alt_permutation(p, perm))
    for s in p.alphabet.alternatives:
        assert relabeled.count(perm.apply(s)) == tally(p).count(s)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Alphabet.make(2, bot="a"), ValueError, "collides with a generated alternative"),
    (lambda: AltPermutation(AB2, ("a", "a", "_")), ValueError, "not a bijection"),
    (lambda: apply_alt_permutation(Profile(AB2, ("a",)), AltPermutation.swap(AB3, "a", "b")),
     ValueError, "permutation alphabet differs"),
], ids=["colliding-tie-symbol", "non-bijective-permutation", "permutation-of-another-alphabet"])
def test_refusals_raise_their_class(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert raised.type is error
