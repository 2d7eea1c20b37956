"""Helpers shared by the tests: brute-force views the library itself does not need."""

from votelab.core import profiles_of_size, signatures_up_to


def profiles_up_to(alphabet, n_max):
    """All profiles with at most ``n_max`` ballots, by size then lexicographic."""
    for size in range(n_max + 1):
        yield from profiles_of_size(alphabet, size)


def table_of(family):
    """A tabulated family's values keyed by signature counts, as a new dict."""
    sigs = signatures_up_to(family.alphabet, family.horizon)
    return dict(zip(sigs, family.value_tuple()))
