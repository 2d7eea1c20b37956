"""Golden report documents for small bounds, compared byte for byte."""

import hashlib
import pathlib

import pytest

from votelab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "enumerate_2alts_h2.json": ["enumerate", "--alternatives", "2", "--horizon", "2"],
    "may_n2_in_favor.json": ["may", "--voters", "2", "--semantics", "in-favor"],
    "audit_quorum_literal3.json": ["audit", "--rule", "quorum:literal:3",
                                   "--alternatives", "2", "--max-voters", "5",
                                   "--axioms", "C2-C6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name, tmp_path):
    out = str(tmp_path / name)
    main(CASES[name] + ["--out", out])
    assert open(out, "rb").read() == (GOLDEN / name).read_bytes()


# The arrow-search document (136 survivors, 3.6 MB) is pinned by its digest.
ARROW_SEARCH_SHA256 = "acdbbf48e37f0d70175ce16ac94bc97f9f5e34150bb7194b4205275470904ba4"


def test_arrow_search_document(tmp_path):
    out = tmp_path / "arrow_search.json"
    main(["arrow-search", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ARROW_SEARCH_SHA256
