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


# The audit at the profile budget's bound for 3 alternatives (n=8, C2-C6;
# 349,525 profiles) is pinned by its digest.
BUDGET_AUDIT_SHA256 = "31c7b32c5efbc9e93c465381c0c00985eb7a8644eb7a23192e182ad07e638c2a"


def test_budget_sized_audit_document(tmp_path):
    out = tmp_path / "audit_budget.json"
    assert main(["audit", "--rule", "pure-majority", "--alternatives", "3",
                 "--max-voters", "8", "--axioms", "C2-C6", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUDGET_AUDIT_SHA256
