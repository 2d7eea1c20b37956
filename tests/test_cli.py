import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votelab import cli
from votelab.arrow import WeakOrder, enumerate_weak_orders
from votelab.core import (
    Alphabet, Profile, RuleDomainError, extend, profiles_of_size, signatures_up_to,
)
from votelab.enumeration import enumerate_c_families
from votelab.cli import (
    BallotParseError,
    family_from_json,
    family_json,
    format_rank_line,
    main,
    parse_axiom_list,
    parse_ballot_file,
    parse_rule,
    render_document,
)
from votelab.rules import TabulatedFamily, pure_majority_table

AB2 = Alphabet.make(2)


def format_ballot_file(alphabet, ballots):
    header = f"alternatives: {','.join(alphabet.alternatives)} bot: {alphabet.bot}"
    return "\n".join([header, *ballots]) + "\n"


def parse_rank_text(text, alphabet):
    """One rank line, read through a ballot file over ``alphabet``."""
    mode, _, orders = parse_ballot_file(format_ballot_file(alphabet, (text,)))
    assert mode == "ranks" and len(orders) == 1
    return orders[0]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SIMPLE = "alternatives: a,b,_ bot: _\na\na\nb\n_\n"


def family_text(horizon, count, **fields):
    """Pure majority's family file at the horizon, its counts passed through
    ``count`` and the given top-level fields replaced."""
    doc = family_json(pure_majority_table(AB2, horizon))
    doc["entries"] = [[list(map(count, counts)), value] for counts, value in doc["entries"]]
    return json.dumps({**doc, **fields})


class TestBallotFiles:
    def test_single_choice(self):
        mode, alphabet, ballots = parse_ballot_file(SIMPLE)
        assert mode == "choices"
        assert alphabet == AB2
        assert ballots == ("a", "a", "b", "_")

    def test_comments_and_blank_lines(self):
        text = "# heading\n\nalternatives: a,b,_ bot: _\n# a comment\na\n\nb\n"
        _, _, ballots = parse_ballot_file(text)
        assert ballots == ("a", "b")

    def test_bot_appended_when_missing_from_list(self):
        mode, alphabet, _ = parse_ballot_file("alternatives: a,b bot: _\na\n")
        assert alphabet == AB2

    def test_custom_bot_spelling(self):
        _, alphabet, ballots = parse_ballot_file(
            "alternatives: yes,no,abstain bot: abstain\nyes\nabstain\n"
        )
        assert alphabet.bot == "abstain"
        assert ballots == ("yes", "abstain")

    def test_undeclared_symbol_names_line(self):
        with pytest.raises(BallotParseError) as err:
            parse_ballot_file("alternatives: a,b,_ bot: _\na\nzz\n")
        assert "line 3" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(BallotParseError):
            parse_ballot_file("# nothing else\n")

    def test_rank_mode(self):
        text = "alternatives: a,b,c,_ bot: _\nrank: a > b = c\nrank: c > a > b\n"
        mode, alphabet, orders = parse_ballot_file(text)
        assert mode == "ranks"
        assert [str(o) for o in orders] == ["a > b = c", "c > a > b"]

    def test_rank_requires_all_alternatives(self):
        with pytest.raises(BallotParseError):
            parse_ballot_file("alternatives: a,b,c,_ bot: _\nrank: a > b\n")

    def test_rank_rejects_duplicates_with_line_number(self):
        with pytest.raises(BallotParseError) as err:
            parse_ballot_file("alternatives: a,b,c,_ bot: _\nrank: a > a > b\n")
        assert "line 2" in str(err.value)

    def test_mixed_modes_rejected(self):
        with pytest.raises(BallotParseError):
            parse_ballot_file("alternatives: a,b,_ bot: _\na\nrank: a > b\n")

    def test_round_trip(self):
        mode, alphabet, ballots = parse_ballot_file(SIMPLE)
        again = parse_ballot_file(format_ballot_file(alphabet, ballots))
        assert again == (mode, alphabet, ballots)

    def test_rank_round_trip(self):
        text = "alternatives: a,b,c,_ bot: _\nrank: b = c > a\n"
        _, alphabet, orders = parse_ballot_file(text)
        line = format_rank_line(orders[0])
        assert parse_rank_text(line, alphabet) == orders[0]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_rank_line_round_trips(self, k):
        # every weak order on k alternatives, each block listed in every order
        alphabet = Alphabet.make(k)
        checked = 0
        for order in enumerate_weak_orders(alphabet.non_bot):
            for blocks in itertools.product(*map(itertools.permutations, order.blocks)):
                w = WeakOrder(blocks)
                line = format_rank_line(w)
                assert parse_rank_text(line, alphabet) == w
                assert format_rank_line(parse_rank_text(line, alphabet)) == line
                checked += 1
        assert checked == {2: 4, 3: 24, 4: 192}[k]  # k! * 2^(k-1)


class TestDescriptors:
    def test_known_descriptors(self):
        for d in (
            "pure-majority",
            "may-sign",
            "quorum:literal:3",
            "quorum:participation:2",
            "supermajority:all:1/2",
            "supermajority:nonbot:2/3",
        ):
            rule = parse_rule(d, AB2)
            assert rule.descriptor == d

    def test_bad_descriptors(self):
        from votelab.core import RuleDomainError

        for d in ("majority", "quorum:3", "quorum:literal:x",
                  "supermajority:all:0.5", "supermajority:most:1/2"):
            with pytest.raises(RuleDomainError):
                parse_rule(d, AB2)

    def test_tabulated_file(self, tmp_path):
        fam = pure_majority_table(AB2, 3)
        path = write(tmp_path, "fam.json", json.dumps(family_json(fam)))
        rule = parse_rule(f"tabulated:{path}", AB2)
        assert rule.evaluate(Profile(AB2, ("a", "a", "b"))) == "a"

    def test_family_json_round_trip(self):
        fam = pure_majority_table(AB2, 4)
        assert family_from_json(family_json(fam)) == fam

    def test_a_document_missing_a_canonical_key_is_malformed(self):
        doc = family_json(pure_majority_table(AB2, 2))
        del doc["entries"][3]
        with pytest.raises(RuleDomainError, match="^malformed tabulated family document: "):
            family_from_json(doc)

    @pytest.mark.parametrize("k, horizon", [(2, h) for h in range(7)] + [(3, h) for h in range(5)])
    def test_family_entries_are_the_signatures_with_their_values(self, k, horizon):
        alphabet = Alphabet.make(k)
        for fam in enumerate_c_families(alphabet, horizon).families:
            assert family_json(fam)["entries"] == [
                (sig, value)
                for sig, value in zip(signatures_up_to(alphabet, horizon), fam.value_tuple())
            ]

    def test_equal_cells_are_one_object_across_families(self):
        docs = [family_json(f) for f in enumerate_c_families(Alphabet.make(3), 3).families]
        for doc in docs[1:]:
            for cell, first in zip(doc["entries"], docs[0]["entries"]):
                assert (cell is first) == (cell == first)

    def test_mutating_a_family_document_changes_no_later_one(self):
        fam = pure_majority_table(AB2, 3)
        expected = json.dumps(family_json(fam))
        doc = family_json(fam)
        doc["entries"][0] = ((9, 9), "z")
        doc["entries"].append(doc["entries"][1])
        doc["alternatives"].append("z")
        assert json.dumps(family_json(fam)) == expected

    def test_enumerate_shares_one_alternatives_list(self, monkeypatch):
        emitted = []
        monkeypatch.setattr(cli, "_emit", lambda doc, out: emitted.append(doc))
        assert main(["enumerate", "--alternatives", "3", "--horizon", "3"]) == 0
        lists = [f["alternatives"] for f in emitted[0]["families"]]
        assert lists[0] == ["a", "b", "c", "_"]
        assert all(alternatives is lists[0] for alternatives in lists)


class TestAxiomLists:
    def test_ranges_and_lists(self):
        assert parse_axiom_list("C2-C5") == ("C2", "C3", "C4", "C5")
        assert parse_axiom_list("c2,c6") == ("C2", "C6")
        assert parse_axiom_list("Ma2-Ma4") == ("MA2", "MA3", "MA4")
        assert parse_axiom_list("TIE_CLOSURE,C5") == ("C5", "TIE_CLOSURE")

    def test_bad_lists(self):
        from votelab.core import VoteLabError

        for bad in ("", "C9", "C5-C2", "C2-MA4"):
            with pytest.raises(VoteLabError):
                parse_axiom_list(bad)


class TestEvalCommand:
    def test_conclusive(self, tmp_path, capsys):
        path = write(tmp_path, "p.txt", SIMPLE)
        assert main(["eval", "--rule", "pure-majority", "--profile", path]) == 0
        assert capsys.readouterr().out.strip() == "a"

    def test_quorum_prints_tie_symbol(self, tmp_path, capsys):
        path = write(tmp_path, "p.txt", "alternatives: a,b,_ bot: _\na\na\n")
        assert main(["eval", "--rule", "quorum:literal:3", "--profile", path]) == 0
        assert capsys.readouterr().out.strip() == "_"

    def test_may_sign(self, tmp_path, capsys):
        path = write(tmp_path, "p.txt", "alternatives: -1,0,1 bot: 0\n1\n1\n-1\n")
        assert main(["eval", "--rule", "may-sign", "--profile", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "p.txt", "alternatives: a,b,_ bot: _\nzz\n")
        assert main(["eval", "--rule", "pure-majority", "--profile", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["eval", "--rule", "pure-majority", "--profile", "nope.txt"]) == 2

    def test_rank_file_rejected_by_eval(self, tmp_path, capsys):
        path = write(tmp_path, "p.txt",
                     "alternatives: a,b,c,_ bot: _\nrank: a > b > c\n")
        assert main(["eval", "--rule", "pure-majority", "--profile", path]) == 2

    @pytest.mark.parametrize("ballots, rule, family, message", [
        ("alternatives a,b,_\na\n", "pure-majority", None, "line 1: header must be"),
        ("alternatives: , bot: _\na\n", "pure-majority", None, "declares no alternatives"),
        ("alternatives: a,b bot:\na\n", "pure-majority", None, "declares no tie symbol"),
        ("alternatives: a,a,_ bot: _\na\n", "pure-majority", None, "pairwise distinct"),
        ("alternatives: a,b,_ bot: _\na b\n", "pure-majority", None,
         "line 2: a ballot line holds exactly one symbol"),
        ("alternatives: a,b,_ bot: _\na\nrank: a > b\n", "pure-majority", None,
         "line 3: cannot mix rank and single-choice ballots"),
        ("alternatives: a,b,_ bot: _\nrank:\n", "pure-majority", None, "empty rank line"),
        ("alternatives: a,b,_ bot: _\nrank: a > > b\n", "pure-majority", None,
         "malformed rank line"),
        ("alternatives: a,b,_ bot: _\nrank: a > _\n", "pure-majority", None,
         "rank symbol '_' must be a declared non-tie alternative"),
        (SIMPLE, "supermajority:all:1/0", None, "bad supermajority quota '1/0'"),
        ("alternatives: a,b,c,_ bot: _\na\n", "tabulated:{family}", "pure-majority",
         "tabulated family alphabet differs"),
        (SIMPLE, "tabulated:{family}", "missing", "cannot read tabulated family file"),
        (SIMPLE, "tabulated:{family}", "{not json", "tabulated family file is not valid JSON"),
        (SIMPLE, "tabulated:{family}", '{"schema": 1}', "malformed tabulated family document"),
        (SIMPLE, "tabulated:{family}", family_text(1, bool),
         "malformed tabulated family document: signature counts must be ints"),
        (SIMPLE, "tabulated:{family}", family_text(2, float),
         "malformed tabulated family document: signature counts must be ints"),
        (SIMPLE, "tabulated:{family}", family_text(2, int, schema=99),
         "malformed tabulated family document: expected schema 1"),
        (SIMPLE, "tabulated:{family}", family_text(2, int, kind="something-else"),
         "malformed tabulated family document: expected schema 1"),
    ], ids=["header-syntax", "no-alternatives", "no-tie-symbol", "repeated-symbol",
            "two-symbols", "rank-after-choices", "empty-rank", "malformed-rank",
            "tie-in-rank", "supermajority-quota", "family-alphabet", "family-missing",
            "family-not-json", "family-lacks-key", "family-bool-counts",
            "family-float-counts", "family-other-schema", "family-other-kind"])
    def test_input_errors_exit_2_and_name_the_problem(self, tmp_path, capsys, ballots, rule,
                                                      family, message):
        fam_path = str(tmp_path / "fam.json")
        if family == "pure-majority":
            write(tmp_path, "fam.json", json.dumps(family_json(pure_majority_table(AB2, 2))))
        elif family not in (None, "missing"):
            write(tmp_path, "fam.json", family)
        path = write(tmp_path, "p.txt", ballots)
        assert main(["eval", "--rule", rule.format(family=fam_path), "--profile", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_horizon_error_exits_3(self, tmp_path, capsys):
        fam = pure_majority_table(AB2, 2)
        fam_path = write(tmp_path, "fam.json", json.dumps(family_json(fam)))
        prof_path = write(tmp_path, "p.txt", "alternatives: a,b,_ bot: _\na\na\nb\n")
        code = main(["eval", "--rule", f"tabulated:{fam_path}", "--profile", prof_path])
        assert code == 3


class TestAuditCommand:
    def test_pass_exits_0(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["audit", "--rule", "pure-majority", "--alternatives", "2",
                     "--max-voters", "5", "--axioms", "C2-C6", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["schema"] == 1
        assert all(r["status"] == "pass" for r in doc["results"])

    def test_fail_exits_1_with_witness(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["audit", "--rule", "supermajority:all:1/2", "--alternatives", "2",
                     "--max-voters", "5", "--axioms", "C2-C5", "--out", out])
        assert code == 1
        doc = json.loads(open(out).read())
        failures = [r for r in doc["results"] if r["status"] == "fail"]
        assert failures and all(r["witness"] is not None for r in failures)

    def test_may_audit(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["audit", "--rule", "may-sign", "--max-voters", "4",
                     "--axioms", "MA2-MA4", "--out", out])
        assert code == 0

    def test_may_audit_flip_semantics(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["audit", "--rule", "may-sign", "--max-voters", "4",
                     "--axioms", "MA4", "--ma4-semantics", "flip", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["parameters"]["ma4_semantics"] == "flip"

    def test_witness_round_trip(self, tmp_path):
        out = str(tmp_path / "r.json")
        main(["audit", "--rule", "quorum:literal:3", "--alternatives", "2",
              "--max-voters", "5", "--axioms", "C4", "--out", out])
        doc = json.loads(open(out).read())
        witness = doc["results"][0]["witness"]
        alphabet = Alphabet(tuple(doc["bounds"]["alternatives"]), doc["bounds"]["bot"])
        rule = parse_rule(doc["parameters"]["rule"], alphabet)
        base_text = format_ballot_file(alphabet, tuple(witness["profile"]))
        _, parsed_alphabet, ballots = parse_ballot_file(base_text)
        base = Profile(parsed_alphabet, ballots)
        moved = Profile(parsed_alphabet, tuple(witness["moved_to"]))
        assert rule.evaluate(base) == witness["expected"]
        assert rule.evaluate(moved) == witness["observed"]

    def test_bad_axioms_exit_2(self, capsys):
        assert main(["audit", "--rule", "pure-majority", "--max-voters", "3",
                     "--axioms", "C9"]) == 2


class TestBoundsAndDocs:
    def test_enumerate_bound_exits_3(self):
        assert main(["enumerate", "--horizon", "99"]) == 3

    def test_enumerate_with_one_alternative_exits_2(self, capsys, tmp_path):
        out = tmp_path / "e.json"
        assert main(["enumerate", "--alternatives", "1", "--horizon", "2",
                     "--out", str(out)]) == 2
        assert "at least 2 non-tie alternatives" in capsys.readouterr().err
        assert not out.exists()

    def test_may_bound_exits_3(self):
        assert main(["may", "--voters", "12"]) == 3

    def test_negative_audit_bound_exits_3_without_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["audit", "--rule", "pure-majority", "--max-voters", "-1",
                     "--out", str(out)]) == 3
        assert not out.exists()
        # C4, C5 and TIE_CLOSURE have nothing to extend at 0: no vacuous pass
        for axiom in ("C4", "C5", "TIE_CLOSURE"):
            assert main(["audit", "--rule", "pure-majority", "--alternatives", "2",
                         "--max-voters", "0", "--axioms", axiom, "--out", str(out)]) == 3
            assert not out.exists()
        assert main(["audit", "--rule", "pure-majority", "--max-voters", "0",
                     "--out", str(out)]) == 3
        assert not out.exists()
        assert main(["audit", "--rule", "pure-majority", "--max-voters", "0",
                     "--axioms", "C2,C3,C6", "--out", str(out)]) == 0

    def test_negative_order_bound_exits_3(self, capsys, tmp_path):
        out = tmp_path / "o.json"
        assert main(["order", "pure-majority", "pure-majority", "--max-voters", "-5",
                     "--out", str(out)]) == 3
        assert "true" not in capsys.readouterr().out
        assert not out.exists()

    def test_audit_over_budget_exits_3_without_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["audit", "--rule", "pure-majority", "--alternatives", "3",
                     "--max-voters", "20", "--out", str(out)]) == 3
        assert not out.exists()

    def test_order_over_budget_exits_3(self, capsys, tmp_path):
        out = tmp_path / "o.json"
        assert main(["order", "pure-majority", "pure-majority", "--alternatives", "3",
                     "--max-voters", "20", "--out", str(out)]) == 3
        assert "true" not in capsys.readouterr().out
        assert not out.exists()

    def test_audit_without_alternatives_exits_2(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        assert main(["audit", "--rule", "pure-majority", "--alternatives", "0",
                     "--max-voters", "2", "--out", str(out)]) == 2
        assert "between 1 and 26" in capsys.readouterr().err
        assert not out.exists()

    def test_audit_with_one_alternative_exits_2(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["audit", "--rule", "pure-majority", "--alternatives", "1",
                     "--max-voters", "2", "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert {r["status"] for r in doc["results"]} == {"error"}

    def test_ill_formed_supermajority_exits_2(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["audit", "--rule", "supermajority:all:1/3", "--alternatives", "3",
                     "--max-voters", "3", "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert all("ill-formed" in r["error"] for r in doc["results"])

    def test_audit_beyond_family_horizon_exits_3(self, tmp_path):
        # C6 probes one voter beyond the bound, beyond this table's horizon
        fam_path = write(tmp_path, "fam.json", json.dumps(family_json(pure_majority_table(AB2, 4))))
        out = tmp_path / "r.json"
        assert main(["audit", "--rule", f"tabulated:{fam_path}", "--max-voters", "4",
                     "--axioms", "C2-C6", "--out", str(out)]) == 3
        doc = json.loads(out.read_text())
        assert [r["status"] for r in doc["results"]] == ["pass"] * 4 + ["error"]

    @pytest.mark.parametrize("horizon, entries", [
        (-1, []),
        (0.9, [[[0, 0], "_"]]),
        (True, [[[0, 0], "_"], [[1, 0], "a"], [[0, 1], "b"]]),
    ])
    def test_family_with_a_bad_horizon_exits_2(self, tmp_path, capsys, horizon, entries):
        doc = {**family_json(pure_majority_table(AB2, 0)), "horizon": horizon,
               "entries": entries}
        fam_path = write(tmp_path, "fam.json", json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["audit", "--rule", f"tabulated:{fam_path}", "--max-voters", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "malformed tabulated family document" in capsys.readouterr().err

    def test_family_with_a_list_valued_entry_exits_2(self, tmp_path, capsys):
        doc = family_json(pure_majority_table(AB2, 2))
        doc["entries"][3] = [doc["entries"][3][0], ["a"]]
        fam_path = write(tmp_path, "fam.json", json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["audit", "--rule", f"tabulated:{fam_path}", "--max-voters", "2",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "table value ['a'] not in" in capsys.readouterr().err

    def test_enumerate_document(self, tmp_path):
        out = str(tmp_path / "e.json")
        assert main(["enumerate", "--alternatives", "2", "--horizon", "2",
                     "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["counts"]["families"] == 4
        assert doc["bounds"]["c6_checked_up_to_total"] is None
        fam = family_from_json(doc["families"][0])
        assert fam.horizon == 2

    def test_order_command(self, capsys, tmp_path):
        out = str(tmp_path / "o.json")
        code = main(["order", "quorum:participation:3", "pure-majority",
                     "--max-voters", "6", "--out", out])
        assert code == 0
        assert "quorum:participation:3 < pure-majority: true" in capsys.readouterr().out
        code = main(["order", "pure-majority", "quorum:participation:3",
                     "--max-voters", "6"])
        captured = capsys.readouterr().out
        assert "pure-majority < quorum:participation:3: false" in captured
        assert "witness: [a]" in captured

    def test_arrow_search_document(self, tmp_path):
        out = str(tmp_path / "a.json")
        assert main(["arrow-search", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["counts"]["survivors"] == 136
        assert doc["counts"]["profiles"] == 169
        entry = doc["survivors"][0]
        assert entry["dictator"] in (0, 1)
        # rank lines in the report re-parse to orders
        alphabet = Alphabet(("a", "b", "c", "_"), "_")
        row = entry["table"][0]
        for text in row["profile"] + [row["order"]]:
            parse_rank_text(text, alphabet)

    def test_documents_are_byte_identical_across_runs(self, tmp_path):
        pairs = []
        for name, argv in {
            "audit": ["audit", "--rule", "quorum:literal:2", "--alternatives", "2",
                      "--max-voters", "4", "--axioms", "C2-C6"],
            "enumerate": ["enumerate", "--alternatives", "2", "--horizon", "3"],
            "may": ["may", "--voters", "3", "--semantics", "in-favor"],
        }.items():
            out1 = str(tmp_path / f"{name}1.json")
            out2 = str(tmp_path / f"{name}2.json")
            main(argv + ["--out", out1])
            main(argv + ["--out", out2])
            pairs.append((open(out1, "rb").read(), open(out2, "rb").read()))
        for first, second in pairs:
            assert first == second


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.text(st.characters(max_codepoint=0x1F600)) | st.sampled_from(['"', "\\", "\n\x00\x1f\x7f"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_render_document_writes_what_json_dumps_writes(doc):
    assert render_document(doc) == json.dumps(doc, indent=2) + "\n"


containers = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
).filter(lambda value: isinstance(value, (list, tuple, dict)))


@settings(max_examples=200, deadline=None)
@given(containers, containers)
def test_a_shared_container_renders_at_every_place_it_is_listed(shared, other):
    parent = [shared, {"k": shared}, other]
    documents = {
        "twice at one indent": [shared, other, shared],
        "at two indents": {"a": shared, "b": [shared, [shared]], "c": other},
        "inside a shared parent": [parent, {"p": parent}, parent, [shared]],
    }
    for layout, doc in documents.items():
        assert render_document(doc) == json.dumps(doc, indent=2) + "\n", layout


class ListSub(list):
    pass


class DictSub(dict):
    pass


items = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple)
    | st.lists(children, max_size=3).map(ListSub)
    | st.dictionaries(st.text(max_size=3), children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3).map(DictSub),
    max_leaves=8,
)


@st.composite
def documents_of_shared_lists(draw):
    """Lists of a few shared items, each list several times, at one indent and
    at two, beside lists that mix shared and new items."""
    pool = draw(st.lists(items, min_size=1, max_size=4))
    shared = st.integers(0, len(pool) - 1).map(pool.__getitem__)
    kind = draw(st.sampled_from([list, tuple, ListSub]))
    rows = [kind(row) for row in draw(st.lists(st.lists(shared, min_size=1, max_size=5),
                                               min_size=1, max_size=3))]
    mixed = draw(st.lists(st.lists(shared | items, min_size=1, max_size=5), max_size=3))
    return {"rows": rows + mixed + rows + rows, "nested": [rows, DictSub(r=rows), [rows]],
            "pool": pool}


@settings(max_examples=300, deadline=None)
@given(documents_of_shared_lists())
def test_lists_of_shared_items_render_as_json_dumps_writes(doc):
    assert render_document(doc) == json.dumps(doc, indent=2) + "\n"


def test_a_list_of_items_written_once_renders_as_json_dumps_writes():
    # the items' texts are still spans of the output at the second list and
    # copied out by the third, which is written in one call
    a, b = [1, "x", True], DictSub(k=[None, 1.5, (2,)])
    doc = {"first": [a, b], "second": ListSub([a, b]), "third": (b, a, b), "fourth": [a]}
    assert render_document(doc) == json.dumps(doc, indent=2) + "\n"


def test_a_document_built_after_another_is_freed_renders_its_own_text():
    # the second document's containers are allocated where the first one's
    # were, so a memo that outlived one call would hand back the old text
    seen, reused = set(), False
    for turn in range(6):
        row = [turn, str(turn), {"turn": [turn]}]
        doc = {"rows": [row, [turn, "x"], row], "more": [[turn] for _ in range(8)]}
        ids = {id(value) for value in (row, *doc["rows"], *doc["more"])}
        reused |= bool(ids & seen)
        seen |= ids
        assert render_document(doc) == json.dumps(doc, indent=2) + "\n"
        del row, doc
    assert reused


def test_plurality_artifacts_are_numbered_by_their_family_position(tmp_path):
    out = str(tmp_path / "e.json")
    assert main(["enumerate", "--alternatives", "2", "--horizon", "6", "--out", out]) == 0
    doc = json.loads(open(out).read())
    artifacts = doc["findings"]["plurality_artifacts"]
    assert artifacts
    numbered = [i for i, f in enumerate(doc["families"]) if f["plurality_artifact"]]
    assert [a["family"] for a in artifacts] == numbered


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys, monkeypatch):
    calls = [
        ["audit", "--rule", "quorum:literal:2", "--alternatives", "2", "--max-voters", "3"],
        ["order", "quorum:participation:2", "pure-majority", "--max-voters", "3"],
        ["may", "--voters", "2", "--semantics", "flip"],
        ["enumerate", "--alternatives", "2", "--horizon", "3"],
    ]
    missing_bound = ["audit", "--rule", "pure-majority"]  # argparse exits 2
    sequence = calls + [missing_bound] + calls[::-1]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [run(argv) for argv in sequence]
    assert cli._shared_parser() is cli._shared_parser()
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run(argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 2, 0, 0, 0, 1]
    assert "required: --max-voters" in shared[4][2]


ALL_C_AND_DERIVED = "C2-C6,PLURALITY_PROPERTY,UNAVOIDABLE_TIES,TIE_CLOSURE"

audited_rules = st.one_of(
    st.builds("quorum:{}:{}".format, st.sampled_from(["literal", "participation"]),
              st.integers(1, 6)),
    st.builds(lambda denom, b, a: f"supermajority:{denom}:{a % (b - 1) + 1}/{b}",
              st.sampled_from(["all", "nonbot"]), st.integers(2, 6), st.integers(1, 5)),
)


ZERO_BOUND_AXIOMS = "C2,C3,C6,PLURALITY_PROPERTY,UNAVOIDABLE_TIES"  # less C4, C5, TIE_CLOSURE


@settings(max_examples=40, deadline=None)
@given(audited_rules, st.integers(2, 3), st.integers(0, 5))
@example("quorum:literal:2", 2, 0)  # C6 fails at the empty profile
def test_every_fail_witness_reparses_and_reevaluates(descriptor, k, n_max):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        argv = ["audit", "--rule", descriptor, "--alternatives", str(k),
                "--max-voters", str(n_max), "--out", out, "--axioms"]
        code = main(argv + [ALL_C_AND_DERIVED])
        if n_max == 0:  # C4, C5 and TIE_CLOSURE would pass vacuously: refused
            assert code == 3 and not os.path.exists(out)
            code = main(argv + [ZERO_BOUND_AXIOMS])
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
    statuses = [r["status"] for r in doc["results"]]
    assert code == (2 if "error" in statuses else 1 if "fail" in statuses else 0)
    alphabet = Alphabet(tuple(doc["bounds"]["alternatives"]), doc["bounds"]["bot"])

    def reparsed(ballots):
        mode, parsed_alphabet, parsed = parse_ballot_file(format_ballot_file(alphabet, ballots))
        assert mode == "choices" and parsed_alphabet == alphabet
        return Profile(parsed_alphabet, parsed)

    rule = parse_rule(descriptor, alphabet)
    bot = alphabet.bot
    for result in doc["results"]:
        w = result["witness"]
        if result["status"] != "fail":
            assert w is None
            continue
        base = reparsed(w["profile"])
        before = rule.evaluate(base)
        if w["moved_to"] is not None:
            assert rule.evaluate(reparsed(w["moved_to"])) == w["observed"]
            relabel = w["alt_permutation"] or {s: s for s in alphabet.alternatives}
            assert relabel[before] == w["expected"]
            assert (w["alt_permutation"] is not None) == (w["axiom"] == "C2")
            continue
        # these rules are plurality-sound, so only C6 fails without a move:
        # the profile is tied, and so is every one-voter extension
        assert (w["axiom"], w["expected"], w["observed"], before) == ("C6", None, bot, bot)
        assert all(rule.evaluate(extend(base, s)) == bot for s in alphabet.alternatives)


def test_a_c2_witness_is_reached_and_reparses(tmp_path):
    # a wins when a > 0 and a >= b (so a wins every tie); else b if b > 0:
    # anonymous and consistent, but not neutral
    table = {(a, b): "a" if a and a >= b else "b" if b else "_"
             for a in range(7) for b in range(7 - a)}
    family = TabulatedFamily.from_table(AB2, 6, table)
    name = write(tmp_path, "a-wins-ties.json", json.dumps(family_json(family)))
    out = str(tmp_path / "report.json")
    argv = ["audit", "--rule", f"tabulated:{name}", "--max-voters", "6", "--axioms", "C2-C5"]
    assert main(argv + ["--out", out]) == 1
    doc = json.loads(pathlib.Path(out).read_text())
    assert [r["status"] for r in doc["results"]] == ["fail", "pass", "pass", "pass"]
    w = doc["results"][0]["witness"]
    assert (w["profile"], w["moved_to"], w["expected"], w["observed"]) == (
        ["a", "b"], ["b", "a"], "b", "a")
    rule = parse_rule(f"tabulated:{name}", AB2)
    base, moved = (Profile(AB2, parse_ballot_file(format_ballot_file(AB2, w[key]))[2])
                   for key in ("profile", "moved_to"))
    assert w["alt_permutation"][rule.evaluate(base)] == w["expected"]
    assert rule.evaluate(moved) == w["observed"]


ordered_rules = st.just("pure-majority") | audited_rules


@settings(max_examples=40, deadline=None)
@given(ordered_rules, ordered_rules, st.integers(2, 3), st.integers(0, 5))
@example("pure-majority", "quorum:literal:2", 2, 3)
def test_every_order_witness_reparses_and_is_of_least_size(rule_a, rule_b, k, n_max):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "order.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["order", rule_a, rule_b, "--alternatives", str(k),
                         "--max-voters", str(n_max), "--out", out])
        written = os.path.exists(out)
        if written:
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)["result"]
    alphabet = Alphabet.make(k)
    f, g = parse_rule(rule_a, alphabet), parse_rule(rule_b, alphabet)
    bot = alphabet.bot

    def below(profile):  # g is read only where f is conclusive
        value = f.evaluate(profile)
        return value == bot or value == g.evaluate(profile)

    if code == 2:  # an ill-formed quota: two alternatives qualify within the bound
        assert not written
        with pytest.raises(RuleDomainError, match="ill-formed"):
            for size in range(n_max + 1):
                for profile in profiles_of_size(alphabet, size):
                    below(profile)
        return
    assert code == 0
    if result["leq"]:
        assert result["witness"] is None
        return
    mode, parsed_alphabet, ballots = parse_ballot_file(
        format_ballot_file(alphabet, result["witness"]))
    assert mode == "choices" and parsed_alphabet == alphabet
    assert len(ballots) <= n_max
    witness = Profile(alphabet, ballots)
    assert not below(witness)
    for size in range(len(ballots)):
        for profile in profiles_of_size(alphabet, size):
            assert below(profile), profile


def test_console_entry_point(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(SIMPLE)
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "votelab.cli", "eval", "--rule", "pure-majority",
         "--profile", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "a"
