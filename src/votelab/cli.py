"""Command-line entry point: ballot files, rule descriptors, reports.

Exit code contract: 0 all checks pass (or plain success), 1 at least one
axiom failed (a legitimate result, not an operational error), 2 input or
parse error, 3 bound or horizon error.  Reports are JSON documents with a
stable field order and a ``schema`` version; identical inputs produce byte
identical documents.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from . import __version__
from .core import (
    Alphabet,
    BoundError,
    HorizonError,
    Profile,
    RuleDomainError,
    VoteLabError,
    compositions,
    signatures_up_to,
)
from .rules import (
    MaySignRule,
    PureMajorityRule,
    QuorumRule,
    RuleFamily,
    SupermajorityRule,
    TabulatedFamily,
    TabulatedRule,
)
from . import axioms
from .axioms import AuditReport, Witness, audit
from .enumeration import (
    enumerate_c_families,
    enumerate_may_functions,
    maximal_elements,
    plurality_artifacts,
    rule_leq,
)

if TYPE_CHECKING:  # the arrow module is loaded by the commands that use it
    from .arrow import WeakOrder

EXIT_OK = 0
EXIT_AXIOM_FAIL = 1
EXIT_INPUT = 2
EXIT_BOUNDS = 3


class BallotParseError(VoteLabError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- ballot files -----------------------------------------------------------


def parse_ballot_file(text: str) -> tuple[str, Alphabet, tuple]:
    """Parse ballot text into ("choices", alphabet, ballots) or
    ("ranks", alphabet, weak orders)."""
    header: tuple[int, str] | None = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = (lineno, line)
        else:
            body.append((lineno, line))
    if header is None:
        raise BallotParseError(1, "missing header line 'alternatives: ... bot: ...'")

    lineno, line = header
    if not line.startswith("alternatives:") or " bot:" not in line:
        raise BallotParseError(lineno, "header must be 'alternatives: <syms> bot: <sym>'")
    alts_part, bot_part = line.split(" bot:", 1)
    symbols = [s.strip() for s in alts_part[len("alternatives:"):].split(",")]
    symbols = [s for s in symbols if s]
    bot = bot_part.strip()
    if not symbols:
        raise BallotParseError(lineno, "header declares no alternatives")
    if not bot:
        raise BallotParseError(lineno, "header declares no tie symbol")
    if bot not in symbols:
        symbols.append(bot)
    try:
        alphabet = Alphabet(tuple(symbols), bot)
    except ValueError as exc:
        raise BallotParseError(lineno, str(exc)) from exc

    mode: str | None = None
    choices: list[str] = []
    orders: list[WeakOrder] = []
    for lineno, line in body:
        if line.startswith("rank:"):
            if mode == "choices":
                raise BallotParseError(lineno, "cannot mix rank and single-choice ballots")
            mode = "ranks"
            orders.append(_parse_rank_line(lineno, line, alphabet))
        else:
            if mode == "ranks":
                raise BallotParseError(lineno, "cannot mix rank and single-choice ballots")
            mode = "choices"
            if " " in line or "," in line:
                raise BallotParseError(lineno, "a ballot line holds exactly one symbol")
            if line not in alphabet:
                raise BallotParseError(lineno, f"symbol {line!r} not declared in header")
            choices.append(line)
    if mode == "ranks":
        return "ranks", alphabet, tuple(orders)
    return "choices", alphabet, tuple(choices)


def _parse_rank_line(lineno: int, line: str, alphabet: Alphabet) -> WeakOrder:
    from .arrow import WeakOrder

    payload = line[len("rank:"):].strip()
    if not payload:
        raise BallotParseError(lineno, "empty rank line")
    blocks = []
    for chunk in payload.split(">"):
        block = tuple(s.strip() for s in chunk.split("="))
        if any(not s for s in block):
            raise BallotParseError(lineno, "malformed rank line")
        for s in block:
            if s not in alphabet or s == alphabet.bot:
                raise BallotParseError(
                    lineno, f"rank symbol {s!r} must be a declared non-tie alternative"
                )
        blocks.append(block)
    try:
        order = WeakOrder(tuple(blocks))
    except ValueError as exc:
        raise BallotParseError(lineno, str(exc)) from exc
    if order.alternatives != frozenset(alphabet.non_bot):
        raise BallotParseError(lineno, "rank line must mention every non-tie alternative once")
    return order


def format_rank_line(order: WeakOrder) -> str:
    return "rank: " + str(order)


# --- rule descriptors -------------------------------------------------------


def parse_rule(descriptor: str, alphabet: Alphabet | None) -> RuleFamily:
    """Build a rule from its descriptor string over the given alphabet."""
    if descriptor == "pure-majority":
        if alphabet is None:
            raise RuleDomainError("pure-majority needs an alphabet")
        return PureMajorityRule(alphabet)
    if descriptor == "may-sign":
        return MaySignRule()
    if descriptor.startswith("quorum:"):
        parts = descriptor.split(":")
        if len(parts) != 3:
            raise RuleDomainError(f"bad quorum descriptor {descriptor!r}")
        mode, raw_n = parts[1], parts[2]
        if not raw_n.isdigit():
            raise RuleDomainError(f"bad quorum threshold {raw_n!r}")
        if alphabet is None:
            raise RuleDomainError("quorum needs an alphabet")
        return QuorumRule(alphabet, int(raw_n), mode)
    if descriptor.startswith("supermajority:"):
        parts = descriptor.split(":")
        if len(parts) != 3 or "/" not in parts[2]:
            raise RuleDomainError(f"bad supermajority descriptor {descriptor!r}")
        num, _, den = parts[2].partition("/")
        if not (num.isdigit() and den.isdigit() and int(den) > 0):
            raise RuleDomainError(f"bad supermajority quota {parts[2]!r}")
        if alphabet is None:
            raise RuleDomainError("supermajority needs an alphabet")
        return SupermajorityRule(alphabet, Fraction(int(num), int(den)), parts[1])
    if descriptor.startswith("tabulated:"):
        path = descriptor[len("tabulated:"):]
        family = load_family_file(path)
        if alphabet is not None and family.alphabet != alphabet:
            raise RuleDomainError(
                "tabulated family alphabet differs from the requested alphabet"
            )
        return TabulatedRule(family, descriptor)
    raise RuleDomainError(f"unknown rule descriptor {descriptor!r}")


# --- tabulated family files -------------------------------------------------


@functools.lru_cache(maxsize=None)
def _entry_cells(alphabet: Alphabet, horizon: int) -> tuple[dict[str, tuple], ...]:
    """Per signature position, each value's ``(counts, value)`` entry."""
    return tuple({x: (sig, x) for x in alphabet.alternatives}
                 for sig in signatures_up_to(alphabet, horizon))


def family_json(family: TabulatedFamily) -> dict:
    """The family file document.  Each entry is a shared ``(counts, value)``
    tuple, one object for every family with that cell, so a document of many
    families encodes each entry once per indent (see ``render_document``);
    ``json`` writes a tuple as it writes a list."""
    cells = _entry_cells(family.alphabet, family.horizon)
    return {
        "schema": 1,
        "kind": "tabulated-family",
        "alternatives": list(family.alphabet.alternatives),
        "bot": family.alphabet.bot,
        "horizon": family.horizon,
        "entries": list(map(dict.__getitem__, cells, family.values)),
    }


def family_from_json(doc: dict) -> TabulatedFamily:
    try:
        if (type(doc["schema"]), doc["schema"], doc["kind"]) != (int, 1, "tabulated-family"):
            raise ValueError("expected schema 1 and kind 'tabulated-family'")
        alphabet = Alphabet(tuple(doc["alternatives"]), doc["bot"])
        horizon = doc["horizon"]
        table = {tuple(counts): value for counts, value in doc["entries"]}
        if not {int}.issuperset(map(type, chain.from_iterable(table))):
            raise ValueError("signature counts must be ints")
        return TabulatedFamily.from_table(alphabet, horizon, table)
    except (KeyError, TypeError, ValueError) as exc:
        raise RuleDomainError(f"malformed tabulated family document: {exc}") from exc


def load_family_file(path: str) -> TabulatedFamily:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise RuleDomainError(f"cannot read tabulated family file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RuleDomainError(f"tabulated family file is not valid JSON: {exc}") from exc
    return family_from_json(doc)


# --- report documents -------------------------------------------------------


def witness_json(w: Witness | None) -> dict | None:
    if w is None:
        return None
    doc: dict = {"axiom": w.axiom, "profile": list(w.base_profile.ballots)}
    doc["moved_to"] = list(w.moved_to.ballots) if w.moved_to is not None else None
    doc["alt_permutation"] = (
        {s: w.alt_permutation.apply(s) for s in w.alt_permutation.alphabet.alternatives}
        if w.alt_permutation is not None
        else None
    )
    doc["voter_permutation"] = (
        list(w.voter_permutation.mapping) if w.voter_permutation is not None else None
    )
    doc["expected"] = w.expected
    doc["observed"] = w.observed
    return doc


def _report_header(command: str) -> dict:
    """The fields every report document opens with, in their fixed order."""
    return {"schema": 1, "toolkit": f"votelab {__version__}", "command": command}


def audit_json(report: AuditReport, parameters: dict) -> dict:
    return {
        **_report_header("audit"),
        "parameters": parameters,
        "bounds": {
            "alternatives": list(report.alphabet.alternatives),
            "bot": report.alphabet.bot,
            "max_voters": report.n_max,
        },
        "structural": "totality and determinism hold by the rule interface",
        "results": [
            {
                "axiom": r.axiom,
                "status": r.status,
                "profiles_checked": r.profiles_checked,
                "witness": witness_json(r.witness),
                "error": r.error,
            }
            for r in report.results
        ],
        "summary": {
            "pass": sum(1 for r in report.results if r.status == "pass"),
            "fail": sum(1 for r in report.results if r.status == "fail"),
            "error": sum(1 for r in report.results if r.status == "error"),
        },
    }


def render_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, keys all str; written here
    because with ``indent`` set the stdlib uses its pure-Python encoder.

    Builders share repeated records as one object, so a container met again at
    the same indent is encoded once: its text is copied from its first visit.
    The memos, one per indent, are keyed by ``id`` and live for this call only,
    while ``doc`` keeps each key's container alive."""
    out: list[str] = []
    _write_json(doc, 0, out, defaultdict(dict))
    out.append("\n")
    return "".join(out)


_CONSTANTS = {None: "null", True: "true", False: "false"}


@functools.lru_cache(maxsize=None)
def _layout(depth: int, keyed: bool) -> tuple[str, str, str]:  # opener, comma, closer
    inner = "\n" + "  " * (depth + 1)
    return ("{" if keyed else "[") + inner, "," + inner, inner[:-2] + ("}" if keyed else "]")


def _write_json(value: object, depth: int, out: list[str],
                memos: defaultdict[int, dict[int, tuple[int, int] | str]]) -> None:
    """Append ``value`` at ``depth``; a memo holds a container's span, then text."""
    if not (isinstance(value, (dict, list, tuple)) and value):
        # None and bools from a map; floats and empty containers as the stdlib writes them
        out.append(_CONSTANTS[value] if value is None or type(value) is bool else json.dumps(value))
        return
    start, seen, keyed = len(out), memos[depth + 1], isinstance(value, dict)
    sep, comma, close = _layout(depth, keyed)
    for item in value.items() if keyed else value:
        out.append(sep)
        sep = comma
        if keyed:
            out += encode_basestring_ascii(item[0]), ": "
            item = item[1]
        if type(item) is str:
            out.append(encode_basestring_ascii(item))
        elif type(item) is int:
            out.append(int.__repr__(item))
        elif (done := seen.get(id(item))) is None:
            _write_json(item, depth + 1, out, memos)
        else:
            if type(done) is tuple:
                done = seen[id(item)] = "".join(out[done[0]:done[1]])
            out.append(done)
    out.append(close)
    memos[depth][id(value)] = start, len(out)


def _emit(doc: dict, out_path: str | None) -> None:
    text = render_document(doc)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# --- axiom list parsing -----------------------------------------------------

def parse_axiom_list(raw: str) -> tuple[str, ...]:
    chosen: list[str] = []
    for token in raw.split(","):
        token = token.strip().upper()
        if not token:
            continue
        if "-" in token:
            lo, _, hi = token.partition("-")
            seq = axioms.C_AXIOMS if lo.startswith("C") else axioms.MA_AXIOMS
            if lo not in seq or hi not in seq or seq.index(lo) > seq.index(hi):
                raise VoteLabError(f"bad axiom range {token!r}")
            chosen.extend(seq[seq.index(lo): seq.index(hi) + 1])
        else:
            if token not in axioms.ALL_AXIOMS:
                raise VoteLabError(f"unknown axiom {token!r}")
            chosen.append(token)
    ordered = tuple(a for a in axioms.ALL_AXIOMS if a in chosen)
    if not ordered:
        raise VoteLabError("no axioms selected")
    return ordered


# --- subcommands ------------------------------------------------------------


def _make_alphabet(num_alternatives: int) -> Alphabet:
    try:
        return Alphabet.make(num_alternatives)
    except ValueError as exc:
        raise RuleDomainError(str(exc)) from exc


def _alphabet_for(rule_descriptor: str, num_alternatives: int) -> Alphabet | None:
    if rule_descriptor == "may-sign":
        return Alphabet.may()
    if rule_descriptor.startswith("tabulated:"):
        return None  # the family file carries its own alphabet
    return _make_alphabet(num_alternatives)


def cmd_eval(args: argparse.Namespace) -> int:
    with open(args.profile, "r", encoding="utf-8") as fh:
        text = fh.read()
    mode, alphabet, payload = parse_ballot_file(text)
    if mode != "choices":
        raise VoteLabError("eval needs a single-choice ballot file, got rank ballots")
    profile = Profile(alphabet, payload)
    rule = parse_rule(args.rule, alphabet)
    print(rule.evaluate(profile))
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    selected = parse_axiom_list(args.axioms)
    alphabet = _alphabet_for(args.rule, args.alternatives)
    rule = parse_rule(args.rule, alphabet)
    report = audit(rule, selected, args.max_voters, ma4_semantics=args.ma4_semantics)
    parameters = {
        "rule": args.rule,
        "alternatives": args.alternatives,
        "max_voters": args.max_voters,
        "axioms": list(selected),
        "ma4_semantics": args.ma4_semantics,
    }
    _emit(audit_json(report, parameters), args.out)
    errors = [r.error_type for r in report.results if r.status == "error"]
    if errors:
        # bounds only when every error is one; an ill-formed rule or alphabet is input
        bounds = all(issubclass(e, (HorizonError, BoundError)) for e in errors)
        return EXIT_BOUNDS if bounds else EXIT_INPUT
    return EXIT_AXIOM_FAIL if report.any_fail else EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    alphabet = _make_alphabet(args.alternatives)
    fs = enumerate_c_families(alphabet, args.horizon, with_c6=args.with_c6)
    artifacts = plurality_artifacts(fs)
    position = {f.value_tuple(): i for i, f in enumerate(fs.families)}
    artifact_sigs = {f.value_tuple(): sig for f, sig in artifacts}
    maximal = maximal_elements(fs)
    maximal_ids = {f.value_tuple() for f in maximal}
    alternatives = list(alphabet.alternatives)
    doc = {
        **_report_header("enumerate"),
        "parameters": {
            "alternatives": args.alternatives,
            "horizon": args.horizon,
            "with_c6": args.with_c6,
        },
        "bounds": {
            "alternatives": alternatives,
            "bot": alphabet.bot,
            "horizon": args.horizon,
            "c6_checked_up_to_total": args.horizon - 1 if args.with_c6 else None,
        },
        "counts": {"families": len(fs.families), "maximal": len(maximal)},
        "findings": {
            "plurality_artifacts": [
                {
                    "family": position[f.value_tuple()],
                    "signature": list(sig),
                    "note": "conclusive against the strict count winner beyond "
                    "the half-horizon soundness region",
                }
                for f, sig in artifacts
            ],
        },
        "families": [  # one alternatives list, written once
            {
                **family_json(f),
                "alternatives": alternatives,
                "maximal": f.value_tuple() in maximal_ids,
                "plurality_artifact": f.value_tuple() in artifact_sigs,
            }
            for f in fs.families
        ],
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_may(args: argparse.Namespace) -> int:
    semantics = args.semantics.replace("-", "_")
    tables = enumerate_may_functions(args.voters, semantics)
    triples = list(compositions(args.voters, 3))
    doc = {
        **_report_header("may"),
        "parameters": {"voters": args.voters, "semantics": args.semantics},
        "counts": {"tables": len(tables)},
        "tables": [
            {"entries": [[list(t), v] for t, v in zip(triples, table.value_tuple())]}
            for table in tables
        ],
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_arrow_search(args: argparse.Namespace) -> int:
    from . import arrow

    alternatives = ("a", "b", "c")
    n = 2
    survivors = arrow.arrow_search(n, alternatives)
    profiles = arrow.sorted_profiles(alternatives, n)
    # built once, in order-index order: the profiles hold these order objects
    lines = {id(w): format_rank_line(w) for w in arrow.enumerate_weak_orders(alternatives)}
    rows = ([lines[id(w)] for w in x] for x in profiles)
    # per profile, one cell per order by index, shared by every survivor's table
    cells = [[{"profile": row, "order": line} for line in lines.values()] for row in rows]
    doc = {
        **_report_header("arrow-search"),
        "parameters": {"voters": n, "alternatives": list(alternatives)},
        "counts": {"survivors": len(survivors), "profiles": len(profiles)},
        "survivors": [
            {
                "descriptor": swf.descriptor,
                "dictator": arrow.find_dictator(swf),
                "dictator_premise": "strict",
                "table": list(map(list.__getitem__, cells, swf._indices)),
            }
            for swf in survivors
        ],
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_order(args: argparse.Namespace) -> int:
    alphabet = _make_alphabet(args.alternatives)
    rule_a = parse_rule(args.rule_a, alphabet)
    rule_b = parse_rule(args.rule_b, alphabet)
    holds, witness = rule_leq(rule_a, rule_b, args.max_voters)
    print(f"{rule_a.descriptor} < {rule_b.descriptor}: {'true' if holds else 'false'}")
    if witness is not None:
        print(f"witness: [{','.join(witness.ballots)}]")
    if args.out:
        doc = {
            **_report_header("order"),
            "parameters": {
                "rule_a": args.rule_a,
                "rule_b": args.rule_b,
                "alternatives": args.alternatives,
                "max_voters": args.max_voters,
            },
            "result": {
                "leq": holds,
                "witness": list(witness.ballots) if witness is not None else None,
            },
        }
        _emit(doc, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votelab",
        description="Voting rules, axiom audits and exhaustive enumerations at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"votelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a rule on a ballot file")
    p_eval.add_argument("--rule", required=True)
    p_eval.add_argument("--profile", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_audit = sub.add_parser("audit", help="exhaustively check axioms for a rule")
    p_audit.add_argument("--rule", required=True)
    p_audit.add_argument("--alternatives", type=int, default=2,
                         help="number of non-tie alternatives (ignored for may-sign)")
    p_audit.add_argument("--max-voters", type=int, required=True)
    p_audit.add_argument("--axioms", default="C2-C5",
                         help="comma list and ranges, e.g. C2-C6 or MA2-MA4,C4")
    p_audit.add_argument("--ma4-semantics", choices=["in_favor", "flip"],
                         default="in_favor")
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(fn=cmd_audit)

    p_enum = sub.add_parser("enumerate", help="enumerate consistent tabulated families")
    p_enum.add_argument("--alternatives", type=int, default=2)
    p_enum.add_argument("--horizon", type=int, required=True)
    p_enum.add_argument("--with-c6", action="store_true")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_may = sub.add_parser("may", help="enumerate two-option group decision tables")
    p_may.add_argument("--voters", type=int, required=True)
    p_may.add_argument("--semantics", choices=["in-favor", "flip"], default="in-favor")
    p_may.add_argument("--out", default=None)
    p_may.set_defaults(fn=cmd_may)

    p_arrow = sub.add_parser("arrow-search",
                             help="search order-aggregating rules at desk scale")
    p_arrow.add_argument("--out", default=None)
    p_arrow.set_defaults(fn=cmd_arrow_search)

    p_order = sub.add_parser("order", help="compare two rules in the conclusiveness order")
    p_order.add_argument("rule_a")
    p_order.add_argument("rule_b")
    p_order.add_argument("--alternatives", type=int, default=2)
    p_order.add_argument("--max-voters", type=int, default=6)
    p_order.add_argument("--out", default=None)
    p_order.set_defaults(fn=cmd_order)

    return parser


_shared_parser = functools.cache(build_parser)  # parse_args leaves a parser as it was


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HorizonError, BoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except (VoteLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
