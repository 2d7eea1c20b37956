"""The benchmark's four workloads: seeded job lists with known answers.

Every job is one in-process call, either ``votelab.cli.main(argv)`` (the code
path of the console script) or one public library function.  A job returns
its exit code and its output text; the oracle then compares the text with
answers written down from the README and the acceptance suite, and with the
sha256 recorded for that job in ``expected_sha256.json``.

Everything that depends on the seed (parameter draws, family files, survivor
samples, job order) is produced by :func:`build`, before any timing starts.
The program only ever receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, TextIO

WORKLOADS = ("audit", "enumerate", "crosscheck", "arrow")

# Draw ranges for the audit workload.  Every value has a documented verdict:
# quorum:literal:N fails C4 (and C5) with the witness a^(N-1) -> a^(N-1)_,
# quorum:participation:N and supermajority:nonbot:q pass C2-C5, and
# supermajority:all:q fails C4 with the witness a -> a_.  Thresholds stay at
# or below the audits' five voters, so the witness lies within bounds, and
# quotas at or above 1/2, so no configuration is ill-formed.
THRESHOLDS = (2, 3, 4, 5)
QUOTAS = ("1/2", "3/5", "2/3", "3/4", "4/5")

# Job and sample sizes keep jobs short and passes at two seconds or less, so
# each job repeats ten to thirty times in a run and its fastest repeat can
# fall in a quiet spell of a shared machine.
CROSSCHECK_SAMPLE = {(2, 5): 20, (3, 4): 20}
ARROW_SAMPLE = 16

ALL_EIGHT = "C2-C6,PLURALITY_PROPERTY,UNAVOIDABLE_TIES,TIE_CLOSURE"
DERIVED = ("PLURALITY_PROPERTY", "UNAVOIDABLE_TIES", "TIE_CLOSURE")
# Checkers that stop one size early because they extend every profile.
EXTENDING = ("C4", "C5", "TIE_CLOSURE")


@dataclass
class Job:
    """One closed-loop request: ``run()`` returns (exit code, output text);
    ``run(sink)`` writes any output to ``sink`` and returns (exit code, "")."""

    key: str
    run: Callable[..., tuple[int, str]]
    check: Callable[[int, str], list[str]]
    tiny: bool = False


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify(job: Job, code: int, text: str, expected: dict[str, str]) -> list[str]:
    """Problems with one job's result; an empty list means it is correct."""
    try:
        problems = job.check(code, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"known answers unreadable in the output: {exc!r}"]
    recorded = expected.get(job.key)
    if recorded is None:
        problems.append("no sha256 recorded for this job")
    elif sha256(text) != recorded:
        problems.append("output differs from the recorded sha256")
    return problems


# --- job constructors -------------------------------------------------------


def cli_job(argv: list[str], check: Callable[[int, str], list[str]], tiny: bool = False) -> Job:
    def run(sink: TextIO | None = None) -> tuple[int, str]:
        from votelab import cli  # looked up per call, so a traced main is used

        out = io.StringIO() if sink is None else sink
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue() if sink is None else ""

    return Job(" ".join(argv), run, check, tiny)


def library_job(key: str, fn: Callable[[], object], check: Callable[[object], list[str]],
                tiny: bool = False) -> Job:
    """A library call; its output text is :func:`render` of the result, and
    the known-answer check looks at the result itself."""
    last: list[object] = []

    def run(sink: TextIO | None = None) -> tuple[int, str]:
        result = fn()
        if sink is not None:
            return 0, ""
        last.append(result)
        return 0, render(result)

    return Job(key, run, lambda code, text: check(last.pop()), tiny)


def render(result: object) -> str:
    """A stable text for a checker verdict or a dictator index."""
    witness = getattr(result, "witness", None)
    if witness is not None:
        witness = {
            "profile": [str(w) for w in witness.profile],
            "other": None if witness.other is None else [str(w) for w in witness.other],
            "pair": witness.pair,
            "detail": witness.detail,
        }
    if hasattr(result, "condition"):
        result = {"condition": result.condition, "status": result.status,
                  "profiles_checked": result.profiles_checked, "witness": witness}
    return json.dumps(result) + "\n"


# --- known answers ----------------------------------------------------------


def profiles_up_to(symbols: int, n: int) -> int:
    return sum(symbols ** s for s in range(n + 1))


def audit_answers(code: int, statuses: dict[str, str], symbols: int, n: int,
                  witnesses: dict[str, dict] | None = None) -> Callable[[int, str], list[str]]:
    """Exit code, per-axiom status, exhaustive profile counts for passes, and
    the minimal witness for each expected failure."""
    witnesses = witnesses or {}

    def check(got: int, text: str) -> list[str]:
        problems = []
        if got != code:
            problems.append(f"exit code {got}, expected {code}")
        doc = json.loads(text)
        results = {r["axiom"]: r for r in doc["results"]}
        if list(results) != list(statuses):
            return problems + [f"axioms {list(results)}, expected {list(statuses)}"]
        for axiom, status in statuses.items():
            r = results[axiom]
            if r["status"] != status:
                problems.append(f"{axiom} is {r['status']}, expected {status}")
                continue
            if status == "pass":
                if axiom.startswith("MA"):
                    want = sum(3 ** s for s in range(n + 1))
                else:
                    want = profiles_up_to(symbols, n - 1 if axiom in EXTENDING else n)
                if r["profiles_checked"] != want:
                    problems.append(f"{axiom} checked {r['profiles_checked']}, expected {want}")
            for field, value in witnesses.get(axiom, {}).items():
                if r["witness"] is None or r["witness"][field] != value:
                    problems.append(f"{axiom} witness {field} differs from {value!r}")
        return problems

    return check


def pass_all(axioms: tuple[str, ...], symbols: int, n: int) -> Callable[[int, str], list[str]]:
    return audit_answers(0, {a: "pass" for a in axioms}, symbols, n)


def order_answer(first: str, second: str, holds: bool) -> Callable[[int, str], list[str]]:
    want = f"{first} < {second}: {'true' if holds else 'false'}\n"

    def check(code: int, text: str) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        if text != want:
            problems.append(f"printed {text!r}, expected {want!r}")
        return problems

    return check


def strict_winner(counts: list[int], symbols: list[str], bot: str) -> str:
    top = max(counts)
    if top == 0 or counts.count(top) > 1:
        return bot
    return symbols[counts.index(top)]


def is_pure_majority(family: dict) -> bool:
    symbols = [s for s in family["alternatives"] if s != family["bot"]]
    return all(value == strict_winner(counts, symbols, family["bot"])
               for counts, value in family["entries"])


def enumerate_answers(families: int, maximal: int,
                      pure_majority_only: bool = False) -> Callable[[int, str], list[str]]:
    def check(code: int, text: str) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        doc = json.loads(text)
        counts = doc["counts"]
        if counts != {"families": families, "maximal": maximal}:
            problems.append(f"counts {counts}, expected {families} families, {maximal} maximal")
        if len(doc["families"]) != families:
            problems.append(f"{len(doc['families'])} families listed")
        majority = [is_pure_majority(f) for f in doc["families"]]
        if majority.count(True) != 1:
            problems.append("pure majority is not listed exactly once")
        if pure_majority_only and not all(majority):
            problems.append("the only family is not pure majority")
        return problems

    return check


def sign_rule_answer(code: int, text: str) -> list[str]:
    """The sign rule is the unique table for 1-4 voters, under both readings."""
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    doc = json.loads(text)
    if doc["counts"] != {"tables": 1}:
        return problems + [f"counts {doc['counts']}, expected one table"]
    for (minus, zero, plus), value in doc["tables"][0]["entries"]:
        if value != (plus > minus) - (plus < minus):
            problems.append(f"entry {(minus, zero, plus)} is {value}, not the sign")
    return problems


def arrow_search_answer(code: int, text: str) -> list[str]:
    """136 survivors on 169 profiles, each with a strict dictator."""
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    doc = json.loads(text)
    if doc["counts"] != {"survivors": 136, "profiles": 169}:
        problems.append(f"counts {doc['counts']}, expected 136 survivors on 169 profiles")
    dictators = [s["dictator"] for s in doc["survivors"]]
    if len(dictators) != 136 or any(d not in (0, 1) for d in dictators):
        problems.append("a survivor has no strict dictator")
    return problems


def condition_answer(condition: str, status: str) -> Callable[[object], list[str]]:
    def check(result: object) -> list[str]:
        got = (result.condition, result.status)
        return [] if got == (condition, status) else [f"{got}, expected {(condition, status)}"]

    return check


def dictator_answer(voters: tuple[int, ...]) -> Callable[[object], list[str]]:
    def check(result: object) -> list[str]:
        return [] if result in voters else [f"dictator {result!r}, expected one of {voters}"]

    return check


# --- workloads --------------------------------------------------------------


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The seeded job list of one workload, in the order it runs.

    ``tiny`` keeps only the cheap jobs, for the benchmark's own tests.
    Files the jobs read are written to the current directory.
    """
    rng = random.Random(f"{workload}:{seed}")

    def pick(population: int, size: int) -> list[int]:
        return sorted(rng.sample(range(population), size))

    if workload == "audit":
        jobs = audit_jobs(*(rng.choice(THRESHOLDS) for _ in range(3)),
                          *(rng.choice(QUOTAS) for _ in range(2)))
    elif workload == "enumerate":
        jobs = enumerate_jobs()
    elif workload == "crosscheck":
        jobs = crosscheck_jobs(pick)
    elif workload == "arrow":
        jobs = arrow_jobs(pick)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        jobs = [job for job in jobs if job.tiny]
    rng.shuffle(jobs)
    return jobs


def audit_jobs(literal: int, participation: int, order_n: int,
               quota_all: str, quota_nonbot: str) -> list[Job]:
    """Audits of the README's rule families with arithmetic evaluation."""
    c2_c5 = ("C2", "C3", "C4", "C5")
    a_run = ["a"] * (literal - 1)

    def audit(rule: str, k: int, n: int, *extra: str) -> list[str]:
        return ["audit", "--rule", rule, "--alternatives", str(k), "--max-voters", str(n), *extra]

    return [
        cli_job(audit("pure-majority", 2, 7, "--axioms", ALL_EIGHT),
                pass_all(("C2", "C3", "C4", "C5", "C6") + DERIVED, 3, 7)),
        cli_job(audit("pure-majority", 3, 5, "--axioms", "C2-C6"),
                pass_all(("C2", "C3", "C4", "C5", "C6"), 4, 5)),
        cli_job(audit(f"quorum:literal:{literal}", 3, 5),
                audit_answers(1, {"C2": "pass", "C3": "pass", "C4": "fail", "C5": "fail"}, 4, 5,
                              {"C4": {"profile": a_run, "moved_to": a_run + ["_"],
                                      "expected": "_", "observed": "a"}}),
                tiny=True),
        cli_job(audit(f"quorum:participation:{participation}", 3, 5), pass_all(c2_c5, 4, 5)),
        cli_job(audit(f"supermajority:all:{quota_all}", 3, 5),
                audit_answers(1, {"C2": "pass", "C3": "pass", "C4": "fail", "C5": "pass"}, 4, 5,
                              {"C4": {"profile": ["a"], "moved_to": ["a", "_"],
                                      "expected": "a", "observed": "_"}})),
        cli_job(audit(f"supermajority:nonbot:{quota_nonbot}", 3, 5), pass_all(c2_c5, 4, 5)),
        cli_job(["audit", "--rule", "may-sign", "--max-voters", "6", "--axioms", "MA2-MA4"],
                pass_all(("MA2", "MA3", "MA4"), 3, 6), tiny=True),
        cli_job(["order", f"quorum:participation:{order_n}", "pure-majority",
                 "--alternatives", "3", "--max-voters", "5"],
                order_answer(f"quorum:participation:{order_n}", "pure-majority", True),
                tiny=True),
    ]


def enumerate_jobs() -> list[Job]:
    """Structural enumeration and large documents; no raw profile is evaluated."""
    return [
        cli_job(["enumerate", "--alternatives", "3", "--horizon", "4"],
                enumerate_answers(100, 3)),
        cli_job(["enumerate", "--alternatives", "2", "--horizon", "6"],
                enumerate_answers(246, 14), tiny=True),
        cli_job(["enumerate", "--alternatives", "2", "--horizon", "8", "--with-c6"],
                enumerate_answers(1, 1, pure_majority_only=True), tiny=True),
        cli_job(["enumerate", "--alternatives", "3", "--horizon", "5", "--with-c6"],
                enumerate_answers(11, 3)),
    ]


def crosscheck_jobs(pick: Callable[[int, int], list[int]]) -> list[Job]:
    """The dual route: enumerated families audited by the raw-profile checkers.

    ``pick(n, size)`` chooses which of n families to audit.  Writes their
    family files to the current directory.
    """
    from votelab import Alphabet, enumerate_c_families
    from votelab.cli import family_json

    jobs = []
    for (k, horizon), size in CROSSCHECK_SAMPLE.items():
        families = enumerate_c_families(Alphabet.make(k), horizon).families
        picked = pick(len(families), size)
        for rank, index in enumerate(picked):
            name = f"a{k}h{horizon}-{index:03d}.json"
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(family_json(families[index]), fh)
            jobs.append(cli_job(
                ["audit", "--rule", f"tabulated:{name}", "--max-voters", str(horizon),
                 "--axioms", "C2-C5"],
                pass_all(("C2", "C3", "C4", "C5"), k + 1, horizon), tiny=rank < 2))
    for n in (1, 2, 3, 4):
        for semantics in ("in-favor", "flip"):
            jobs.append(cli_job(["may", "--voters", str(n), "--semantics", semantics],
                                sign_rule_answer, tiny=n <= 2))
    return jobs


ALTERNATIVES = ("a", "b", "c")


def counterexample_swfs() -> dict[str, tuple[object, dict[str, str]]]:
    """The known counterexample SWFs at n=2 with their expected verdicts."""
    from votelab.arrow import (
        WeakOrder,
        anti_dictator_swf,
        borda_swf,
        constant_swf,
        projection_swf,
    )

    return {
        "borda": (borda_swf(ALTERNATIVES, 2),
                  {"A2": "pass", "A3": "fail", "A4": "pass", "A5": "pass"}),
        "anti-dictator:0": (anti_dictator_swf(ALTERNATIVES, 2, 0),
                            {"A2": "fail", "A3": "pass", "A4": "pass", "A5": "pass"}),
        "projection:1": (projection_swf(ALTERNATIVES, 2, 1),
                         {"A2": "pass", "A3": "pass", "A4": "pass", "A5": "fail"}),
        "constant": (constant_swf(ALTERNATIVES, 2, WeakOrder((("a",), ("b",), ("c",)))),
                     {"A2": "pass", "A3": "pass", "A4": "fail", "A5": "pass"}),
    }


def swf_jobs(label: str, swf: object, verdicts: dict[str, str],
             dictators: tuple[int, ...] | None, tiny: bool) -> list[Job]:
    from votelab import arrow

    # Checkers are looked up on each call, so traced checkers are used.
    jobs = [
        library_job(f"check_{condition.lower()} {label}",
                    lambda name=f"check_{condition.lower()}": getattr(arrow, name)(swf),
                    condition_answer(condition, status), tiny)
        for condition, status in verdicts.items()
    ]
    if dictators is not None:
        jobs.append(library_job(f"find_dictator {label}",
                                lambda: arrow.find_dictator(swf),
                                dictator_answer(dictators), tiny))
    return jobs


def arrow_jobs(pick: Callable[[int, int], list[int]]) -> list[Job]:
    """The order-aggregation search, then its checkers on the survivors
    ``pick(n, size)`` chooses and on the known counterexamples."""
    from votelab import arrow_search

    survivors = arrow_search()
    picked = pick(len(survivors), ARROW_SAMPLE)
    dictatorial = {"A2": "pass", "A3": "pass", "A4": "pass", "A5": "fail"}
    jobs = [cli_job(["arrow-search"], arrow_search_answer, tiny=True)]
    for rank, index in enumerate(picked):
        jobs += swf_jobs(f"survivor:{index:03d}", survivors[index], dictatorial,
                         (0, 1), tiny=rank == 0)
    for label, (swf, verdicts) in counterexample_swfs().items():
        dictators = (1,) if label == "projection:1" else None
        jobs += swf_jobs(label, swf, verdicts, dictators, tiny=label == "borda")
    return jobs


def take_all(population: int, size: int) -> list[int]:
    return list(range(population))


def every_job() -> list[Job]:
    """Every job any seed can draw, for recording the sha256 table."""
    jobs: list[Job] = []
    for i in range(max(len(THRESHOLDS), len(QUOTAS))):
        threshold, quota = THRESHOLDS[i % len(THRESHOLDS)], QUOTAS[i % len(QUOTAS)]
        jobs += audit_jobs(threshold, threshold, threshold, quota, quota)
    jobs += enumerate_jobs() + crosscheck_jobs(take_all) + arrow_jobs(take_all)
    unique: dict[str, Job] = {}
    for job in jobs:
        unique.setdefault(job.key, job)
    return list(unique.values())
