"""Tracing from outside the program: spans and counts at each layer boundary.

:func:`instrument` wraps the public functions and constructors of every
``votelab`` module by patching the name each importing module bound (and, for
methods and constructors, the class attribute), and puts every original back
on exit.  Nothing under ``src/`` is edited, and untraced passes run the
original code.

A span has a name, a start, an end, a parent span and the id of the job that
caused it.  Spans are kept in flat arrays in memory; :meth:`Tracer.dump`
writes them out when the run ends.  Counts are taken at the same wrappers.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from array import array
from collections import Counter
from typing import Callable, Iterator

# Per-layer metrics of one traced pass: name -> unit.  The trace overhead is
# added by the runner, which also times untraced passes.
LAYER_UNITS = {
    "core.profiles_generated": "count",
    "core.signatures_up_to.calls": "count",
    "core.signatures_up_to.s": "s",
    "rules.evaluate.calls": "count",
    "rules.evaluate.s": "s",
    "rules.tabulated_family.builds": "count",
    "rules.tabulated_family.s": "s",
    "axioms.profiles_checked": "count",
    "axioms.evals_per_profile": "ratio",
    "axioms.checkers.self_s": "s",
    "enumeration.search.s": "s",
    "enumeration.families": "count",
    "enumeration.maximal_elements.s": "s",
    "enumeration.plurality_artifacts.s": "s",
    "enumeration.rule_leq.s": "s",
    "arrow.arrow_search.s": "s",
    "arrow.survivors": "count",
    "arrow.sorted_profiles.calls": "count",
    "arrow.sorted_profiles.s": "s",
    "arrow.checkers.self_s": "s",
    "cli.render.s": "s",
    "cli.bytes_out": "bytes",
    "cli.load_family.s": "s",
    "cli.bytes_in": "bytes",
    "cli.self_s": "s",
}

AXIOM_CHECKERS = (
    "check_c2", "check_c3", "check_c4", "check_c5", "check_c6",
    "check_plurality_property", "check_unavoidable_ties", "check_tie_closure",
    "check_ma2", "check_ma3", "check_ma4",
)
ARROW_CHECKERS = ("check_a2", "check_a3", "check_a4", "check_a5", "find_dictator")


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.jobs: list[str] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._job = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(counts, result, args)`` adds to the counts."""
        nid = self._name_id(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self._job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def job_span(self, key: str) -> Iterator[None]:
        """The root span of one job; every span under it carries its id."""
        self._job = len(self.jobs)
        self.jobs.append(key)
        idx = len(self.start)
        self.name.append(self._name_id("job"))
        self.parent.append(-1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._job = -1

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        child = [0.0] * len(self.start)
        starts, ends = self.start, self.end
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(len(starts))]

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Name -> (calls, total span time, total self time)."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        selfs = self.self_times()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            total[nid] += self.end[i] - self.start[i]
            own[nid] += selfs[i]
        return {n: (calls[i], total[i], own[i]) for i, n in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of this pass (see ``LAYER_UNITS``)."""
        stats = self.by_name()

        def calls(*names: str) -> int:
            return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

        def span_s(*names: str) -> float:
            return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

        def self_s(*names: str) -> float:
            return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

        evaluations = calls("rules.evaluate")
        checked = self.counts["axioms.profiles_checked"]
        return {
            "core.profiles_generated": self.counts["core.profiles_generated"],
            "core.signatures_up_to.calls": calls("core.signatures_up_to"),
            "core.signatures_up_to.s": span_s("core.signatures_up_to"),
            "rules.evaluate.calls": evaluations,
            "rules.evaluate.s": span_s("rules.evaluate"),
            "rules.tabulated_family.builds": calls("rules.TabulatedFamily"),
            "rules.tabulated_family.s": span_s("rules.TabulatedFamily"),
            "axioms.profiles_checked": checked,
            "axioms.evals_per_profile": evaluations / checked if checked else 0.0,
            "axioms.checkers.self_s": self_s(
                "axioms.audit", *(f"axioms.{c}" for c in AXIOM_CHECKERS)),
            "enumeration.search.s": span_s("enumeration.enumerate_c_families",
                                           "enumeration.enumerate_may_functions"),
            "enumeration.families": self.counts["enumeration.families"],
            "enumeration.maximal_elements.s": span_s("enumeration.maximal_elements"),
            "enumeration.plurality_artifacts.s": span_s("enumeration.plurality_artifacts"),
            "enumeration.rule_leq.s": span_s("enumeration.rule_leq"),
            "arrow.arrow_search.s": span_s("arrow.arrow_search"),
            "arrow.survivors": self.counts["arrow.survivors"],
            "arrow.sorted_profiles.calls": calls("arrow.sorted_profiles"),
            "arrow.sorted_profiles.s": span_s("arrow.sorted_profiles"),
            "arrow.checkers.self_s": self_s(*(f"arrow.{c}" for c in ARROW_CHECKERS)),
            "cli.render.s": span_s("cli.render_document"),
            "cli.bytes_out": self.counts["cli.bytes_out"],
            "cli.load_family.s": span_s("cli.load_family_file"),
            "cli.bytes_in": self.counts["cli.bytes_in"],
            "cli.self_s": self_s("cli.main"),
        }

    def dump(self, path: str, header: dict) -> None:
        """Write every span and count of this pass as one JSON document."""
        doc = {
            **header,
            "names": self.names,
            "jobs": self.jobs,
            "counts": dict(sorted(self.counts.items())),
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "job": self.job.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# --- what to wrap -----------------------------------------------------------


def _add(key: str, value: Callable[..., int]) -> Callable:
    def count(counts: Counter, result: object, args: tuple) -> None:
        counts[key] += value(result, args)

    return count


COUNT_PROFILES_CHECKED = _add("axioms.profiles_checked", lambda r, a: r.profiles_checked)
COUNT_FAMILIES = _add("enumeration.families", lambda r, a: len(r.families))
COUNT_TABLES = _add("enumeration.families", lambda r, a: len(r))
COUNT_SURVIVORS = _add("arrow.survivors", lambda r, a: len(r))
COUNT_BYTES_OUT = _add("cli.bytes_out", lambda r, a: len(r.encode("utf-8")))
COUNT_BYTES_IN = _add("cli.bytes_in", lambda r, a: os.path.getsize(a[0]))


def _functions(core, axioms, enumeration, arrow,
               cli) -> list[tuple[str, Callable, Callable | None]]:
    """(span name, original function, count) for every wrapped function."""
    targets = [
        ("core.signatures_up_to", core.signatures_up_to, None),
        ("axioms.audit", axioms.audit, None),
        ("enumeration.enumerate_c_families", enumeration.enumerate_c_families, COUNT_FAMILIES),
        ("enumeration.enumerate_may_functions", enumeration.enumerate_may_functions,
         COUNT_TABLES),
        ("enumeration.maximal_elements", enumeration.maximal_elements, None),
        ("enumeration.plurality_artifacts", enumeration.plurality_artifacts, None),
        ("enumeration.rule_leq", enumeration.rule_leq, None),
        ("arrow.arrow_search", arrow.arrow_search, COUNT_SURVIVORS),
        ("arrow.sorted_profiles", arrow.sorted_profiles, None),
        ("cli.main", cli.main, None),
        ("cli.render_document", cli.render_document, COUNT_BYTES_OUT),
        ("cli.load_family_file", cli.load_family_file, COUNT_BYTES_IN),
    ]
    targets += [(f"axioms.{c}", getattr(axioms, c), COUNT_PROFILES_CHECKED)
                for c in AXIOM_CHECKERS]
    targets += [(f"arrow.{c}", getattr(arrow, c), None) for c in ARROW_CHECKERS]
    return targets


def _counted_profiles(counts: Counter, fn: Callable) -> Callable:
    """A generator wrapper counting every profile yielded; it takes no span,
    because a generator's time interleaves with its consumer's."""
    def generate(*args, **kwargs):
        for profile in fn(*args, **kwargs):
            counts["core.profiles_generated"] += 1
            yield profile

    generate.__wrapped__ = fn
    return generate


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route every layer boundary through ``tracer`` until the block exits."""
    import votelab
    from votelab import arrow, axioms, cli, core, enumeration, rules

    modules = {"votelab": votelab, "core": core, "rules": rules, "axioms": axioms,
               "enumeration": enumeration, "arrow": arrow, "cli": cli}
    saved: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, replacement: object) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for name, original, count in _functions(core, axioms, enumeration, arrow, cli):
            wrapped = tracer.wrap(name, original, count)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, wrapped)
        profiles = _counted_profiles(tracer.counts, core.profiles_of_size)
        for module in (core, axioms):  # core.profiles_up_to reaches it through core
            patch(module, "profiles_of_size", profiles)
        for cls in _subclasses(rules.RuleFamily):
            if "evaluate" in cls.__dict__:
                patch(cls, "evaluate", tracer.wrap("rules.evaluate", cls.__dict__["evaluate"]))
        family = rules.TabulatedFamily
        patch(family, "__init__", tracer.wrap("rules.TabulatedFamily", family.__init__))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
