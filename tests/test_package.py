import os
import subprocess
import sys
from pathlib import Path

import votelab


def test_every_export_resolves_once():
    assert len(set(votelab.__all__)) == len(votelab.__all__)
    for name in votelab.__all__:
        assert hasattr(votelab, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from votelab import *", namespace)
    assert set(votelab.__all__) <= set(namespace)


def test_import_builds_no_order_tables():
    # the CLI never loads the arrow module; the module and its exports load on
    # first use, by attribute and by star import, and build no order tables
    src = str(Path(votelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, votelab, votelab.cli; votelab.cli.build_parser(); "
            "print('votelab.arrow' in sys.modules); "
            "namespace = {}; exec('from votelab import *', namespace); "
            "print(all(name in namespace for name in votelab.__all__)); "
            "print(namespace['arrow_search'] is votelab.arrow.arrow_search); "
            "print(votelab.arrow._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True", "True", "0"]


def test_the_benchmark_tracer_finds_every_name_it_patches_and_puts_it_back(monkeypatch):
    # perfbench's tracer wraps names bound in every votelab module; removing
    # one breaks only traced benchmark runs unless a tier-1 test enters it
    from votelab import arrow, axioms, cli, core, enumeration, rules
    modules = (votelab, core, rules, axioms, enumeration, arrow, cli)

    def namespaces():
        found = {m.__name__: dict(vars(m)) for m in modules}
        for m in modules:
            for value in list(vars(m).values()):
                if isinstance(value, type) and value.__module__ == m.__name__:
                    found[f"{m.__name__}.{value.__qualname__}"] = dict(vars(value))
        return found

    before = namespaces()
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans
    with spans.instrument(spans.Tracer()):
        assert axioms.profiles_of_size is not before["votelab.axioms"]["profiles_of_size"]
        assert vars(rules.TabulatedFamily)["__init__"] \
            is not before["votelab.rules.TabulatedFamily"]["__init__"]
    assert namespaces() == before
