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

