import votelab


def test_every_export_resolves_once():
    assert len(set(votelab.__all__)) == len(votelab.__all__)
    for name in votelab.__all__:
        assert hasattr(votelab, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from votelab import *", namespace)
    assert set(votelab.__all__) <= set(namespace)
