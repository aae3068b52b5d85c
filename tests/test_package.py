import bernwave


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from bernwave import *", namespace)
    missing = [name for name in bernwave.__all__ if name not in namespace]
    assert missing == []
    assert all(hasattr(bernwave, name) for name in bernwave.__all__)
