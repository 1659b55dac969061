import odflow


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from odflow import *", namespace)
    for name in odflow.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(odflow, name)
    assert len(set(odflow.__all__)) == len(odflow.__all__)
