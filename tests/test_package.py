import futurity


def test_public_names_resolve_once():
    names = futurity.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(futurity, name) is not None
