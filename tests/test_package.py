import qclique


def test_every_exported_name_resolves():
    missing = [name for name in qclique.__all__ if not hasattr(qclique, name)]
    assert missing == []
    assert len(set(qclique.__all__)) == len(qclique.__all__)
