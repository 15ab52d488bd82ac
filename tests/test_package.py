import mwclust


def test_every_exported_name_resolves():
    assert len(set(mwclust.__all__)) == len(mwclust.__all__)
    missing = [name for name in mwclust.__all__ if not hasattr(mwclust, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    for name in ("generate", "rank_condition"):
        assert name not in mwclust.__all__
        assert not hasattr(mwclust, name)
    assert not hasattr(mwclust.MomentOracle, "third_moment")
