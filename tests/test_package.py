import hyp2


def test_public_names_are_unique_and_resolve():
    assert len(hyp2.__all__) == len(set(hyp2.__all__))
    missing = [name for name in hyp2.__all__ if not hasattr(hyp2, name)]
    assert missing == []
