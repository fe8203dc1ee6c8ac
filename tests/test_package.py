"""Public surface of the package."""

import ctrlflow


def test_all_names_resolve():
    missing = [name for name in ctrlflow.__all__ if not hasattr(ctrlflow, name)]
    assert missing == []
    assert len(set(ctrlflow.__all__)) == len(ctrlflow.__all__)
