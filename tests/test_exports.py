import tracecensus


def test_every_exported_name_resolves():
    missing = [name for name in tracecensus.__all__ if not hasattr(tracecensus, name)]
    assert not missing
