import tracecensus
from tracecensus import census, quadforms

# the class-cycle route is the census weights' oracle, not package API; the
# benchmark still binds these names in their modules
ORACLE_ROUTE = {
    quadforms: ("class_number", "class_number_and_reps", "fundamental_unit",
                "pell_from_known", "reduced_forms"),
    census: ("line_weight",),
}


def test_every_exported_name_resolves():
    missing = [name for name in tracecensus.__all__ if not hasattr(tracecensus, name)]
    assert not missing
    assert len(tracecensus.__all__) == 26
    for module, names in ORACLE_ROUTE.items():
        for name in names:
            assert name not in tracecensus.__all__, name
            assert callable(getattr(module, name)), (module.__name__, name)
