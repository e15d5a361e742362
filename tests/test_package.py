import inspect
from pathlib import Path

import eakf
import eakf.demo
import eakf.update


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from eakf import *", namespace)
    assert set(eakf.__all__) <= namespace.keys()


def test_the_analysis_has_no_mode():
    # the misordered analysis lives in eakf.demo, next to the demonstration
    for name in ("AdjustmentMatrix", "MODE_CORRECT", "MODE_MISORDERED", "_displacing_permutation"):
        assert name not in eakf.__all__ and not hasattr(eakf.update, name), name


def test_the_misordered_analysis_draws_nothing():
    # the pitfall's order is the ascending one, derived, not sampled
    assert list(inspect.signature(eakf.demo.misordered_analysis).parameters) == ["ens", "obs"]
    assert not hasattr(eakf.demo, "_displacing_permutation")
    assert "default_rng" not in Path(eakf.demo.__file__).read_text()
