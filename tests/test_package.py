import inspect
import subprocess
import sys
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


def test_index_operator_and_variances_load_no_scipy():
    # scipy is imported only for a matrix R and by the oracle: neither
    # ``import eakf`` nor a twin run (H = np.arange(n), R as variances) loads it
    code = """
import contextlib, io, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
import eakf, eakf.cli
after_import = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    status = eakf.cli.main(["twin", "--steps", "1"])
print(after_import, status, scipy_modules())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0 []\n"


def test_readme_quick_start_runs():
    # the README's python block shows both operator forms; it must keep running
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "operator=[[1.0]]" in block and "operator=[0]" in block
    exec(compile(block, "README.md", "exec"), {})
