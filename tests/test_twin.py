import numpy as np
import pytest

import eakf.linalg
import eakf.twin
import eakf.update
from eakf.twin import TwinConfig, run_twin


def test_defaults_complete_and_calibrated():
    report = run_twin(TwinConfig(steps=120, seed=2))
    assert report["analyses"] == 120
    assert report["all_finite"] is True
    assert report["rmse_mean_last_half"] > 0.0
    assert report["spread_mean_last_half"] > 0.0


def test_degenerate_free_run_limit(monkeypatch):
    # no model noise, enormous observation errors, neutral dynamics: the
    # analysis barely moves and the run must stay finite end to end
    monkeypatch.setattr(eakf.twin, "DYNAMICS_DECAY", 1.0)
    monkeypatch.setattr(eakf.twin, "MODEL_NOISE_VAR", 0.0)
    monkeypatch.setattr(eakf.twin, "OBS_NOISE_VAR", 1e6)
    report = run_twin(TwinConfig(steps=50, seed=1))
    assert report["all_finite"] is True
    assert np.isfinite(report["rmse_final"])


def test_deterministic_metrics():
    a = run_twin(TwinConfig(steps=40, seed=11))
    b = run_twin(TwinConfig(steps=40, seed=11))
    assert a == b


def test_spread_is_the_trace_of_the_analysis_covariance(monkeypatch):
    results = []
    analyze = eakf.twin.analyze

    def recording_analyze(*args, **kwargs):
        results.append(analyze(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(eakf.twin, "analyze", recording_analyze)
    cfg = TwinConfig(steps=50, n=20, m=8, seed=4)
    report = run_twin(cfg)
    assert len(results) == len(report["series"])
    for row, res in zip(report["series"], results):
        expected = np.sqrt(np.trace(res.covariance) / cfg.n)
        assert abs(row["spread"] - expected) <= 1e-15 * expected, row


@pytest.mark.parametrize("kwargs", [{"steps": 0}, {"m": 1}, {"n": 0}])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        TwinConfig(**kwargs)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TwinConfig(seed=-1)


def test_every_cycle_takes_the_whole_state_route(monkeypatch):
    # H = np.arange(n) with one variance: each cycle reduces [Z | e] once
    # and never reduces Y B
    reductions, eigs = [], []
    r_svd, ordered = eakf.linalg._r_svd, eakf.update.ordered_eig_psd
    monkeypatch.setattr(eakf.linalg, "_r_svd", lambda *args: reductions.append(args) or r_svd(*args))
    monkeypatch.setattr(eakf.update, "ordered_eig_psd", lambda *args: eigs.append(args) or ordered(*args))
    report = run_twin(TwinConfig(steps=5, n=20, m=8))
    assert report["analyses"] == 5
    assert len(reductions) == 5 and not eigs
