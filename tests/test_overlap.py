"""The projection ``inv(L) H Z`` on the worker thread while ``Z`` is factored.

Every test that needs the overlapped path forces it (:func:`forced`): the
size threshold is set to 0 and the CPU count to 2, so the tests also run,
and must pass, in a process bound to one CPU (``taskset -c 0``).
"""

import concurrent.futures
import multiprocessing
import subprocess
import sys
import threading

import numpy as np
import pytest

import eakf.update
from eakf.demo import misordered_analysis
from eakf.ensemble import ForecastEnsemble, ObservationModel
from eakf.instances import ALL_CATEGORIES, random_instance
from eakf.update import analyze, kalman_gain

SERIAL, OVERLAPPED = "serial", "overlapped"


def forced(monkeypatch, path):
    """Make every analysis with a matrix ``H`` take ``path``; return the threads ``H`` ran on."""
    monkeypatch.setattr(eakf.update, "_OVERLAP_MIN_WORK", 0 if path == OVERLAPPED else 2**62)
    monkeypatch.setattr(eakf.update, "_cpus", lambda: 2)
    threads, observed = [], eakf.update._observed

    def recorded(*args):
        threads.append(threading.current_thread())
        return observed(*args)

    monkeypatch.setattr(eakf.update, "_observed", recorded)
    return threads


def dense_problem(n, m, p, seed=0, dense_r=False):
    rng = np.random.default_rng(seed)
    ens = ForecastEnsemble(rng.standard_normal((n, m)))
    if dense_r:
        low = rng.standard_normal((p, p)) / np.sqrt(p)
        covariance = low @ low.T + np.eye(p)
    else:
        covariance = rng.uniform(0.5, 2.0, p)
    obs = ObservationModel(rng.standard_normal((p, n)) / np.sqrt(n), covariance, rng.standard_normal(p))
    return ens, obs


def dense_instances():
    """Seeded small instances with a matrix ``H``: every category, a partial ``H`` as one-hot rows."""
    for seed in range(60):
        for category in ALL_CATEGORIES:
            inst = random_instance(seed, category)
            ens, obs = inst.ensemble, inst.observation
            if obs.operator.ndim == 1:
                obs = ObservationModel(np.eye(ens.state_dim)[obs.operator], obs.covariance, obs.observation)
            yield ens, obs
    # rank-deficient (n > m), more observations than members, and a dense R
    yield dense_problem(300, 20, 60, seed=1, dense_r=True)
    yield dense_problem(40, 60, 50, seed=2, dense_r=True)
    yield dense_problem(200, 30, 40, seed=3)


def assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def outputs(ens, obs):
    res, bad = analyze(ens, obs), misordered_analysis(ens, obs)
    return res.mean, res.perturbations, bad.mean, bad.perturbations, kalman_gain(ens, obs)


def test_both_paths_give_the_same_bits(monkeypatch):
    results = {}
    for path in (SERIAL, OVERLAPPED):
        threads = forced(monkeypatch, path)
        results[path] = [outputs(ens, obs) for ens, obs in dense_instances()]
        on_worker = [t is not threading.main_thread() for t in threads]
        assert all(on_worker) if path == OVERLAPPED else not any(on_worker)
    assert len(results[SERIAL]) == len(results[OVERLAPPED]) == 60 * len(ALL_CATEGORIES) + 3
    for serial, overlapped in zip(results[SERIAL], results[OVERLAPPED]):
        for a, b in zip(serial, overlapped):
            assert_same_bits(a, b)


@pytest.mark.parametrize("n, m, p", [(1000, 40, 250), (2000, 40, 500)])
def test_the_threshold_path_gives_the_serial_bits(monkeypatch, n, m, p):
    # the default threshold overlaps these sizes when two CPUs may be used
    ens, obs = dense_problem(n, m, p)
    default = eakf.update._OVERLAP_MIN_WORK
    forced(monkeypatch, SERIAL)
    serial = analyze(ens, obs)
    monkeypatch.undo()
    threads = forced(monkeypatch, OVERLAPPED)
    monkeypatch.setattr(eakf.update, "_OVERLAP_MIN_WORK", default)
    overlapped = analyze(ens, obs)
    assert threads and threads[0] is not threading.main_thread()
    assert_same_bits(serial.mean, overlapped.mean)
    assert_same_bits(serial.perturbations, overlapped.perturbations)


@pytest.mark.parametrize("run", [analyze, kalman_gain], ids=["analyze", "kalman_gain"])
def test_overlapped_whitenings_per_analysis(monkeypatch, run):
    # the worker returns H x_f unwhitened: the caller whitens the innovation
    forced(monkeypatch, OVERLAPPED)
    calls, whiten = [], ObservationModel.whiten

    def counted(self, *args, **kwargs):
        calls.append(threading.current_thread())
        return whiten(self, *args, **kwargs)

    monkeypatch.setattr(ObservationModel, "whiten", counted)
    run(*dense_problem(30, 8, 12))
    assert len(calls) == 2
    assert calls[0] is not threading.main_thread() and calls[1] is threading.main_thread()


def test_the_worker_error_reaches_the_caller(monkeypatch):
    forced(monkeypatch, OVERLAPPED)
    ens, _ = dense_problem(6, 4, 3)
    obs = ObservationModel(np.ones((3, 7)), [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^observation operator has 7 state columns, expected 6$"):
        analyze(ens, obs)
    error = RuntimeError("raised on the worker")

    def failing(self, *args, **kwargs):
        raise error

    monkeypatch.setattr(ObservationModel, "whiten", failing)
    with pytest.raises(RuntimeError) as raised:
        analyze(*dense_problem(6, 4, 3))
    assert raised.value is error


@pytest.mark.parametrize("path", [SERIAL, OVERLAPPED])
def test_the_svd_error_comes_before_the_worker_error(monkeypatch, path):
    # with both halves failing, the error is svd_full's on either path
    forced(monkeypatch, path)
    ens = ForecastEnsemble(np.zeros((0, 3)))
    obs = ObservationModel(np.ones((2, 5)), [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="^svd_full: empty matrix$"):
        analyze(ens, obs)


@pytest.mark.parametrize("path", [SERIAL, OVERLAPPED])
def test_the_callers_errstate_holds_on_the_worker(monkeypatch, path):
    # whitening overflows; under the caller's errstate that warns on neither
    # path (a warning is an error in this suite), and the infinite Y is refused
    forced(monkeypatch, path)
    ens = ForecastEnsemble(np.array([[1e200, -1e200, 0.0], [1.0, 2.0, 3.0]]))
    obs = ObservationModel(np.array([[1.0, 1.0]]), [1e-300], [0.0])
    refused = "^ordered_eig_psd input: entries must be finite"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=refused):
        analyze(ens, obs)


def test_one_cpu_runs_the_serial_path(monkeypatch):
    forced(monkeypatch, OVERLAPPED)
    monkeypatch.setattr(eakf.update, "_cpus", lambda: 1)

    def refused():
        raise AssertionError("the worker was asked for on one CPU")

    monkeypatch.setattr(eakf.update, "_executor", refused)
    analyze(*dense_problem(30, 8, 12))


def index_problem(n, m, p):
    ens, obs = dense_problem(n, m, p)
    return ens, ObservationModel(np.arange(p), obs.covariance, obs.observation)


@pytest.mark.parametrize("make", [lambda: dense_problem(500, 40, 100), lambda: index_problem(5000, 40, 500)],
                         ids=["small-matrix", "large-indices"])
def test_the_cpu_count_is_read_only_above_the_size(monkeypatch, make):
    def refused():
        raise AssertionError("the CPU count was read")

    ens, obs = make()
    monkeypatch.setattr(eakf.update, "_cpus", refused)
    analyze(ens, obs)


def test_the_worker_runs_no_traced_public_function(monkeypatch):
    # bench/tracer.py keeps one span stack for all threads: the worker may
    # run private functions and ObservationModel methods only
    forced(monkeypatch, OVERLAPPED)
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("eakf"):
            called.append(frame.f_code)

    worker = eakf.update._executor()
    worker.submit(sys.setprofile, profile).result()
    try:
        analyze(*dense_problem(30, 8, 12, dense_r=True))
    finally:
        worker.submit(sys.setprofile, None).result()
    public = {code for code in called if not code.co_name.startswith("_") or code.co_name == "__post_init__"}
    assert public == {ObservationModel.apply.__code__, ObservationModel.whiten.__code__}


def test_concurrent_callers_share_one_worker(monkeypatch):
    # more callers than CPUs, switching threads often: the worker is made
    # once, and each caller gets the serial bits of its own problem
    forced(monkeypatch, SERIAL)
    problems = [dense_problem(40, 8, 20, seed=seed, dense_r=seed % 2 == 1) for seed in range(4)]
    expected = [analyze(*problem) for problem in problems]
    forced(monkeypatch, OVERLAPPED)
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(eakf.update, "_worker", None)
    same = []

    def caller(index):
        for _ in range(25):
            result = analyze(*problems[index])
            same.append(np.array_equal(result.perturbations, expected[index].perturbations))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(index,)) for index in range(len(problems))]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert same == [True] * 100 and len(made) == 1
    made[0].shutdown()


def _analyze_in_child(expected_mean, expected_perturbations):
    # the overlap is still forced here: the child has the parent's module state
    assert eakf.update._worker is None
    result = analyze(*dense_problem(30, 8, 12))
    assert eakf.update._worker is not None
    assert np.array_equal(result.mean, expected_mean)
    assert np.array_equal(result.perturbations, expected_perturbations)


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_starts_its_own_worker(monkeypatch):
    forced(monkeypatch, OVERLAPPED)
    expected = analyze(*dense_problem(30, 8, 12))
    assert eakf.update._worker is not None
    child = multiprocessing.get_context("fork").Process(
        target=_analyze_in_child, args=(expected.mean, expected.perturbations)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in an overlapped analysis")
    assert child.exitcode == 0


THREAD_COUNTS = """
import sys
import threading

before = threading.active_count()
import numpy as np
import eakf

counts = [threading.active_count()]
eakf.run_twin(eakf.TwinConfig(steps=3, n=200, m=40, seed=0))
counts.append(threading.active_count())
# scipy, which the verify oracle loads, imports concurrent.futures itself
imported = "concurrent.futures" in sys.modules
eakf.run_verify(eakf.VerifyConfig(50, 0, True, True, True))
counts.append(threading.active_count())
rng = np.random.default_rng(0)
n, m, p = 20000, 40, 1000
ens = eakf.ForecastEnsemble(rng.standard_normal((n, m)))
obs = eakf.ObservationModel(rng.choice(n, p, replace=False), rng.uniform(0.5, 2.0, p), rng.standard_normal(p))
eakf.analyze(ens, obs)
counts.append(threading.active_count())
print(imported, before, *counts)
"""


def test_no_thread_is_started_below_the_threshold():
    # nor is the executor's module imported before a twin run loads scipy
    proc = subprocess.run([sys.executable, "-c", THREAD_COUNTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported, *counts = proc.stdout.split()
    assert imported == "False" and len(counts) == 5 and set(counts) == {counts[0]}, proc.stdout
