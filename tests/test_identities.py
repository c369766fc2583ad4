import os
import subprocess
import sys
from pathlib import Path

import pytest

import psf
from psf.build import boundary_simplex
from psf.identities import run_identity_suite


def test_identity_suite_passes():
    report = run_identity_suite(scripts=20, deep_every=5)
    assert report.ok, report.failures
    assert report.checked["law_connected_sum"] > 0
    assert report.checked["link_g2_inequality"] == 20
    assert report.checked["separation_oracle_agreement"] > 0


def test_identity_suite_detects_injected_fault():
    # swap the final complex of one script for a non-pseudomanifold
    solid = boundary_simplex(5).star((0,))

    def hook(index, final):
        return solid if index == 3 else None

    report = run_identity_suite(scripts=6, deep_every=100, fault_hook=hook)
    assert not report.ok
    assert report.failed.get("pseudomanifold_closed") == 1


def test_identity_suite_rejects_deep_every_below_one():
    def hook(index, final):
        raise AssertionError("no script may run")

    for bad in (0, -3):
        with pytest.raises(ValueError, match="deep_every"):
            run_identity_suite(scripts=2, deep_every=bad, fault_hook=hook)


def test_identity_suite_rejects_scripts_below_one():
    def hook(index, final):
        raise AssertionError("no script may run")

    for bad in (0, -3):
        with pytest.raises(ValueError, match="scripts"):
            run_identity_suite(scripts=bad, fault_hook=hook)


def test_identity_suite_rejects_max_ops_below_one():
    def hook(index, final):
        raise AssertionError("no script may run")

    for bad in (0, -5):
        with pytest.raises(ValueError, match="max_ops"):
            run_identity_suite(scripts=2, max_ops=bad, fault_hook=hook)


def run_sweep_script(*args):
    script = Path(__file__).resolve().parents[1] / "scripts" / "identity_sweep.py"
    env = dict(os.environ, PYTHONPATH=str(Path(psf.__file__).parents[1]))
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_identity_sweep_script_rejects_scripts_zero():
    run = run_sweep_script("--scripts", "0")
    assert run.returncode == 2
    assert "--scripts" in run.stderr


def test_identity_sweep_script_rejects_deep_every_zero():
    run = run_sweep_script("--scripts", "1", "--deep-every", "0")
    assert run.returncode == 2
    assert "--deep-every" in run.stderr


def test_identity_sweep_script_rejects_ops_zero():
    run = run_sweep_script("--scripts", "1", "--ops", "0")
    assert run.returncode == 2
    assert "--ops" in run.stderr
