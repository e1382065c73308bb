"""The example scripts must stay runnable.

The deterministic examples (quickstart, campus deployment, arms race)
must also print exactly their committed output, byte for byte, under
``tests/fixtures/examples/``: a change that claims to move no
simulated outcome leaves them unchanged.  The live loopback proxy uses
real sockets and the method comparison is slow, so those two keep
substring checks only.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
PINNED = pathlib.Path(__file__).parent / "fixtures" / "examples"


def run_example(name: str, timeout: float = 120.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)], capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"}, timeout=timeout)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    return result.stdout.decode("utf-8")


def pinned(name: str) -> str:
    """The committed stdout of a deterministic example."""
    return (PINNED / f"{name}.txt").read_bytes().decode("utf-8")


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Direct access" in out
    assert "ScholarCloud" in out
    assert "first visit" in out
    assert "none" in out  # GFW classification of blinded flows
    assert out == pinned("quickstart")


def test_campus_deployment():
    out = run_example("campus_deployment.py")
    assert "ICP registration filed" in out
    assert "no-action" in out            # registered service survives
    assert "shutdown" in out             # grey proxy does not
    assert "2.2 USD" in out
    assert out == pinned("campus_deployment")


def test_gfw_arms_race():
    out = run_example("gfw_arms_race.py")
    assert "CONFIRMED PROXY" in out
    assert "server IP blocked: True" in out
    assert "rotate the codec" in out
    assert "signature is stale" in out
    assert out == pinned("gfw_arms_race")


def test_live_loopback_proxy():
    out = run_example("live_loopback_proxy.py")
    assert "HTTP/1.1 200" in out
    assert "403 Forbidden" in out
    assert "plaintext visible: False" in out


@pytest.mark.slow
def test_method_comparison():
    out = run_example("method_comparison.py", timeout=300.0)
    assert "scholarcloud" in out
    assert "tor" in out
