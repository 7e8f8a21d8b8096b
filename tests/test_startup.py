"""Start-up guard: importing the package never loads scipy.

scipy is needed only by the UBER analysis (``repro.device.uber``) and
the bit-accurate soft-sensing channel (``repro.ecc.ldpc.channel``), and
each imports it where it is called.  Loading ``scipy.stats`` at import
time used to cost most of ``import repro`` and of a run's peak RSS, so
these tests run fresh interpreters and check ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Expression listing the scipy modules loaded in the running interpreter.
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_python(source: str) -> str:
    """Run ``source`` in a fresh interpreter with ``PYTHONPATH=src``;
    ``-B`` keeps it from writing bytecode next to the imported files."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-B", "-c", textwrap.dedent(source)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize(
    "imports",
    [
        "import repro",
        "import repro.__main__",
        f"sys.path.insert(0, {str(REPO / 'perf')!r}); import workloads",
    ],
    ids=["repro", "repro.__main__", "perf.workloads"],
)
def test_import_loads_no_scipy(imports):
    out = run_python(f"import json, sys\n{imports}\nprint(json.dumps({SCIPY_MODULES}))\n")
    assert json.loads(out) == []


def test_scipy_loads_on_demand():
    out = run_python(
        f"""
        import json, sys

        from repro.device.uber import LDPC_CODEWORD_BITS, LDPC_INFO_BITS, uber
        from repro.ecc.ldpc import NandReadChannel

        loaded = {{"import": {SCIPY_MODULES}}}
        channel = NandReadChannel(1e-3, 2)
        loaded["channel"] = ["scipy.special" in sys.modules, "scipy.stats" in sys.modules]
        value = uber(40, LDPC_CODEWORD_BITS, LDPC_INFO_BITS, 1e-3)
        loaded["uber"] = "scipy.stats" in sys.modules
        print(json.dumps({{"loaded": loaded, "uber": value, "sigma": channel.sigma,
                          "regions": int(channel.region_llrs.size)}}))
        """
    )
    report = json.loads(out)
    # The channel needs scipy.special only; the UBER tail needs scipy.stats.
    assert report["loaded"] == {"import": [], "channel": [True, False], "uber": True}
    assert 0.0 < report["uber"] < 1.0
    # Q(1 / sigma) = 1e-3 puts 1 / sigma near 3.09.
    assert 1.0 / report["sigma"] == pytest.approx(3.0902, abs=1e-4)
    assert report["regions"] == 4
