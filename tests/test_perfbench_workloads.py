"""One small in-process round of each benchmark workload completes.

`perfbench/workloads.py` calls the library the way the benchmark does
(`harness.make_agent_policy`, `MetaSac.meta_train`, `Mlp.params`,
`run_experiment`, ...). A signature change there turns benchmark
operations into failures; this test catches it in seconds, where
`perfbench/smoke.py` takes a fresh process per workload.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Import perfbench/<name>.py under its bare name, as the benchmark
    does (workloads.py imports spans that way, and its dataclasses look
    their module up in sys.modules)."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, _PERFBENCH / f"{name}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_tiny_round_has_no_failed_operation(name, tmp_path):
    size = workloads.SIZES["tiny"]
    state = workloads.setup(name, 1, size, str(tmp_path))
    r = workloads.run_round(name, state, size)
    assert r.failed == 0, r.problems
    assert r.attempted > 0
