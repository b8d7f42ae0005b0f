"""Record the reports of every workload at the default seed into golden.json.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known good: the benchmark then
fails any op whose report at the default seed drifts from the recording
(exact-mode digests must match; float quantities must agree to 1e-12).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import pinned_env  # noqa: E402


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, __file__], pinned_env())
    from stabaudit import harness

    golden = {}
    for workload in workloads.WORKLOADS:
        entries = {}
        for cfg in workloads.configs(workload, workloads.DEFAULT_SEED):
            code, bundle = harness.run_config(cfg)
            if code != 0:
                raise SystemExit(f"{workload}/{cfg['name']}: exit code {code}")
            report = checks.strict_loads(json.dumps(bundle))
            entries[cfg["name"]] = checks.golden_entry(checks.body(report))
        golden[workload] = entries
        print(f"{workload}: {len(entries)} reports")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
