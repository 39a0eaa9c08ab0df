"""Record the reference stdout of the cli workload's six calls.

Run from the root of a checkout of the commit the references should
describe:

    python3 perfbench/record_cli_reference.py

Each call must exit with code 0.  The outputs go to ``cli_reference/`` and
the commit to ``cli_reference/manifest.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import CLI_CALLS, CLI_REFERENCE, ROOT, run_cli  # noqa: E402


def main():
    CLI_REFERENCE.mkdir(exist_ok=True)
    for name, argv in CLI_CALLS:
        code, stdout = run_cli(argv)
        if code != 0:
            sys.exit(f"error: slenderspec {' '.join(argv)} exited with {code}")
        (CLI_REFERENCE / f"{name}.out").write_bytes(stdout)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    manifest = {"commit": commit,
                "calls": {name: ["slenderspec", *argv] for name, argv in CLI_CALLS}}
    (CLI_REFERENCE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
