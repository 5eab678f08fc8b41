"""Set-up probe: ``python -m perfbench.setup_probe <workload> <scratch>``.

Imports the workload (and so the layers it drives), runs its ``setup()``
and prints ``ready``.  The parent times this from process spawn, which
is the set-up cost a user of the in-process workloads pays.
"""

from __future__ import annotations

import importlib
import sys


def main(argv: list[str]) -> int:
    workload, scratch = argv
    importlib.import_module(f"perfbench.workloads.{workload}").setup(scratch)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
