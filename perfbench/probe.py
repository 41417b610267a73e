"""Set-up probe: one fresh interpreter, from launch to its first op.

Usage: ``python3 probe.py <src dir> <workload> <seed> <work dir>``.  Imports
``lightstore.cli`` (what every CLI user pays), builds ``default_config()``,
runs and checks one untimed warm-up op, and prints one JSON line with the
``time.monotonic`` instant the op completed, so the launching process can
take set-up time against its own launch instant on the same clock.
"""

import sys
import time


def main() -> int:
    src, workload_name, seed, work_dir = sys.argv[1:5]
    sys.path.insert(0, src)
    t_import = time.monotonic()
    import lightstore.cli  # noqa: F401
    from lightstore.configfile import default_config
    import_ms = (time.monotonic() - t_import) * 1e3

    from pathlib import Path
    import json
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](default_config(), int(seed), Path(work_dir))
    t_op = time.monotonic()
    out = workload.op(0)
    done = time.monotonic()
    error = workload.check(out)
    workload.cleanup(out)
    print(json.dumps({"done": done, "import_ms": import_ms,
                      "first_op_ms": (done - t_op) * 1e3, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
