"""The server child: one fresh interpreter hosting every party's listener.

``python3 bench/server_child.py WORKLOAD SEED [SPEC_PATH ...]`` builds the
workload's servers, writes one JSON line with the listening ports to its
standard output, and serves until its standard input reaches end of file —
which is also what it sees when the parent dies. The load driver starts it
(``bench.loadgen.ServerChild``); nothing else should.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import adapters  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    workload_name, seed, spec_paths = argv[0], int(argv[1]), argv[2:]
    # The ports line is the only thing the parent may read: keep the pipe
    # to ourselves and point anything the program prints at stderr.
    ports_pipe = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    ports, stop = adapters.serve(WORKLOADS[workload_name], seed, spec_paths)
    ports_pipe.write(json.dumps(ports) + "\n")
    ports_pipe.close()
    sys.stdin.buffer.read()  # parked until the parent says stop, or dies
    stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
