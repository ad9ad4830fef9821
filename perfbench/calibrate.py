"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same op can take 30% longer for minutes at a time
because of work outside this process; the kernel is slowed by the same
contention, so op times are reported scaled by how much slower the
kernel ran next to them than its reference time.  The kernel does not
touch `mklab`, so a change to the program moves the scaled times exactly
as it moves the raw ones.  It mixes the kinds of work the ops do:
NumPy rank-one updates on a few-MB array, pointer chasing through
lists and NumPy scalars in the interpreter, and dict churn, float
formatting and JSON parsing.
"""

import json
import subprocess
import sys
import time

import numpy as np

#: kernel time on a quiet host of the kind named in the run's provenance
REFERENCE_S = 0.048


class Calibrator:
    """Runs the kernel on request in a helper process.

    The helper keeps the kernel's memory out of the measuring process's
    peak RSS.  It sleeps on its input pipe while the ops run.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def kernel_s(self) -> float:
        """Wall time of one run of the reference kernel."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _kernel() -> float:
    rng = np.random.default_rng(0)
    tab = rng.random((400, 1500))  # a few MB, like the dense tableau
    vector = rng.random(8000)
    parent = [int(v) for v in rng.integers(0, 2000, 2000)]
    heads = rng.integers(0, 2000, 2000)
    start = time.perf_counter()
    for i in range(16):
        tab -= 1e-3 * np.outer(tab[:, i], tab[i])
        int(np.argmin(tab[i]))
    depth = 0
    for _ in range(8):  # pointer chasing in the interpreter, like a tree walk
        node = 0
        for _ in range(4000):
            node = int(heads[parent[node]])
            depth += node & 1
    table = {k: [k, k * 0.5] for k in range(8000)}
    total = sum(v[1] for v in table.values())
    json.loads(json.dumps(vector.tolist()))
    if not np.isfinite(tab).all() or total <= 0 or depth < 0:
        raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - start


def to_reference(wall: float, kernel: float) -> float:
    """A wall time scaled to reference host speed, given a kernel time next to it."""
    return wall * REFERENCE_S / kernel


def scaled(walls: list, kernels: list) -> list:
    """Each op's wall time at reference host speed.

    `kernels` has one more entry than `walls`: kernel i runs just before
    op i and kernel i + 1 just after it.
    """
    return [to_reference(wall, (before + after) / 2)
            for wall, before, after in zip(walls, kernels, kernels[1:])]


if __name__ == "__main__":
    _kernel()  # the first run pays one-time costs
    for _request in sys.stdin:
        print(repr(_kernel()), flush=True)
