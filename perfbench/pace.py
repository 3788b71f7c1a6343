"""Paced time: a command's wall time at the host's current speed.

On a shared host the speed of one CPU drifts by a quarter within a minute,
so the wall time of the same command does too.  The benchmark runs each
child on the same single CPU as itself.  About once a second it stops the
child (SIGSTOP), runs a short burst of a fixed reference workload
(``Chunk``) and lets the child go on (SIGCONT).  The bursts sample the
speed of that CPU while the child runs; ``paced_seconds`` scales the
child's own running time by the reference's speed against its nominal
speed.  A command that does the same work reads the same paced time on a
fast and on a slow stretch of the host.

Run as a script, it serves bursts to the benchmark (``Pacer``).
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

# Nominal wall time of one chunk: about its median on a 2-CPU "Intel(R)
# Xeon(R) Processor" host.  It sets the scale of paced seconds, not their
# ratios.
NOMINAL_CHUNK_S = 0.025
BURST_CHUNKS = 2
INTERVAL_S = 0.5


class Chunk:
    """One fixed unit of work, with the kinds of work depwalk does: CSV
    parsing, lookups in a table of some megabytes, random walks and the
    small numpy sorts and reductions of a forest's split search.  The same inputs every time it runs."""

    def __init__(self):
        import numpy as np  # here, so that importing this module stays light

        self.np = np
        rng = random.Random(12345)
        self.lines = [f"10.0.{rng.randrange(256)}.{rng.randrange(256)},10.1.0.{rng.randrange(64)},"
                      f"{rng.randrange(1024, 65536)},{rng.choice((53, 80, 443, 5432))},"
                      f"TCP,{rng.randrange(10**6)},{rng.randrange(10**6)}" for _ in range(4000)]
        self.table = {i * 7919 % 1000003: (i, str(i)) for i in range(120_000)}
        self.keys = [rng.randrange(1000003) for _ in range(40000)]
        self.adjacency = {v: [rng.randrange(200) for _ in range(8)] for v in range(200)}
        self.values = np.random.default_rng(5).random((300, 30))
        self.labels = self.values[:, 0] > 0.5

    def __call__(self) -> int:
        total = 0
        seen = set()
        for line in self.lines:
            src, dst, sport, dport, proto, start, end = line.split(",")
            seen.add((src, dst, int(dport)))
            total += int(end) - int(start) + int(sport) % 7
        table = self.table
        for key in self.keys:
            hit = table.get(key)
            if hit is not None:
                total += hit[0]
        rng = random.Random(7)
        for start in range(2000):
            v = start
            for _ in range(5):
                v = rng.choice(self.adjacency[v % 200])
            total += v
        np = self.np
        for n in (300, 150, 80, 40, 20):  # a Gini split scan at each tree depth
            ys = self.labels[:n]
            for f in range(self.values.shape[1]):
                vals = self.values[:n, f]
                order = np.argsort(vals, kind="stable")
                sv, sy = vals[order], ys[order]
                cut = np.nonzero(sv[1:] > sv[:-1])[0]
                left_n = cut + 1
                pl = np.cumsum(sy)[cut] / left_n
                weighted = left_n * (1.0 - pl * pl - (1.0 - pl) ** 2)
                total += int(np.argmin(np.where(left_n >= 2, weighted, np.inf)))
        return total + len(seen)


class Reference:
    """Runs bursts of chunks."""

    def __init__(self):
        self.chunk = Chunk()
        self.chunk()  # warm-up

    def burst(self) -> float:
        """Run one burst; its wall time."""
        start = time.perf_counter()
        for _ in range(BURST_CHUNKS):
            self.chunk()
        return time.perf_counter() - start


def paced_seconds(running_s: float, bursts: int, burst_s: float) -> float:
    """``running_s`` of a child's own running time, at the speed that
    ``bursts`` bursts taking ``burst_s`` seconds in all showed, in seconds
    at the nominal speed."""
    return running_s * NOMINAL_CHUNK_S * bursts * BURST_CHUNKS / burst_s


class Pacer:
    """A Reference in a process of its own, so that the benchmark stays
    small: a child's peak RSS (wait4) counts the image of the process that
    started it.  The process inherits this one's CPU affinity."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("perfbench/pace.py did not start")

    def burst(self) -> float:
        self.proc.stdin.write(b"burst\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        """Stop the process and wait for it."""
        self.proc.stdin.close()
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    """Serve bursts: one per line on stdin, its wall time on stdout."""
    reference = Reference()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while sys.stdin.buffer.readline():
        sys.stdout.write(f"{reference.burst()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
