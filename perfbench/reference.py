"""Fixed pure-Python work that measures how fast the machine runs Python now.

    python3 perfbench/reference.py

The work never changes and imports nothing from the program: big-integer
arithmetic, tuple hashing, dict and set updates and sorting on a working set
of a few MB, the kinds of operation the f1g jobs spend their time in.  run.py
starts it as a process of its own after every job, as it starts the jobs,
and divides the jobs' times by its mean time over the run.  A shared host
that runs everything slower for a while slows the jobs and the reference
alike and leaves that ratio where it was.  It prints a checksum, so the
runner can tell that the whole work ran.
"""

from __future__ import annotations

ROUNDS = 2
SIZE = 40_000
# What work() returns; a run that prints anything else did not do the work.
EXPECTED = 45472773385133962258595599122015367067


def work() -> int:
    total = 0
    for r in range(ROUNDS):
        table = {}
        seen = set()
        for i in range(SIZE):
            key = (i * 7919 + r) % 10007, i % 97
            table[key] = table.get(key, 0) + i * i
            seen.add(key[0] ^ key[1])
        rows = sorted(((v % 65521, k) for k, v in table.items()), reverse=True)
        acc = 1
        for value, (a, b) in rows[:2000]:
            acc = (acc * (value + a + 1) + b) % (1 << 127)
        total ^= acc + len(seen)
    return total


if __name__ == "__main__":
    print(work())
