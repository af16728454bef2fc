"""Known-bad: a timer is only stopped on one branch.

The start/stop *counts* balance (one each), so counting call sites cannot
see this; the path-sensitive typestate rule reports the branch that exits
with the timer still running.  Expected finding: timer-typestate at the
creation line.
"""


def work(registry, flag):
    t = registry.timer("phase")
    t.start()
    if flag:
        t.stop()
