"""Known-bad: a timer started through a chained call keeps no handle.

``registry.timer("phase").start()`` discards the Timer, so no stop() can
ever name it and the phase interval is never recorded.  Expected finding:
timer-typestate at the chained call's line.
"""


def work(registry):
    registry.timer("phase").start()
    return 0
