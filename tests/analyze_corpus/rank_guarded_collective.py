"""Known-bad: a collective guarded by a rank test deadlocks the job.

Expected finding: rank-divergent-collectives at the ``if`` line (the true
path runs [reduce, barrier], the false path only [barrier]).
"""


def exchange(comm, data):
    if comm.rank == 0:
        comm.reduce(data)
    comm.barrier()
    return data
