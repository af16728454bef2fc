"""The five whole-run workloads; ``bench.spec.WORKLOADS`` says why each is
here.  Every module exposes ``run(plan, seed) -> dict`` (one worker run)."""
