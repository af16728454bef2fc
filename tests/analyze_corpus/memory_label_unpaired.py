"""Known-bad: memory labels that no function of the module pairs.

No single function both allocates and frees any label here, so there is
no path to check; the module-scope pass of the memory typestate rule
reports each unpaired label at its first call site.  Expected findings:
- memory-typestate at the ``a::buffer`` allocate (never freed anywhere)
- memory-typestate at the ``b::buffer`` free (never allocated anywhere)
- memory-typestate at the ``c::scratch`` allocate (its function never
  frees it, and no other function does)
"""


class Analysis:
    def initialize(self):
        self.memory.allocate(1024, label="a::buffer")

    def finalize(self):
        self.memory.free(1024, label="b::buffer")


def work(memory):
    memory.allocate(64, label="c::scratch")
