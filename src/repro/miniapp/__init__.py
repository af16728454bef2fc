"""The oscillator miniapplication (Sec. 3.3).

"As a prototypical data source, we implemented a miniapplication ... that
simulates a collection of periodic, damped, or decaying oscillators.  Placed
on a grid, each oscillator is convolved with a Gaussian of a prescribed
width. ... The code iteratively fills the grid cells with the sum of the
convolved oscillator values; the computation on each rank takes O(mN^3) per
time step."

This package reproduces that code: :class:`Oscillator` evaluates one
oscillator's time signal and Gaussian footprint, and
:class:`OscillatorSimulation` is the SPMD miniapp with regular decomposition
and a SENSEI data adaptor.
"""

from repro.miniapp.oscillator import Oscillator, OscillatorKind
from repro.miniapp.simulation import OscillatorSimulation

__all__ = [
    "Oscillator",
    "OscillatorKind",
    "OscillatorSimulation",
]
