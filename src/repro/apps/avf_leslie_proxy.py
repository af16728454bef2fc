"""AVF-LESLIE proxy: compressible finite-volume temporal mixing layer.

AVF-LESLIE "solves the reactive multi-species compressible Navier-Stokes
equations using a finite volume discretization upon a Cartesian grid"
(Sec. 4.2.2); the benchmark problem is a temporally evolving planar mixing
layer (TML): "two fluid layers slide past one another ... subject to
inviscid instabilities and can evolve from largely 2D laminar flow into
fully developed, 3D homogeneous turbulent flow".

The proxy solves the 3-D compressible Euler equations plus a passive scalar
(5+1 conserved variables) with Rusanov (local Lax-Friedrichs) fluxes and a
two-stage Runge-Kutta integrator -- the same data layout, halo pattern, and
per-cell cost structure as the production LES code, minus
chemistry/viscosity.  Domain decomposition is slab (along x) with periodic
halo exchange over the simulated MPI runtime; y is a reflecting (slip)
boundary sandwiching the shear layer; z is periodic.

The SENSEI adaptor registers the primitive fields and a derived vorticity
magnitude, removing halo (ghost) cells by slicing -- AVF-LESLIE's adaptor
"calculates vorticity magnitude and exposes data array slices (to remove
ghost cells)".
"""

from __future__ import annotations

import functools

import numpy as np

from repro.analysis.fields import vorticity_magnitude
from repro.core.generic import SimulationDataAdaptor
from repro.mpi import MAX
from repro.data import Association, ImageData
from repro.util.decomp import Extent, block_decompose_1d
from repro.util.timers import TimerRegistry, timed

GAMMA = 1.4
_NG = 1  # halo width (first-order Rusanov stencil)


def mixing_layer_state(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    mach: float = 0.4,
) -> dict[str, np.ndarray]:
    """Primitive initial condition for the temporal mixing layer.

    Two streams at +/- U (``U = mach * c``) separated by tanh shear layers
    of thickness 0.05, with a sinusoidal perturbation (2 % of ``U``) to seed
    the Kelvin-Helmholtz rollup, uniform density/pressure, and a passive scalar
    marking the fast stream.  The profile uses the standard
    periodic-box double layer (shear at y = 0.25 and y = 0.75) so the whole
    domain is triply periodic -- the usual TML-in-a-box setup.
    """
    c0 = 1.0  # sound speed of the uniform state (rho = 1, p = 1/gamma)
    delta, perturbation = 0.05, 0.02
    u_stream = mach * c0
    profile = (
        np.tanh(2.0 * (y - 0.25) / delta)
        - np.tanh(2.0 * (y - 0.75) / delta)
        - 1.0
    )
    u = u_stream * profile
    envelope = np.exp(-(((y - 0.25) / (2 * delta)) ** 2)) + np.exp(
        -(((y - 0.75) / (2 * delta)) ** 2)
    )
    v = perturbation * u_stream * np.sin(2.0 * np.pi * x) * envelope
    w = 0.5 * perturbation * u_stream * np.sin(2.0 * np.pi * z + 1.3) * envelope
    rho = np.ones_like(u)
    p = np.full_like(u, 1.0 / GAMMA)
    scalar = 0.5 * (1.0 + profile)
    return {"rho": rho, "u": u, "v": v, "w": w, "p": p, "scalar": scalar}


def _primitive_to_conserved(prim: dict[str, np.ndarray]) -> np.ndarray:
    """Pack primitives into the (6, ni, nj, nk) conserved-state array."""
    rho = prim["rho"]
    u, v, w, p, s = prim["u"], prim["v"], prim["w"], prim["p"], prim["scalar"]
    e = p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v + w * w)
    return np.stack([rho, rho * u, rho * v, rho * w, e, rho * s])


def _conserved_to_primitive(q: np.ndarray) -> dict[str, np.ndarray]:
    rho = q[0]
    u = q[1] / rho
    v = q[2] / rho
    w = q[3] / rho
    kinetic = 0.5 * rho * (u * u + v * v + w * w)
    p = (GAMMA - 1.0) * (q[4] - kinetic)
    return {"rho": rho, "u": u, "v": v, "w": w, "p": p, "scalar": q[5] / rho}


def _flux(q: np.ndarray, axis: int) -> np.ndarray:
    """Euler flux of the conserved state along ``axis`` (0=x, 1=y, 2=z)."""
    prim = _conserved_to_primitive(q)
    vel = (prim["u"], prim["v"], prim["w"])[axis]
    p = prim["p"]
    f = q * vel
    f[1 + axis] = f[1 + axis] + p
    f[4] = f[4] + p * vel
    return f


def _max_wavespeed(q: np.ndarray) -> np.ndarray:
    prim = _conserved_to_primitive(q)
    c = np.sqrt(GAMMA * np.maximum(prim["p"], 1e-12) / q[0])
    speed = np.sqrt(prim["u"] ** 2 + prim["v"] ** 2 + prim["w"] ** 2)
    return speed + c


class AVFLeslieSimulation:
    """One rank's share of the TML proxy.

    Parameters
    ----------
    global_dims:
        Global *cell* counts ``(nx, ny, nz)``; the domain is the unit cube.
        The time step is CFL 0.4 against the initial max wavespeed.
    """

    FIELDS = ("rho", "u", "v", "w", "p", "scalar", "vorticity")

    def __init__(
        self,
        comm,
        global_dims: tuple[int, int, int] = (32, 32, 16),
        mach: float = 0.4,
    ) -> None:
        self.comm = comm
        self.global_dims = global_dims
        self.timers = TimerRegistry()
        nx, ny, nz = global_dims
        if nx < comm.size:
            raise ValueError("need at least one x-plane of cells per rank")
        lo, hi = block_decompose_1d(nx, comm.size, comm.rank)
        self.x_lo, self.x_hi = lo, hi  # owned cell range along x
        self.nx_local = hi - lo
        self.h = (1.0 / nx, 1.0 / ny, 1.0 / nz)
        # Cell-center coordinates of the owned-plus-halo block.
        gx = (np.arange(lo - _NG, hi + _NG) + 0.5) * self.h[0]
        gy = (np.arange(ny) + 0.5) * self.h[1]
        gz = (np.arange(nz) + 0.5) * self.h[2]
        X = gx[:, None, None] * np.ones((1, ny, nz))
        Y = gy[None, :, None] * np.ones((self.nx_local + 2 * _NG, 1, nz))
        Z = gz[None, None, :] * np.ones((self.nx_local + 2 * _NG, ny, 1))
        prim = mixing_layer_state(X, Y, Z, mach=mach)
        self.q = _primitive_to_conserved(prim)  # (6, nxl+2, ny, nz)
        wavespeed = float(_max_wavespeed(self.q).max())
        wavespeed = self.comm.allreduce(wavespeed, MAX)
        self.dt = 0.4 * min(self.h) / wavespeed
        self.time = 0.0
        self.step = 0
        self._fields: dict[str, np.ndarray] = {}
        self._fields_step = -1
        self.vorticity_computations = 0

    # -- halo exchange -------------------------------------------------------
    def _exchange_halo(self, q: np.ndarray) -> None:
        """Periodic halo exchange along the slab (x) axis."""
        size, rank = self.comm.size, self.comm.rank
        left = (rank - 1) % size
        right = (rank + 1) % size
        if size == 1:
            q[:, :_NG] = q[:, -2 * _NG : -_NG]
            q[:, -_NG:] = q[:, _NG : 2 * _NG]
            return
        # Send my low owned planes left, receive my high halo from right.
        got_right = self.comm.sendrecv(
            np.ascontiguousarray(q[:, _NG : 2 * _NG]),
            dest=left,
            source=right,
            sendtag=31,
            recvtag=31,
        )
        got_left = self.comm.sendrecv(
            np.ascontiguousarray(q[:, -2 * _NG : -_NG]),
            dest=right,
            source=left,
            sendtag=32,
            recvtag=32,
        )
        q[:, -_NG:] = got_right
        q[:, :_NG] = got_left

    # -- one conservative update ------------------------------------------------
    def _rusanov_rhs(self, q: np.ndarray) -> np.ndarray:
        """- div F via Rusanov fluxes on the owned+halo block.

        Valid on the interior (owned) cells; halo cells receive garbage and
        are refreshed by the next exchange.
        """
        rhs = np.zeros_like(q)
        for axis, h in enumerate(self.h):
            ax = axis + 1  # conserved array axis
            qm = q
            qp = np.roll(q, -1, axis=ax)
            fm = _flux(qm, axis)
            fp = _flux(qp, axis)
            a = np.maximum(_max_wavespeed(qm), _max_wavespeed(qp))
            # Interface flux between cell i and i+1 (stored at i).
            f_iface = 0.5 * (fm + fp) - 0.5 * a * (qp - qm)
            rhs -= (f_iface - np.roll(f_iface, 1, axis=ax)) / h
        return rhs

    def advance(self) -> None:
        """One RK2 step."""
        with timed(self.timers, "avf_timestep"):
            q = self.q
            self._exchange_halo(q)
            k1 = self._rusanov_rhs(q)
            q1 = q + self.dt * k1
            self._exchange_halo(q1)
            k2 = self._rusanov_rhs(q1)
            self.q = q + 0.5 * self.dt * (k1 + k2)
            self.time += self.dt
            self.step += 1

    def run(self, n_steps: int, bridge=None) -> None:
        for _ in range(n_steps):
            self.advance()
            if bridge is not None:
                with timed(self.timers, "avf_insitu::analyze"):
                    if not bridge.execute(self.time, self.step):
                        break

    # -- SENSEI adaptor ------------------------------------------------------------
    def owned_extent(self) -> Extent:
        nx, ny, nz = self.global_dims
        return Extent(self.x_lo, self.x_hi - 1, 0, ny - 1, 0, nz - 1)

    def whole_extent(self) -> Extent:
        nx, ny, nz = self.global_dims
        return Extent(0, nx - 1, 0, ny - 1, 0, nz - 1)

    def owned_field(self, name: str) -> np.ndarray:
        """Field ``name`` on the owned cells (halo removed by slicing).

        The primitives are computed at most once per step, and the vorticity
        magnitude from them at most once per step, on first request.
        """
        if self._fields_step != self.step:
            prim = _conserved_to_primitive(self.q[:, _NG:-_NG])
            self._fields = {k: np.ascontiguousarray(v) for k, v in prim.items()}
            self._fields_step = self.step
        if name == "vorticity" and name not in self._fields:
            f = self._fields
            f[name] = vorticity_magnitude(f["u"], f["v"], f["w"], self.h)
            self.vorticity_computations += 1
        return self._fields[name]

    def make_data_adaptor(self) -> SimulationDataAdaptor:
        adaptor = SimulationDataAdaptor(
            self.comm,
            lambda: ImageData(
                self.owned_extent(), spacing=self.h, whole_extent=self.whole_extent()
            ),
        )
        for name in self.FIELDS:
            adaptor.register_array(
                Association.POINT, name, functools.partial(self.owned_field, name)
            )
        return adaptor
