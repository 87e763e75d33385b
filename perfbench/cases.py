"""Kernel set K, seeded inputs and output digests.

Every input array is generated from the workload seed and
``crc32(array name)`` (never ``hash()``, which ``PYTHONHASHSEED``
randomizes).  The seed selects one of ``VARIANTS`` input sets
(``seed % VARIANTS``); ``refs.json`` holds the serial interpreter's
output digests for every set, so a run never needs the interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

#: number of distinct seeded input sets with committed serial digests
VARIANTS = 16

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

_RHS_SCALARS = {"c1": 0.3, "c2": 0.2}
_SP_RHS_SCALARS = {"c1c2": 0.7, "c2": 0.2, "dt": 0.015}


@dataclass(frozen=True)
class Case:
    """One kernel of K: its source, size, rank count and run scalars."""

    id: str
    source_name: str  # attribute of repro.nas.kernels
    ranks: int
    params: dict
    scalars: dict
    unit: str  # the compiled subroutine
    inline: tuple = ()  # leaf routines inlined into ``unit`` before compiling
    #: name -> (last-axis index, offset) added to the seeded array (lifts
    #: the energy component of ``u`` so sqrt(energy - kinetic) is real)
    bias: dict = field(default_factory=dict)

    def source(self) -> str:
        from repro.nas import kernels

        return getattr(kernels, self.source_name)

    def program(self):
        """Freshly parsed program, with the leaf calls inlined."""
        from repro.frontend import parse_source
        from repro.ir.stmt import reset_sids
        from repro.transform import inline_calls

        reset_sids()  # statement ids, and so the emitted code, start at 1
        prog = parse_source(self.source())
        for leaf in self.inline:
            inline_calls(prog, self.unit, leaf)
        return prog

    def run_scalars(self) -> dict:
        return {**self.scalars, **self.params}


K = (
    Case("sp_rhs_S", "COMPUTE_RHS_SP", 4, {"n": 12},
         _SP_RHS_SCALARS, "compute_rhs", bias={"u": (4, 20.0)}),
    Case("bt_rhs_S", "COMPUTE_RHS_BT", 8, {"n": 12},
         _RHS_SCALARS, "compute_rhs"),
    Case("sp_exact_rhs_S", "EXACT_RHS_SP", 4, {"n": 12}, {}, "exact_rhs"),
    Case("fig6_1_xsolve", "BT_SOLVE_CELL", 4, {"n": 13}, {}, "x_solve_cell",
         inline=("matvec_sub", "matmul_sub", "binvcrhs")),
)
CASES = {c.id: c for c in K}

#: the wildcard-grid SP compute_rhs used by rank_sweep and the process
#: executor rows: same arrays, scalars and serial result as ``sp_rhs_S``
WILDCARD_BASE = "sp_rhs_S"
WILDCARD_PARAMS = {"n": 12, "nx": 12}


def wildcard_source() -> str:
    from repro.nas import kernels

    return kernels.scaled(kernels.COMPUTE_RHS_SP)


def array_shapes(case: Case) -> dict:
    """name -> (shape, lower bounds) of every declared array of the unit."""
    sub = case.program().get(case.unit)
    params = {**sub.symbols.parameter_values(), **case.params}
    out = {}
    for decl in sub.symbols.all():
        if decl.is_array:
            out[decl.name.lower()] = (
                tuple(decl.shape_ints(params)),
                tuple(decl.lower_bounds(params)),
            )
    return out


def make_inputs(case: Case, variant: int, shapes: dict) -> dict:
    """Seeded full arrays (values in [1, 2), plus the case's bias)."""
    out = {}
    for name in sorted(shapes):
        rng = np.random.default_rng([variant, zlib.crc32(name.encode())])
        data = rng.random(shapes[name][0]) + 1.0
        if name in case.bias:
            idx, off = case.bias[name]
            data[..., idx] += off
        out[name] = data
    return out


def digest(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


def inputs_digest(inputs: dict) -> str:
    """One digest over every case's arrays, in name order."""
    h = hashlib.sha256()
    for cid in sorted(inputs):
        for name in sorted(inputs[cid]):
            h.update(f"{cid}/{name}".encode())
            h.update(np.ascontiguousarray(inputs[cid][name]).tobytes())
    return h.hexdigest()


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


class OutputCheck:
    """Compares a compiled kernel's outputs with the serial digests.

    ``shmem`` checks every shared (non-NEW) array; ``mpi`` merges each
    distributed array from its owners first (non-owned elements are
    scratch by the SPMD contract).  All comparisons are bitwise.
    """

    def __init__(self, kernel, ref: dict):
        self.kernel = kernel
        self.ref = ref
        self.private = set(kernel.private_arrays)
        self._masks: "dict | None" = None

    def masks(self) -> dict:
        """array -> per-rank boolean masks of owned elements (built once)."""
        if self._masks is None:
            k = self.kernel
            protos = k.make_arrays()
            self._masks = {}
            for name in sorted(self.ref):
                if not k.ctx.is_distributed(name):
                    continue
                proto = protos[name]
                masks = []
                for rid in range(k.nprocs):
                    mask = np.zeros(proto.data.shape, dtype=bool)
                    coords = k.grid.delinearize(rid)
                    for el in k.ctx.owned_elements(name, coords):
                        mask[tuple(e - lo for e, lo in zip(el, proto.lower))] = True
                    masks.append(mask)
                self._masks[name] = masks
        return self._masks

    def shmem(self, shared: dict) -> list:
        """Names of shared arrays whose digest differs from serial."""
        return [
            name for name in sorted(self.ref)
            if name not in self.private
            and digest(shared[name].data) != self.ref[name]
        ]

    def mpi(self, ranks: list) -> list:
        """Names of distributed arrays whose owner-merged digest differs."""
        bad = []
        for name, masks in self.masks().items():
            merged = np.zeros_like(ranks[0][name].data)
            for arrays, mask in zip(ranks, masks):
                merged[mask] = arrays[name].data[mask]
            if digest(merged) != self.ref[name]:
                bad.append(name)
        return bad
