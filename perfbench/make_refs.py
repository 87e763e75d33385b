"""Regenerate ``refs.json``: the committed reference outputs.

- ``serial``: per case, per input set, the sha256 of every array after
  the serial interpreter (``repro.ir.interp.Interpreter``) ran the
  kernel on the seeded inputs;
- ``tables``: the modeled times of ``table_8_1()`` and ``table_8_2()``.

Run from the repository root (takes a few minutes, mostly the
interpreter on Fig 6.1)::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import os
import sys


def table_times(tables: dict) -> dict:
    """{class: [[nprocs, {strategy: modeled seconds}], ...]}"""
    return {
        cls: [[row.nprocs, dict(sorted(row.time.items()))] for row in rows]
        for cls, rows in sorted(tables.items())
    }


def serial_digests(case, variant: int) -> dict:
    from repro.ir.interp import FortranArray, Interpreter

    from perfbench.cases import array_shapes, digest, make_inputs

    shapes = array_shapes(case)
    inputs = make_inputs(case, variant, shapes)
    args = {}
    for name, (shape, lower) in shapes.items():
        arr = FortranArray(shape, lower)
        arr.data[:] = inputs[name]
        args[name] = arr
    Interpreter(case.program(), params=case.params).run(
        case.unit, args=args, scalars=case.run_scalars()
    )
    return {name: digest(args[name].data) for name in sorted(args)}


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [root, os.path.join(root, "src")]
    from repro.eval.tables import table_8_1, table_8_2

    from perfbench.cases import K, REFS_PATH, VARIANTS

    refs = {"variants": VARIANTS, "serial": {}, "tables": {}}
    for case in K:
        refs["serial"][case.id] = [
            serial_digests(case, v) for v in range(VARIANTS)
        ]
        print(f"{case.id}: {VARIANTS} input sets", flush=True)
    refs["tables"]["8.1"] = table_times(table_8_1())
    refs["tables"]["8.2"] = table_times(table_8_2())
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
