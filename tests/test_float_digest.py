"""A golden digest of the float layer: launch, continuation, monitors, defect
and symmetry transport.

Each point pins one sha256 digest over the launch state, the trajectory's
samples, stored derivatives and step statistics, every monitor's report and
per-sample maximum, the midpoint defect, and every transported trajectory with
its defect.  The float code is deterministic IEEE-754 arithmetic, so a change
that only reorganizes it (naming shared operations, handing contiguous columns
to the compiled code, indexing rows by a slice in place of a mask that keeps
them all) must leave this digest as it is.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from awflow import integrate as integ
from awflow.solver import solve_series
from awflow.systems import symmetry_maps

POINTS = {
    "C534": ("C", {"a0": 5, "b0": 3, "c0": 4}),
    "D11": ("D", {"b0": 1, "f0": 1}),
    "F": ("F", {"b0": 1, "q1": 1, "q2": Fraction(1, 3)}),
    "G": ("G", {"a0": 1, "q": Fraction(1, 3)}),
}

DIGESTS = {
    'C534': "482f2cbfd6cd1d9809536463caa65354e2054ee2876ff626a4549a0c68ca8d50",
    'D11': "97b0c0bcab70b440439536f131d2079338d75df2dfbb459d71a6557d5bf80e15",
    'F': "e7c99551d312c5610b37bd6edb2c6128aad54729ce20ad3784fbc77a7646b6cb",
    'G': "2121e428a62720083463757c33e405259bd4c59f3631e2b4a8ecdbb4c22641ec",
}


def _float_layer_digest(case_id: str, params: dict) -> str:
    h = hashlib.sha256()

    def arrays(*arrs):
        for arr in arrs:
            arr = np.asarray(arr)
            h.update(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())

    def record(obj):
        h.update(json.dumps(obj, sort_keys=True, default=repr).encode())

    sol = solve_series(case_id, params, order=20)
    sysid = sol.system()
    start = integ.launch_state(sol, 1e-2)
    record(start.values)
    traj = integ.integrate(sysid, start, 1.0, 1e-10)
    arrays(traj.t, traj.y, traj.d)
    record(traj.stats)
    checks = integ.CHECKS if sysid.kind == "S2" else ("einstein_lambda0", "mirror_bc")
    record(integ.monitor_residuals(sysid, traj, checks))
    arrays(traj.stats["res_max_per_sample"])
    record(integ.first_order_defect(sysid, traj))
    for smap in symmetry_maps(sysid):
        moved = integ.transform_trajectory(smap, traj)
        arrays(moved.t, moved.y, moved.d)
        record([smap.name, integ.first_order_defect(sysid, moved)])
    return h.hexdigest()


@pytest.mark.parametrize("point", list(POINTS))
def test_float_layer_bit_identical_to_pin(point):
    assert _float_layer_digest(*POINTS[point]) == DIGESTS[point]
