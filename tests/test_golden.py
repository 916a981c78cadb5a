"""Golden outputs: sha256 of the trajectories and ledgers of a fixed grid.

Every arm set below is played at J in {2, 3, 11}, run lengths from 1 to
10**6 + 3 and strides 1, 7, 8, CHUNK and the run length. The integer-reward
sets were recorded before the simulator sampled threshold planes and read
every output off integer counts, and they kept every bit through that
change; the fair sets, whose payouts are fractional, were recorded after
it. So a kernel change that moves any output bit fails here: two-point,
multipoint and mixed patterns, zero-payout wins, arms that never or always
win, zero-probability entries and patterns of 5 and 17 layout classes.
"""

import hashlib

import numpy as np
import pytest

from futurity import (
    ChainSpec,
    MultipointDistribution,
    TwoPointArm,
    cumulative_trajectory,
    fair_two_point,
    mills_modes,
    simulate_once,
)
from futurity import simulate

MODE_E, MODE_O = mills_modes()
FAIR = {"A": fair_two_point(MODE_E), "B": fair_two_point(MODE_O)}

ARM_SETS = {
    "mills": ("AAABB", {"A": MODE_E, "B": MODE_O}),
    # A zero-payout win, an arm that never wins and one that always does.
    "mills+two-point": (
        "ABCADE",
        {
            "A": MODE_E,
            "B": MODE_O,
            "C": TwoPointArm(0.4, 0.0),
            "D": TwoPointArm(0.0, 5.0),
            "E": TwoPointArm(1.0, 1.0),
        },
    ),
    # The zero entry sits between two paying ones; 0.25 and 0.75 are bin edges, 0.3 is not.
    "zero-mid-list": (
        "AB",
        {
            "A": MultipointDistribution(((2.0, 0.25), (0.0, 0.5), (7.0, 0.25))),
            "B": MultipointDistribution(((3.0, 0.3), (0.0, 0.45), (1.0, 0.25))),
        },
    ),
    "fractional": (
        "AAB",
        {"A": MultipointDistribution(((0.0, 0.55), (1.5, 0.3), (2.75, 0.15))), "B": MODE_O},
    ),
    "fair": ("AB", FAIR),
    # Byte b of a chunk starts at position 8b mod n: 5 and 17 layout classes.
    "fair-AAABB": ("AAABB", FAIR),
    "fair-17": ("AAAABBBBAAAAAABBB", FAIR),
}

GOLDEN = {
    "mills": "a115a718fc0ad3c33e6291314addbd3c006ec4acdd236659f3b61f857d1ed030",
    "mills+two-point": "46e941a589ae9e6a1698bec5b606e87aab4d36788d1dc937358b5bfd08fa1560",
    "zero-mid-list": "72514f4cd9d63e09bf65a233b67f0f88d56d815abf52825952ea0256a5194617",
    "fractional": "a2ae4cb9d32308e9021924f609e30890dd62282845e10015ba2c64341ba5b54c",
    "fair": "ff1dcece18819b31b17830347e9801e2ec9d60f082b06e38be754b50bd4b1284",
    "fair-AAABB": "53ea14cc9f0acb02e6fb4f3a33637b31b93efee1ee573873af671bcdf2d4e7b2",
    "fair-17": "169eefdd63e5fff7e4c00b1d33b1b7e03fcc25b64982e720dd1c994d40017570",
}


def digest(pattern, arms):
    sha = hashlib.sha256()
    for j in (2, 3, 11):
        spec = ChainSpec(sequence=tuple(pattern), arms=arms, j=j)
        for coups in (1, 9, 1000, simulate.CHUNK - 1, simulate.CHUNK + 5, 10**6 + 3):
            seed = 1009 * j + coups
            ledger = simulate_once(spec, coups, seed)
            sha.update(repr((j, coups, ledger)).encode())
            for stride in sorted({1, 7, 8, simulate.CHUNK, coups}):
                if stride <= coups:
                    trajectory = cumulative_trajectory(spec, coups, seed + stride, stride)
                    sha.update(f"{stride}".encode())
                    sha.update(np.ascontiguousarray(trajectory, "<f8").tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(ARM_SETS))
def test_golden_outputs(name):
    assert digest(*ARM_SETS[name]) == GOLDEN[name]
