"""No traceback at degenerate parameters: every run ends in an exit status.

``cli.main`` runs in process on points where a genericity factor, one of
psi's radicands rho2 and rho3, or some of alpha, beta, gamma vanish.  No
exception may escape ``main``, and the status must be 0 (checks pass),
1 (a check failed or the point lies outside the command's domain) or 2
(invalid input).
"""

import itertools

import pytest

from quadralab.cli import main

#: a point of the quadric ac + bd = 0 for each of the twelve genericity
#: factors, and two points off it where rho2 or rho3 alone vanishes
CHL_POINTS = {
    "a": "0,0,-2,1",
    "b": "-2,0,0,1",
    "c": "-2,1,0,0",
    "d": "0,-2,1,0",
    "p+r": "-1,0,0,1",
    "p-r": "-1,0,0,-1",
    "p+s": "-2,-1,1,-2",
    "p-s": "-2,-1,-1,2",
    "q+r": "-2,-2,-1,1",
    "q-r": "-2,-2,1,-1",
    "q+s": "-1,-1,0,0",
    "q-s": "0,-1,1,0",
    "rho2": "1,1,3,1",
    "rho3": "1,2,5,0",
}

#: (alpha, beta, gamma) over {0, 1, -1}, with square roots in {0, 1, i}
TRIPLES = list(itertools.product((0, 1, -1), repeat=3))
ROOTS = {0: "0", 1: "1", -1: "i"}


def _points():
    for name, abcd in CHL_POINTS.items():
        yield f"chl-{name}", [["chl", action, f"--abcd={abcd}"]
                              for action in ("classify", "params", "center")]
    for triple in TRIPLES:
        alpha = [f"--{n}={v}" for n, v in zip(("alpha", "beta", "gamma"), triple)]
        abc = "--abc=" + ",".join(ROOTS[v] for v in triple)
        yield ",".join(map(str, triple)), [
            ["center", *alpha], ["iso-invariants", *alpha], ["minors", *alpha],
            ["hilbert", "--degree", "3", *alpha], ["points", abc], ["autos", abc],
            ["verify-gamma", *alpha, abc],
        ]


POINTS = dict(_points())


@pytest.mark.parametrize("runs", POINTS.values(), ids=POINTS.keys())
def test_degenerate_point_ends_in_an_exit_status(capsys, runs):
    for argv in runs:
        status = main(argv)
        capsys.readouterr()
        assert status in (0, 1, 2), argv
