"""Golden sweep reports: the same seed gives the same bytes.

Each digest is the SHA-256 of the standard output of
`qsix sweep --identity <identity> --samples 50 --seed 7`. A change that
moves one of them changes what a sweep reports; such a change names each
moved digest and its cause in CHANGES.md and records the new value here.
"""

import hashlib

import pytest

from qsix import cli

DIGESTS = {
    "abel":
        "253315019d9564f1acb49f35fb0488d7bac196147ddde8fc38dc936050d49423",
    "bailey-a":
        "c4efd84285a6d777d2de56ac80672a643ed435c1406211d0661139f6756f2321",
    "bailey-x":
        "2e64d57234848facfd35920d1653e41e01bff97a5e2bbc10586ed0dd825dcfba",
    "kn-decay":
        "5abaf9c7a781fef33e84c8e5103d83a68a25549fb7bffa503da1b0a68e6dcd86",
    "q-constancy":
        "906a5d66980946c3058b2e72a396e9c525b002c811adf6f7db7d4608a0f0cf41",
    "recurrence":
        "0d8b877305da44ccef58c5a2be14292d3554d8291b784bb18256b3dcea498463",
    "remark1":
        "aed3c4d6064630dc4ea444dd0ff42dfc026bf0bb5901a63159f0ba50f7022099",
    "rogers":
        "3475c83bf71fb03061e7814cb47395feeeb785528c69b31b3f3e0ac23842a324",
    "t-recursion":
        "fd3ef39201abc6e5a989d8bfb7c2487dc5c60c0c556f4a30af6cd40f33033cc4",
    "udiff":
        "a336c3c69ad7fd2feffc3d5505f1b27c20f1b0007e8e2f7f375f0ee010894b94",
    "vdiff":
        "5d03521a79b8f265db465d9987ddce732664e9d0ec4b8f30a65ff560cc72d87b",
    "weierstrass":
        "21234ac2dec2c22967980c9aa3312c9c66a6af91b0a551fbd476708e3dffa218",
}


@pytest.mark.parametrize("identity", sorted(DIGESTS))
def test_sweep_report_digest(identity, capsys):
    rc = cli.main(["sweep", "--identity", identity, "--samples", "50",
                   "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[identity]


def test_every_sweep_identity_has_a_digest():
    assert set(DIGESTS) == set(cli._SWEEPS)
