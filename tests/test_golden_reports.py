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
        "295dc2a30efaf75b8e778878afe2dfe3060134d256893bcc6fe9f3fe4a752b40",
    "bailey-x":
        "88cc5aa7d363944bbc9cc473dff2604d86a8f230624f1fa7af638ac37ff259a5",
    "kn-decay":
        "5abaf9c7a781fef33e84c8e5103d83a68a25549fb7bffa503da1b0a68e6dcd86",
    "q-constancy":
        "1bb4c66cdc1305be91a8792e40bb71fe7ea50d796c2319de8462a4642dcd316a",
    "recurrence":
        "0d8b877305da44ccef58c5a2be14292d3554d8291b784bb18256b3dcea498463",
    "remark1":
        "aed3c4d6064630dc4ea444dd0ff42dfc026bf0bb5901a63159f0ba50f7022099",
    "rogers":
        "07f95342f362922bade60e17928d4cca6e5c5f3fd101b063ccab9275b712228d",
    "t-recursion":
        "ed77c3e52ed9ee109b5ac6507a622cc70a08a0c78744e5fca48b0956a3597993",
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
