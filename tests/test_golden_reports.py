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
        "437d32ed29e7aaeb82df61583e0d60ed5eb39cb9df579139189166a77c5bf64b",
    "bailey-x":
        "a461fcd1b1e8741cac644d4b8183003f266c08266d22e814946dd849c7d9c15b",
    "kn-decay":
        "9d7562648ae36c3c3c538b77d57f8d2b626e35577d03b276df140b8cb8e396f8",
    "q-constancy":
        "e3fc16129fa5e7016aea448f41a9ea3c61fb13872bafef896f7fae4d1e2d7b8e",
    "recurrence":
        "0d8b877305da44ccef58c5a2be14292d3554d8291b784bb18256b3dcea498463",
    "remark1":
        "cb158c942a6328bdf78e5f2c63d4893ea5fd809509addc02d16d2355d2b9dc41",
    "rogers":
        "fdb41fdef1ead073aa517bcd79132d665396ffdb549b0241859fb61bbed118d9",
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
