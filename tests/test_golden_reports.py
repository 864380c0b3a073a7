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
        "c55c5a5175326da5a196325664268f81683493e47402463e4059d2060570abd7",
    "bailey-a":
        "ca9e6e9707676dfefdc217f93d2a0a76cbc05b256323f4094e4161cdfe115c62",
    "bailey-x":
        "0616d9d5414b9838b80fd771fb77cc37ea308d83e934471f006f4d2112aa7740",
    "kn-decay":
        "b84b6eb6019f4ee0584f25429fce558ee227c8bd48bb221c94694aa87d2c7cef",
    "q-constancy":
        "01adc7d523cb773d0c49b137de83c28e017066e1b4175bdaf67e814610b4d786",
    "recurrence":
        "4699f47092330c4ab8016ff5810e0ad8c5721bf7cb5783c5b2d8f3f314c6aba7",
    "remark1":
        "06eca12bde398f1d077bfb2ca8c9eff56911c27eadc6160d49d813ba09bd6aca",
    "rogers":
        "403799733722882537801f34db8de9e34111500c6a4c0ba8b0f782be2f803e4c",
    "t-recursion":
        "5ec8f804e7e7439442cbd95901b56106b96268d4f2ad637256c2e647f36fc999",
    "udiff":
        "3b14311ca33815cc59e122a5dfd32b29de547694791cfe637c3d63b4037aa8b6",
    "vdiff":
        "d39a9f82d1cc9f4662aaff63f0a19fc3f7469f03e2caf84fad3a5ae894b6e0c5",
    "weierstrass":
        "d3899865327d9ceb48f7f58cc061b57cb64f0a00f59a6e5010002c4be14e2055",
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
