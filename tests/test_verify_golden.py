"""Golden digests of `fibrook verify` reports.

The digests pin stdout byte for byte: every report's check name, range,
status, counts, signed sums and warnings, in registry order. They cover
every suite at N = 5 and at its default size, the identity suite at its
default sizes and at N = 20, the inverse check at N = 13, and the
involution on every domain up to n = 6 and on the (8, 5) domain that
perfbench's `placements` workload checks. Each runs in about a second.
"""

import hashlib

import pytest

from fibrook.cli import main

GOLDEN = [
    (("all", "--N", "5"), 4813, "0e880dec5d2e81f66c7859780af90e0c9fed02614d45e75f853779d184922df8"),
    (("identities",), 1459, "c0e863c0ad817a56ff1b06e5c5e501693bd4988d2c571dcf6598e5058fa6b096"),
    (("inverse", "--N", "13"), 610, "b0475516b4eff311c56e418dc616bf4139a2b75d115ace17d7155eb958215b4d"),
    (("involution", "--N", "6"), 3927, "71f15e86c06c89fcc0d1a85192c7c6b50d034099a99f4b32b5b304f19b20d287"),
    (("involution", "--n", "8", "--k", "5"), 347, "8459f3fb7a84647cdb4b3a963a65c89b7f343935e3870edf2461ed05cfff1924"),
    (("identities", "--N", "20"), 1459, "812bdf2aa84fd526b6e85a7d0857f06cad540aa821565edb408bfd41aa41c47d"),
    (("all",), 6180, "218a2088120703162caa4b0bd90d07317f69774c5009b179162597d304efd75c"),
]


# ids from the command arguments, not the list position, so that a golden
# added anywhere leaves the other ids alone
@pytest.mark.parametrize("args,nbytes,sha256", GOLDEN, ids=[" ".join(args) for args, _, _ in GOLDEN])
def test_verify_output_is_pinned(capsys, args, nbytes, sha256):
    assert main(["verify", *args]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (nbytes, sha256)
