"""Golden digests of `fibrook table` for every kind and output format,
and of `fibrook series` at the size CI runs.

The digests pin stdout byte for byte: any change to how triangles or
column series are built or printed, including the per-entry signs of sf
and sp, shows up here. Sizes stay small enough that all 22 commands run
in a few seconds.
"""

import hashlib

import pytest

from fibrook.cli import main

GOLDEN = [
    ("cf", 14, "text", 350791, "f15156f92732bc74c508a3b9bee4c806bfd3da6f8334362db404eb961643f0a8"),
    ("cf", 14, "json", 351786, "ddbf8f77db2cc9e38d123fc383ab11f1f81c6eecca4078f177fee49097c9b899"),
    ("cf", 14, "csv", 351167, "b605faaa23825c983fa335f7bfa05d64ce8c64f246eed71db1d921289f006daa"),
    ("sf", 14, "text", 350840, "3a879e0f5273af916bff99c26f7622729cf66dfbc8d62ebf33d914b19f9aee56"),
    ("sf", 14, "json", 351835, "28822157ade45b6de6432def42b32c4c9992cfff39bb526d19e398bcea963d1a"),
    ("sf", 14, "csv", 351216, "9e9a0c08de5ec5aaaa364d1d45f5ea34fd6eb60c5d97367a5f2fc615046aab2d"),
    ("Sf", 16, "text", 322843, "c6944f473fab579977b579fbd17f2293111b71beb2ddc961dab09d29b74cbf49"),
    ("Sf", 16, "json", 324085, "c77809744c2e7d9b0ac0e66c8c78ba7a3ace32518a690895e99e78e8700fa14e"),
    ("Sf", 16, "csv", 323356, "d48e82c7762956791cceaa761586d00b35431ac066763e8245bef714675d6d39"),
    ("Lf", 12, "text", 208254, "9bc2f1598c9961fdae7c9174c030b0e945e505ba3ea3be7d96ceb8e36e8090ac"),
    ("Lf", 12, "json", 209030, "ffde152fbd3a7d1836549c9f95f0fb583039cc307a6b0487a7637797fdcfe7ba"),
    ("Lf", 12, "csv", 208513, "a5f090ab1b036e325e09f6a6e69ff00746aadc40797a591a40e8b769c5db7bce"),
    ("cp", 10, "text", 154784, "590734037d1983bbf6d05700ebf967d9a6af4ce659ee30555e0df5768c4d1389"),
    ("cp", 10, "json", 155369, "250d7e728e3be0b09d6f12650df10e96f113903baa90c7fa4a5ead38b9bbe390"),
    ("cp", 10, "csv", 154946, "585cf8c21123d4a9c020b70b7401bdca401681af8a06e3de9eff48788516e763"),
    ("sp", 10, "text", 154809, "7ef0bb57af25cefe6ef4c0688180f95c388df8b333ec4c3d7cb789baefbf89ab"),
    ("sp", 10, "json", 155394, "bd84fae014cb69037c1364c93f1b2bcaf14b5f2684ae7314606ecc159312ea6b"),
    ("sp", 10, "csv", 154971, "ca2b80209bce76dc86260a7b72cb467181e8920c28f3e2fc9338a30f74142ec0"),
    ("Sp", 10, "text", 34551, "888bff8ab137f974e21aded116fc0c715b9b804aff0129d56121c6a822f88ed4"),
    ("Sp", 10, "json", 35136, "855e63f3e3b9165974f2311b149ab3936ad91bd8a2d26ef4320afe845023c444"),
    ("Sp", 10, "csv", 34713, "f2a22cf8491bdfcad8c898db9931c95480f65c306f1395ba93edc328af011e18"),
]


@pytest.mark.parametrize("kind,N,fmt,nbytes,sha256", GOLDEN)
def test_table_output_is_pinned(capsys, kind, N, fmt, nbytes, sha256):
    assert main(["table", kind, str(N), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (nbytes, sha256)


def test_series_output_is_pinned(capsys):
    assert main(["series", "6", "--order", "30"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        659018, "264b9b68c35c3ba52466671429f13630c97add557367bcfd3dd98b73c2df9029")
