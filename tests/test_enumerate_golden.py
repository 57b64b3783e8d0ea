"""Golden digests of `fibrook enumerate` for both placement models.

The digests pin stdout byte for byte: the placements, their order, their
weights and the total. The boards cover a zero-height column, a staircase,
a non-Ferrers file board and the tribonacci family; the rows with k of
3 to 5 have two or more leading columns before the last one, including a
board whose every column is tiled; the k = 0 and k > columns rows pin
the one empty placement and the empty list. The last rows pin the
48,444-placement board of perfbench's `placements` workload, in text and
JSON, and the rook enumeration that CI runs.
"""

import hashlib

import pytest

from fibrook.cli import main

GOLDEN = [
    ("F(0,2,2,3)", 2, "fib", "file", "text", 122, "566fcf254355494c662310b1cdcd2fd272024865a906b4c7439c01e4a98ba4df"),
    ("F(0,2,2,3)", 2, "fib", "file", "json", 487, "7e8f4af3c62bd3ec88b94a88120ca3f5957743655ae81bdef03c99ba7ef574f6"),
    ("F(0,2,2,3)", 2, "fib", "rook", "text", 64, "bf44544b10a23f10f66ac96c1d75b75a65dcebe896e0782bbef032266219ffd9"),
    ("F(0,2,2,3)", 2, "fib", "rook", "json", 325, "36c79aacc9a21981607087cc711100010dddfb1d07807d4fcb709eae268cc634"),
    ("F(0,1,2,3,4,5)", 2, "fib", "file", "text", 1393, "85fe48e6e9de07f9c8a70d2bf8d7ef02ef6515d5c1af413c852d38a754374f34"),
    ("F(0,1,2,3,4,5)", 2, "fib", "file", "json", 4206, "da03222a7671cd1e7113f79e0fa35511f41c091ae886007389150439efc36693"),
    ("F(0,1,2,3,4,5)", 2, "fib", "rook", "text", 819, "57e25f132884b2669ab44f83de3cb49e0fb0517cf4a2d5bb6011c41a65021b05"),
    ("F(0,1,2,3,4,5)", 2, "fib", "rook", "json", 2592, "c8c9c32e070ac27bd07c4c8452398302883b2c0765e25f364828012cd73880fb"),
    ("F(3,1,2)", 2, "fib", "file", "text", 126, "c4c59ff956ce49fcc9aaf6625e8a9a1cede7cc51a6ee3c2c58cc06508a608879"),
    ("F(3,1,2)", 2, "fib", "file", "json", 489, "b3046cf9bb948ddc3e7e79c918f3504b49c232ac43f3a345ff8d87bcc6d916e6"),
    ("F(1,2,3,4)", 2, "trib", "file", "text", 544, "1b4d6b25396f460675af3d8f03ee69dca1e3065b75bcb0e10d3f85a4d8ce1859"),
    ("F(1,2,3,4)", 2, "trib", "rook", "text", 274, "0dd62266d16d6f45c38586154566931f1582c508f87e9366782c2c558f5ee288"),
    # k >= 3: placements whose leading columns hold two or more tilings
    ("F(1,2,3,4,5,6,7)", 4, "fib", "rook", "text", 16861, "36a7459aa12969c225adee5217adab512d817c10678641d9fb438920d076b195"),
    ("F(1,2,3,4,5,6,7)", 4, "fib", "rook", "json", 38968, "712f28b34b50ede0a71e9a54f50623e2954c819837c242332e24e5b23dc7a0a7"),
    ("F(0,1,2,3,4,5,6)", 3, "trib", "rook", "text", 6475, "4dc79f678dcd1785c18b7e7e1e4ad407b4559b4e2b18794ce141ec87a400e6ce"),
    ("F(2,3,3,4,5)", 5, "trib", "file", "text", 5517, "dc3ae1c000c02eeb6a7f058c14b95adc148d9ffc7f13622ffaca468c6e3c660e"),
    ("F(3,1,4,2,5)", 3, "fib", "file", "text", 3419, "75b2d9babd5ddc5fa890894ae6f20407326b65ce81e2a5cd5713020fceefdd01"),
    # k = 0: the one empty placement, total 1
    ("F(0,2,2,3)", 0, "fib", "file", "text", 20, "243642a7267084490f036c6b2c817b350e1ff185a394dc2c584c83e0e6cf9076"),
    ("F(0,2,2,3)", 0, "fib", "file", "json", 170, "0f9c31d8f78f4d8b1017f2c01f2c794615fb80460728a99a1badb5bf9bfee4da"),
    ("F(0,2,2,3)", 0, "fib", "rook", "text", 20, "243642a7267084490f036c6b2c817b350e1ff185a394dc2c584c83e0e6cf9076"),
    ("F(0,2,2,3)", 0, "fib", "rook", "json", 170, "f5c358e5d7bb75accce4ee7cbf7245f334ef0c7bee36c9da5139557765c7282b"),
    # k over the column count: no placements, total 0
    ("F(0,2,2,3)", 5, "fib", "file", "text", 9, "a0f4a44637099e8bb4f5d78a5556e54f43eadbe6f2a87cfa0481bd401b6c2a9b"),
    ("F(0,2,2,3)", 5, "fib", "file", "json", 112, "0288f8f4e91ced19724b8b04579457afbf274bb2141bac2b1622e74c4d76c761"),
    ("F(0,2,2,3)", 5, "fib", "rook", "text", 9, "a0f4a44637099e8bb4f5d78a5556e54f43eadbe6f2a87cfa0481bd401b6c2a9b"),
    ("F(0,2,2,3)", 5, "fib", "rook", "json", 112, "cb2b624a4349cba1ead954ed38a2ff5daf1a1d2ad3766f5f339072bc334783dc"),
    # the board of perfbench's `placements` enumeration (48,444 placements)
    # and the rook enumeration CI runs
    ("F(1,2,3,4,5,6,7,8,9)", 3, "fib", "file", "text", 2331695, "1476d676512f524e60d31f2d7a50c71043a6c87e1db9a2a9008a248cdf022088"),
    ("F(1,2,3,4,5,6,7,8,9)", 3, "fib", "file", "json", 4850898, "d073f0cd9bc45652e92a9e605b10ef59d796d22c1674217f83df8f78f4bf39e9"),
    ("F(0,1,2,3,4,5,6,7,8)", 3, "fib", "rook", "text", 102383, "f11f876f5db8d62237c913adbac2154bb3662b636735f57935031be282520c69"),
]


# ids from the values, not the list position, so that a golden added
# anywhere leaves the other ids alone
@pytest.mark.parametrize(
    "board,k,family,model,fmt,nbytes,sha256", GOLDEN, ids=["-".join(map(str, row)) for row in GOLDEN]
)
def test_enumerate_output_is_pinned(capsys, board, k, family, model, fmt, nbytes, sha256):
    argv = ["enumerate", board, "--k", str(k), "--family", family, "--model", model, "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (nbytes, sha256)
