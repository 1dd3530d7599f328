"""Golden sha256 digests of the command-line output.

Each case runs ``cli.main`` in process and hashes the exact bytes written
to stdout, so any refactor that moves a single output byte fails here.  The
atlas digests cover the rows of ``enumerate --exact`` without the header
line, which embeds ``__version__``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from hubbardtree import InternalAddress, address_to_sequence, build_tree
from hubbardtree.cli import main

ATLAS_ROWS = {
    2: "a6a1f2f362c195600bf60446bbb52ca7c5e43997ba8bf222c35ba275edc222b8",
    3: "dce0008fc6cc7a6bd21dfcc46caf139710f8cd053beeb48884dc27023e248980",
    4: "ac34ed0cbaf44e19ee1de4ae50432c9b96c09e441bbbaea03379f2b1198e81fd",
    5: "4fdf323fb8bc3242257d69e515f2a0158f83bc9f92d22e6a53260ca463d73ef1",
    6: "002e1aabf6000880b80c9a389a3a67e52f400f734388e467100bd506a1bc415f",
    7: "17f0ef1c6a36c148ff25dbf31ca0e031813f70fbf526fe9b7687f74fc9e6b406",
    8: "52f580aa109d024fbecd5cf7506881d38f5b8c25c143ae48f8a3a1ee468e5c2b",
    9: "766710e2af24aee5f3e124608e66018833894da237e3387bcd5c5908eddac060",
    10: "9e80eb791ffbe804b6267e27d1dd0753841d17ce1a30eb054bfc6cd9c5777b1c",
    11: "d5adeebd8f7af0d777d292d720f595ac9ad4f461db646f0fe593fd25812c79a1",
}

# (argv, exit code, sha256 of stdout); 10110* is evil, 1-2-4-5-11 is the
# address of 1011010110*, and 110001100010011* (period 16) has two tame
# orbits, prebranch points and four embeddings
COMMANDS = [
    (["analyze", "10110*"], 0, "01c55fb62e52a2e96e298b88a27cbca73fd68c44b2450870bbb775497200e608"),
    (["analyze", "10110*", "--json"], 0, "fa90182d5d4d460e4ff41c5face45ce36c93d4cbe9ef7a774d3f315805db80a1"),
    (["tree", "10110*"], 0, "b279e36818dab7b937ee4a8b2218f42a2666a80ff7d450e373516144bd8e9f3a"),
    (["tree", "10110*", "--dot"], 0, "a3cceb78256c87c6dfe6e25530ed78af7f45de7dd1255e2f65b890e46d6c92ab"),
    (["embed", "10110*", "--all"], 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["analyze", "1011010110*"], 0, "cffd41a249c1350b98657d8062c2e36eb4f4f2c72caf03dbc1adbf0c53073f0d"),
    (["analyze", "1011010110*", "--json"], 0, "ebcb58b3e454ebd0dc5f10fb12d39d83aaf24266d05da2e547b669360200cc36"),
    (["tree", "1011010110*"], 0, "f12582da4289b861bd29f2e5384f38c3398ef93ff7c36f8fe4ccd3d859ef95f4"),
    (["tree", "1011010110*", "--dot"], 0, "a20c84f59018870dce772f8bcbafde2fbb4ee4b2affab8b3008209701ea67aae"),
    (["embed", "1011010110*", "--all"], 0, "1ac52ba299dec74d58729a153958c405b62a05dd7266f481978ab58deeea0963"),
    (["analyze", "110001100010011*"], 0, "c79e494985d64bd2b1f240d3d13b518bac031fe58a3f8b1b561876671fa3968a"),
    (["analyze", "110001100010011*", "--json"], 0, "f6085846bb11e98ef7e1c73d844e167e0bee5180a605e9dd31e426c07f264010"),
    (["tree", "110001100010011*"], 0, "3e28a5b69417cb776dc2a77aa068f18064b2a21895e6901844efec6492a94840"),
    (["tree", "110001100010011*", "--dot"], 0, "fba2157864f9e3492ce66e05e8b393a4738a57c19d2ff31dfdac8ae361627cd2"),
    (["embed", "110001100010011*", "--all"], 0, "40c6b1bfe22c68ca855db780bc0918e0a1c2e0025c7ae8864a6d2a680db2bbd7"),
    (["analyze", "1-2-4-5-11"], 0, "cffd41a249c1350b98657d8062c2e36eb4f4f2c72caf03dbc1adbf0c53073f0d"),
    (["analyze", "1-2-4-5-11", "--json"], 0, "ebcb58b3e454ebd0dc5f10fb12d39d83aaf24266d05da2e547b669360200cc36"),
    (["tree", "1-2-4-5-11"], 0, "f12582da4289b861bd29f2e5384f38c3398ef93ff7c36f8fe4ccd3d859ef95f4"),
    (["tree", "1-2-4-5-11", "--dot"], 0, "a20c84f59018870dce772f8bcbafde2fbb4ee4b2affab8b3008209701ea67aae"),
    (["embed", "1-2-4-5-11", "--all"], 0, "1ac52ba299dec74d58729a153958c405b62a05dd7266f481978ab58deeea0963"),
    (["convert", "1011010110*"], 0, "4a1a7e9c5909b1eab08c576c9d3d5e13a3ee0698480a87d9a52d2af4394b1eab"),
    (["convert", "1-2-4-5-11"], 0, "464acc6959c23cbf8c793f7dab9104000f56eb7687475bc86acbd08924780e61"),
]

# tree hashes of the star family, whose trees have one high-degree branch
# point: 1-256 is a star around a 256-armed fixed point
STAR_FAMILY = {
    "1-256": "acefe829a4608593f41aba3471ff020f32d4c84b0c3566811ef563333d26b0f1",
    "1-2-256": "63fb630bd7a63fbfd62f91b02f6e032ec092d73f4e1b7dfd6f660791a548b1f4",
    "1-100-200-256": "10404dcfff12aca8ea616d50cec1e5ee9a414f4d0fa4dcdb26839a2680fa7965",
}

# analyze --json digests of seeded random words of period n, whose triod runs
# reach hundreds of symbols and stop at STARs
LONG_WORDS = {
    128: "86a6bc6b04877393904667a22c46ce4a417fdfc7a34869c55b1f08a6824a4c07",
    256: "90db88c3478f0c5045d2dad7d1b8e558cd2e39be9b7c1ffe0cbabf10df881b56",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _run(capsys, argv: list[str]) -> tuple[int, str]:
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("period", sorted(ATLAS_ROWS))
def test_atlas_rows(capsys, period):
    code, out = _run(capsys, ["enumerate", "--period", str(period), "--exact"])
    assert code == 0
    _, rows = out.split("\n", 1)
    assert _sha256(rows) == ATLAS_ROWS[period]


@pytest.mark.parametrize("argv,exit_code,digest", COMMANDS,
                         ids=[" ".join(argv) for argv, _, _ in COMMANDS])
def test_command_stdout(capsys, argv, exit_code, digest):
    code, out = _run(capsys, argv)
    assert (code, _sha256(out)) == (exit_code, digest)


@pytest.mark.parametrize("address", sorted(STAR_FAMILY))
def test_star_family_tree_hash(address):
    tree = build_tree(address_to_sequence(InternalAddress.parse(address)))
    assert tree.tree_hash() == STAR_FAMILY[address]


@pytest.mark.parametrize("n", sorted(LONG_WORDS))
def test_long_word_analyze_json(capsys, n):
    word = "1" + format(random.Random(n).getrandbits(n - 2), f"0{n - 2}b") + "*"
    code, out = _run(capsys, ["analyze", word, "--json"])
    assert (code, _sha256(out)) == (0, LONG_WORDS[n])
