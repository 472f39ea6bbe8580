"""CLI output pinned byte for byte: the sha256 of stdout for a fixed set of runs.

`elapsed_ms` is the one field that differs from run to run; its value is
zeroed before hashing. A refactor must leave every digest unchanged. To
re-record after a deliberate change of output, run this file as a script
and paste what it prints into GOLDEN.
"""
import hashlib
import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from msproots import cli, groupdet, verify
from msproots.cli import main

EVAL_CLOSED = (("3", "1", "3,1,2"), ("2", "2", "1,1,2,2"), ("4", "1", "1,1,2,4"),
               ("6", "1", "6,3,2,1,6,6"), ("4", "2", "2,2,4,4,4,4,4,4"),
               ("3", "3", "3,3,3,3,3,3,1,1,1"))
EVAL_OPEN = (("4", "1", "1,1,3,3"), ("5", "1", "1,2,3,4,5"), ("3", "2", "1,1,2,2,3,3"))

RUNS = (
    [["expand", "--n", n, "--k", k, "--format", fmt]
     for n, k in (("5", "1"), ("6", "1"), ("4", "2")) for fmt in ("tsv", "json")]
    + [["expand", "--n", "3", "--k", "3", "--format", "tsv"], ["expand", "--n", "7", "--k", "1", "--format", "tsv"],
       ["expand", "--n", "1", "--k", "2"], ["expand", "--n", "10", "--k", "1", "--format", "tsv"],
       ["expand", "--n", "6", "--k", "3", "--format", "tsv"],
       ["expand", "--n", "4", "--format", "plain"]]
    + [["expand", "--n", "7", "--k", "2", "--format", fmt] for fmt in ("plain", "json")]
    + [["expand", "--n", "9", "--k", "1", "--format", "plain"]]
    + [["count", "--n", "6"], ["count", "--n", "7"], ["count", "--n", "8"], ["count", "--n", "4", "--k", "2"]]
    + [["eval", "--n", n, "--k", k, "--lambda", lam, "--method", m]
       for n, k, lam in EVAL_CLOSED for m in ("dp", "naive", "closed", "auto")]
    + [["eval", "--n", n, "--k", k, "--lambda", lam, "--method", m]
       for n, k, lam in EVAL_OPEN for m in ("dp", "naive", "auto")]
    + [["eval", "--n", "3", "--lambda", "1,2,3", "--format", fmt] for fmt in ("tsv", "plain")]
    + [["verify", "--suite", "all", "--n", "4"],
       ["verify", "--suite", "all", "--n", "4", "--format", "plain"],
       ["verify", "--suite", "all", "--n", "3", "--format", "tsv"],
       ["verify", "--suite", "branching", "--n", "2", "--k", "1", "--l", "2"],
       ["verify", "--suite", "prop21", "--n", "3", "--k", "2"],
       ["verify", "--suite", "prop21", "--n", "2", "--k", "3"],
       ["verify", "--suite", "lemma24", "--n", "4", "--lambda", "1,2,2,3"],
       ["conjecture", "--n", "6", "--format", "plain"],
       ["conjecture", "--n", "4", "--k", "2", "--format", "plain"],
       ["conjecture", "--n", "6", "--format", "tsv"]]
)

GOLDEN = {
    "expand --n 5 --k 1 --format tsv": "858a6e9e0ddca6d2ec27979dcff99058de33250c47f8ef9da280b692026d517a",
    "expand --n 5 --k 1 --format json": "d9c995a980d340ada45721a6b719ce24fb7ec39ccb13f21b33a10bee3af920fa",
    "expand --n 6 --k 1 --format tsv": "75dc69b46805cb8028dc3860621157fe7c1724a7e3cf6abd3d041c42f09db547",
    "expand --n 6 --k 1 --format json": "e28f18fd06b37290f3062d6c7b82a25ad54845fd3a48eb144cb9b35cb177a133",
    "expand --n 4 --k 2 --format tsv": "05c6a858a1637f6dd9659a47291307814b9d184f6c7d91872dc544140d76ec0a",
    "expand --n 4 --k 2 --format json": "012089a8e47219afd3a6cd7a2cb663ebbcdfefc220c828058431e2542aca6436",
    "expand --n 3 --k 3 --format tsv": "d7c413a9d713c32cf7c21d365baf7987b1448f8425877454c0b410f21db72d27",
    "expand --n 7 --k 1 --format tsv": "52d870b0c2948a446d190edbc8398497001af60dc25a24f43ffee0abcb6f039b",
    "expand --n 1 --k 2": "e9e8284bf2392917c827765cd2f6167a5752ba4d864e3e3eb51839bab21dcad5",
    "expand --n 10 --k 1 --format tsv": "e4000c490950359f780b1e10f119c1d48471f9c4dc209c77b39d2810cc39fe51",
    "expand --n 6 --k 3 --format tsv": "9fc11de3050af59bdc75add98aef986fbf1c513b4844112db2704c242ece8a5f",
    "expand --n 4 --format plain": "20d6c9636e37598a0b48154ac66788c53661c84100166b578f18e77550d207f7",
    "expand --n 7 --k 2 --format plain": "2ab7152b255a139e48a868f064431a440a79aecbfb9ccf9f9b801822177a7272",
    "expand --n 7 --k 2 --format json": "2ec7e54da7af37fbee2c514ce1e6a4cae26c5008892a5dd7ad4176c2018942e2",
    "expand --n 9 --k 1 --format plain": "703c2733bfd80ded31b4b08366c5afb135826a142b8fb3a542e0b5163ad4b6ff",
    "count --n 6": "3e9553e9a6fe1e3e23056ee849cb32cba30762866b7185cd89d6d3fe94341511",
    "count --n 7": "015493aea084ce3d046c94f90ca2cb02ef0a0f1df5ba18e11418ddf7d621793a",
    "count --n 8": "049cb28ab2c1c4b0d8e68cfed0ba6407593071a978920a02d128274a29bb0bb3",
    "count --n 4 --k 2": "c5faf86e4dc1eacf1f5eb10e86ed15cd3963ba67bb17d8a7227631a874c68220",
    "eval --n 3 --k 1 --lambda 3,1,2 --method dp": "5e8b1776b670f2c0b3bd94a36136b76322380e1c1e8cb0af4f5e1ee787f1e347",
    "eval --n 3 --k 1 --lambda 3,1,2 --method naive": "99ca28190a83ee2be1565bd9cee14667ac9c67506dd4c98d6e946598f95ff097",
    "eval --n 3 --k 1 --lambda 3,1,2 --method closed": "183dc31c74a0ce4e76ab9ec20abb374d64a828aad469f4e4e1f4f84d8771b984",
    "eval --n 3 --k 1 --lambda 3,1,2 --method auto": "183dc31c74a0ce4e76ab9ec20abb374d64a828aad469f4e4e1f4f84d8771b984",
    "eval --n 2 --k 2 --lambda 1,1,2,2 --method dp": "8a1a35b1832deb31e98ac3de076616e787041c490d58d75ca359ef010fafa903",
    "eval --n 2 --k 2 --lambda 1,1,2,2 --method naive": "6d22a8524ebdf5167bf4ccddd0a1168e691b6e5a5269b5435151ece7d13b5bc2",
    "eval --n 2 --k 2 --lambda 1,1,2,2 --method closed": "12f8f9ae186ce34aa082d54a1a17c14a7282f315b5bb51725b931d4089a2f010",
    "eval --n 2 --k 2 --lambda 1,1,2,2 --method auto": "12f8f9ae186ce34aa082d54a1a17c14a7282f315b5bb51725b931d4089a2f010",
    "eval --n 4 --k 1 --lambda 1,1,2,4 --method dp": "6026e4c132f2a80c2610329ffae3e28d7cfad3ba6ad4d7343f89ddca898b603e",
    "eval --n 4 --k 1 --lambda 1,1,2,4 --method naive": "8e86ec76c04d9dc30b1426e2c1cef2ef81906a9d4baa228674d83a370e4bdbda",
    "eval --n 4 --k 1 --lambda 1,1,2,4 --method closed": "2b20bdd7ff4225de4b0df64d5364c762313aa5f0e990b1c03945f4beb939be37",
    "eval --n 4 --k 1 --lambda 1,1,2,4 --method auto": "2b20bdd7ff4225de4b0df64d5364c762313aa5f0e990b1c03945f4beb939be37",
    "eval --n 6 --k 1 --lambda 6,3,2,1,6,6 --method dp": "1f7bd1e3848aa71e655aea5202a62865a9248e4b9d58cb6be575a64baae4e78b",
    "eval --n 6 --k 1 --lambda 6,3,2,1,6,6 --method naive": "d7dd4e9405e7d2ff8cd8898a845f304a0aa025c227ef25d08e6fbb6673339fd2",
    "eval --n 6 --k 1 --lambda 6,3,2,1,6,6 --method closed": "572a9b18c611a527b5552b47bcd786b54c8f4267cc972ef82f0c1ebf30a167ec",
    "eval --n 6 --k 1 --lambda 6,3,2,1,6,6 --method auto": "572a9b18c611a527b5552b47bcd786b54c8f4267cc972ef82f0c1ebf30a167ec",
    "eval --n 4 --k 2 --lambda 2,2,4,4,4,4,4,4 --method dp": "24def08134387f765cff4236da77916a27d2de39f891c0f411dbbaacf2f0a207",
    "eval --n 4 --k 2 --lambda 2,2,4,4,4,4,4,4 --method naive": "2a4f913cbef281285fd205102cac570f68d1162c8602f23f575eb5601ef7b827",
    "eval --n 4 --k 2 --lambda 2,2,4,4,4,4,4,4 --method closed": "3468b7a49ffbd76ad2c7abd2d7fe121a37ea43cd3a931e68d43fe2473cdc13d7",
    "eval --n 4 --k 2 --lambda 2,2,4,4,4,4,4,4 --method auto": "3468b7a49ffbd76ad2c7abd2d7fe121a37ea43cd3a931e68d43fe2473cdc13d7",
    "eval --n 3 --k 3 --lambda 3,3,3,3,3,3,1,1,1 --method dp": "65ce050b4fcc76d2a25837ff848f4cb7a108a52000c795ee1da9eed3ce8fa35e",
    "eval --n 3 --k 3 --lambda 3,3,3,3,3,3,1,1,1 --method naive": "c0902511389c95292062b882d605822e8429cd0bb88cc70c40c0635ad4997a00",
    "eval --n 3 --k 3 --lambda 3,3,3,3,3,3,1,1,1 --method closed": "fd1b8d2a2f749a291ab61965898e0c47cc92cbf4884dfd6791c0e25fa261591d",
    "eval --n 3 --k 3 --lambda 3,3,3,3,3,3,1,1,1 --method auto": "fd1b8d2a2f749a291ab61965898e0c47cc92cbf4884dfd6791c0e25fa261591d",
    "eval --n 4 --k 1 --lambda 1,1,3,3 --method dp": "13e6f2712b0f32ee4736ddd1c88e7b9e69a10e09a1edc4e07d93c6dff4b05296",
    "eval --n 4 --k 1 --lambda 1,1,3,3 --method naive": "70e5052f646559a9e0e69650cdc7404b9d93dc02b31da10710435e6e196177e4",
    "eval --n 4 --k 1 --lambda 1,1,3,3 --method auto": "13e6f2712b0f32ee4736ddd1c88e7b9e69a10e09a1edc4e07d93c6dff4b05296",
    "eval --n 5 --k 1 --lambda 1,2,3,4,5 --method dp": "8aa6be765a218ad29a41f68091be4ee9196a6e11d8c193ec4ec1e0001720939a",
    "eval --n 5 --k 1 --lambda 1,2,3,4,5 --method naive": "ff25d081a6471337c784d0e2cfaec7a09320f8227e5bc51e96abe61a6b7751ea",
    "eval --n 5 --k 1 --lambda 1,2,3,4,5 --method auto": "8aa6be765a218ad29a41f68091be4ee9196a6e11d8c193ec4ec1e0001720939a",
    "eval --n 3 --k 2 --lambda 1,1,2,2,3,3 --method dp": "092e8b7fd7b482e61b5eb83dbc2819d3880b69049eec2c6971d7ac1ac9054008",
    "eval --n 3 --k 2 --lambda 1,1,2,2,3,3 --method naive": "69778049fc8c3a3a6e0c83aa283261d55a246155a7f349fa38b90708e99727fc",
    "eval --n 3 --k 2 --lambda 1,1,2,2,3,3 --method auto": "092e8b7fd7b482e61b5eb83dbc2819d3880b69049eec2c6971d7ac1ac9054008",
    "eval --n 3 --lambda 1,2,3 --format tsv": "e2eeefbe2d844955aa5d8921d6a4b2052b918a048b43c9047452d819cf7cbb7b",
    "eval --n 3 --lambda 1,2,3 --format plain": "1b766e9b9a1f8a7915dad8499bf6d15922d17cce1144ba2670e1357d74189ca1",
    "verify --suite all --n 4": "5f2a78f62cd324d965dc52b9225ec76c5e1c6e91960f9da45c31f58f164ea808",
    "verify --suite all --n 4 --format plain": "94c299837c65011b73f9134baf326195d9a2554cf71741048a37f7883278f8eb",
    "verify --suite all --n 3 --format tsv": "8accb72e925552792ca8dc75cce3b89b7d10d5f8bde4ead15c20856da0ce32cc",
    "verify --suite branching --n 2 --k 1 --l 2": "691e9f5ec1feef43d7f6c5ac68931855c69caa20a1dcd0e5362658ae973c23e6",
    "verify --suite prop21 --n 3 --k 2": "d01301b3c9e69c88cab6f345fec4f495aeffa24e0d828659d80307d730be08af",
    "verify --suite prop21 --n 2 --k 3": "6e505eb8462f8c8d56abe1bd1c8436c449ad35ffb0af1376626b0f10650565c7",
    "verify --suite lemma24 --n 4 --lambda 1,2,2,3": "4d8fa41e3c3f45d376ea6b3a05c2b838128e93c8cb7278fb5ae25a1291afa74f",
    "conjecture --n 6 --format plain": "1255169564e247c24c7e5a86e2f158e1658954ce937d8e73aebee5ac28bac327",
    "conjecture --n 4 --k 2 --format plain": "2a186658a9b63ed51f24d815ae4ecd2d5ee8f97a0854fc308082285d9c3a2639",
    "conjecture --n 6 --format tsv": "38e799e0feafcef87b79b859ec3c144ff6cdf1fec922232384eb1c595a86d632",
}


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = re.sub(r'"elapsed_ms": [-+.0-9e]+', '"elapsed_ms": 0', out.getvalue())
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_cli_stdout_matches_golden(argv):
    assert digest(argv) == (0, GOLDEN[" ".join(argv)])


def test_expand_count_and_conjecture_do_not_walk(monkeypatch):
    """CLI expand, count and conjecture take the orbit route."""
    assert not hasattr(cli, "dedekind_expand") and not hasattr(verify, "dedekind_expand")
    monkeypatch.setattr(groupdet, "dedekind_expand", None)
    for argv in RUNS:
        if argv[0] in ("expand", "count", "conjecture"):
            assert digest(argv) == (0, GOLDEN[" ".join(argv)]), argv
    assert len(verify.explore_conjecture(6, 1).zero_coefficients) == 12


@pytest.mark.parametrize("argv", [["expand", "--n", "9", "--k", "1", "--format", "plain"],
                                  ["expand", "--n", "7", "--k", "2", "--format", "json"],
                                  ["expand", "--n", "10", "--k", "1", "--format", "tsv"]], ids=" ".join)
def test_expand_streams_its_rows_in_chunks(monkeypatch, argv):
    """CLI expand writes from iter_records a chunk at a time and never builds the record list;
    these runs (2,704, 5,538 and 7,492 rows) span several chunks."""
    assert len(groupdet.orbit_expand(int(argv[2]), int(argv[4]))) > 2 * cli.EXPAND_CHUNK_ROWS

    def refuse(self):
        raise AssertionError("CLI expand built the whole record list")
    monkeypatch.setattr(groupdet.MonomialMap, "to_records", refuse)
    assert digest(argv) == (0, GOLDEN[" ".join(argv)])


if __name__ == "__main__":
    for argv in RUNS:
        print(f'    "{" ".join(argv)}": "{digest(argv)[1]}",')
