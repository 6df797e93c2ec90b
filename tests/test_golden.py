"""Byte-for-byte pins of the CLI's IS_3/IS_4 graph documents and of the
`pig verify --suite all --n 4` and `--suite isn --n 5` reports.

The hashes were taken from the outputs of the pair-loop implementation
that preceded the grouped mask-intersection builders, so any change to
vertex order, labels, edges or check wording shows up here.
"""

import hashlib

import pytest

from pigraphs.cli import main

GRAPH_SHA256 = {
    (3, "left", "pig"):
        "5cabcedd399b57076e4f8e7b2508bc1be04c7f67b39be87bb398624613ba3a80",
    (3, "left", "spig"):
        "96c559b1388a765a858fd41c0a7fc1c4b3fa51e3cfb53a51d46bf0f87217d4db",
    (3, "right", "pig"):
        "2165269137e8ed22378270063c7a278c343e148407dae41f52b166784f682fa8",
    (3, "right", "spig"):
        "0c05d38c0fc2c88eec81c601805df9a39e9ef37abe0b14853d04254f992c2154",
    (4, "left", "pig"):
        "b17f05cbbc57f67f6156855024394b66d39f7631c004f8de25844507b3f3a130",
    (4, "left", "spig"):
        "08b97635d871bfff2ed1f5a76caa69a14387c9df21df8dfdd1bd24f9b0bbb50c",
    (4, "right", "pig"):
        "e5ee91266f7eb8b303a94254bba8e788e0285b902fb9478c2d7789404833eda7",
    (4, "right", "spig"):
        "5e10eb750ca983e2adcbea69b62507d844b4946bea99921facd7a7a63369f74d",
}
BUILD_SHA256 = {
    3: "2e51d0d0ef0b32d2313a82acace40a71763326320ca9f84b94981970df01256b",
    4: "c06a3b54185fcc0f63fbd5603f75f3c37fa993f933763320781b863b40d0d28b",
}
VERIFY_SHA256 = {
    ("all", 4):
        "2a10a53e599d0569ec3e0d271f3634bd8294e1213f6f5c50983ebe8cb2c868ef",
    ("isn", 5):
        "d278764503754f0e4ba2d9a95188c5bd8456ba5e548e62ecc3cae39f47914e6a",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n", [3, 4])
def test_isn_graph_documents_are_unchanged(n, tmp_path, capsys):
    sg = tmp_path / f"is{n}.json"
    assert main(["build", "--family", "isn", "--n", str(n),
                 "--out", str(sg)]) == 0
    assert sha256(sg.read_bytes()) == BUILD_SHA256[n]
    for side in ("left", "right"):
        for variant in ("pig", "spig"):
            out = tmp_path / f"{side}-{variant}.json"
            assert main(["graph", "--input", str(sg), "--side", side,
                         "--variant", variant, "--out", str(out)]) == 0
            assert sha256(out.read_bytes()) == \
                GRAPH_SHA256[n, side, variant], (n, side, variant)


@pytest.mark.parametrize("suite,n", sorted(VERIFY_SHA256))
def test_verify_report_is_unchanged(suite, n, capsys):
    assert main(["verify", "--suite", suite, "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()) == VERIFY_SHA256[suite, n]
