"""Byte-for-byte pins of the CLI's graph documents on IS_3, IS_4, a
Brandt semigroup, a semilattice, a left-zero semigroup and a cyclic group
with a zero adjoined, of the `pig verify` reports at `--suite all
--n 1..4`, `--suite isn --n 1..6` and of the green, Brandt and
semilattice suites at a few sizes, of the `pig build` documents of the
small families and of IS_5, of `pig spectral` on the IS_3 left graph, of
`pig classes` on four semigroups, of `pig spectral --twin-report`,
`pig skeletal --op max` and `pig stats` on seeded blow-ups, and of the
IS_1 to IS_5 and Brandt tables, labels and element data with the
`pig verify --suite brandt` report of the largest Brandt semigroup.
The Brandt and semilattice reports are pinned twice: without the line
that names their sizes, by the pin taken before it was added, and whole.

The IS_n graph and verify hashes were taken from the outputs of the
pair-loop implementation that preceded the grouped mask-intersection
builders; the family and spectral hashes from the outputs of the
per-family `Semigroup` constructors and the three separate matrix
builders; the twin report hashes from the report that took full n x n
ranks, re-taken once with its always-true `eigenvector_verified` key
dropped and nothing else changed; the class, max-skeletal and stats
hashes from the partitions built by grouping equal ideals or rows and
sorting the groups by minimal member; the other families' graph hashes
from the class quotient that took the full graph as an argument; the
family table digests from the padded-mapping IS_n walk and the Brandt
block-index arithmetic; the IS_5 build document from the last stored
IS_n table.
Any change to vertex order, labels, edges, zero or identity detection,
matrix entries or check wording shows up here.
"""

import hashlib
import json
import random
from array import array
from itertools import chain

import pytest

from pigraphs import families, graphs, skeletal
from pigraphs.cli import main
from pigraphs.semigroups import from_cayley_table

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
# `pig graph` on the `pig build` documents of other families: (family and
# parameters, side, variant) -> document
FAMILY_GRAPH_SHA256 = {
    ("brandt --group-order 2 --indices 2", "left", "pig"):
        "cfef36ee45af8ed47b699ae857e507a096fc073d96e5a09a5ebcda173c9aa417",
    ("brandt --group-order 2 --indices 2", "left", "spig"):
        "035b5b50e5a10c7e52145fa20a6519e95625f6d0b9bd9fc65b8c07a5d1564b5d",
    ("brandt --group-order 2 --indices 2", "right", "pig"):
        "6ec4da20b482bbf0c8b6d3dc61c8a3f6f2f263b419d4a93532327be81a0d50e6",
    ("brandt --group-order 2 --indices 2", "right", "spig"):
        "d566f98a328b44cad33e413b28587d7d47f782b9f696a9fd2aec68d7f731934b",
    ("semilattice --n 3", "left", "pig"):
        "b43a888b6b398fef59a345fef1c537766de57fc0b5edb87d54977ecda14c1f29",
    ("semilattice --n 3", "left", "spig"):
        "51e12aa2b44af2740024b04fa5fd3a29a349007b1e85e5de65693a663c5b1c09",
    ("semilattice --n 3", "right", "pig"):
        "b43a888b6b398fef59a345fef1c537766de57fc0b5edb87d54977ecda14c1f29",
    ("semilattice --n 3", "right", "spig"):
        "51e12aa2b44af2740024b04fa5fd3a29a349007b1e85e5de65693a663c5b1c09",
    ("leftzero --n 3 --adjoin-zero", "left", "pig"):
        "b38b81acaaa646c115e437096226bbb706d821994c1a8f7087f246b4b3d59bd2",
    ("leftzero --n 3 --adjoin-zero", "left", "spig"):
        "1686d8cfabfcba0bbbfb6d99a1baa3a5ae33819e769d8d6138777c90beae1acd",
    ("leftzero --n 3 --adjoin-zero", "right", "pig"):
        "827cf2e6a81f0bb12f8bc00bac45242089e5ebcb0d4f1521b27fb176117c221a",
    ("leftzero --n 3 --adjoin-zero", "right", "spig"):
        "8ca17a04dd7a6baec2df54e229e9d9500df27379fa6522f59718f566798e0be6",
    ("cyclic --n 4 --adjoin-zero", "left", "pig"):
        "d76e946934b758cd30f8ff27296bf0aaa4623727ead8ce6bffd3d4377d94057c",
    ("cyclic --n 4 --adjoin-zero", "left", "spig"):
        "6fe19e129e6ee8252ce495605eb2026758165b8f1baf33dbfb14138e8eb84ff1",
    ("cyclic --n 4 --adjoin-zero", "right", "pig"):
        "d76e946934b758cd30f8ff27296bf0aaa4623727ead8ce6bffd3d4377d94057c",
    ("cyclic --n 4 --adjoin-zero", "right", "spig"):
        "6fe19e129e6ee8252ce495605eb2026758165b8f1baf33dbfb14138e8eb84ff1",
}
BUILD_SHA256 = {
    3: "2e51d0d0ef0b32d2313a82acace40a71763326320ca9f84b94981970df01256b",
    4: "c06a3b54185fcc0f63fbd5603f75f3c37fa993f933763320781b863b40d0d28b",
    5: "d4538f3fe339be29a87e7d175d1ba15c62c6dc5d668ce9ab7f11538b2f03ee99",
}
VERIFY_SHA256 = {
    ("all", 4):
        "2a10a53e599d0569ec3e0d271f3634bd8294e1213f6f5c50983ebe8cb2c868ef",
    ("isn", 5):
        "d278764503754f0e4ba2d9a95188c5bd8456ba5e548e62ecc3cae39f47914e6a",
    # taken when IS_6 first ran, on products computed when read
    ("isn", 6):
        "6d65aff0b87bdb534579dd98985c1c2e636de023cad1057ae9162d56919e2a6e",
}
# further `pig verify --suite <args>` reports, pinned at the last commit
# before the class checks became partition equalities: args -> stdout
VERIFY_ARGS_SHA256 = {
    "isn --n 1":
        "3a721c5447edbd84274956e0e18f8303073397870e27fccb49098f7b2a13a0f3",
    "isn --n 2":
        "92d6f9982d7fe03f5b32dbec39d20ed714ace76fbf8c15559f808270219217e5",
    "isn --n 3":
        "9e1242f2208c11969dd61aca7952f2447605f9c4c49250cc65f8eb0a4738f168",
    "isn --n 4":
        "443de6795ca3e597b17b53855ddd0be8b9b8c1d45fd82c8a6e36777307c14bc6",
    "all --n 1":
        "da104a40fcd70b7437b735a6d53b8ca61fbec4f408ffa22a2fa517750eef0335",
    "all --n 2":
        "7baaa6ef29d806a719ddfd279d63be8e357c22f596548ccc261b5edd830c6603",
    "all --n 3":
        "31fc0dd3f247ccb5e759996bc801ea71e8314cb560cdf8473f1e00b0169d924f",
    "green":
        "ba589249faffdf6a7aeafc75ca817a4d01201d4e7cc773488ac46e22974b18fe",
    "brandt":
        "1dfd8fb241db97667f5dc8cf80441f8a3553445dd4d6d6c5e8e8ced500bb4063",
    "brandt --group-order 1 --indices 1":
        "1dfd8fb241db97667f5dc8cf80441f8a3553445dd4d6d6c5e8e8ced500bb4063",
    "brandt --group-order 3 --indices 4":
        "1dfd8fb241db97667f5dc8cf80441f8a3553445dd4d6d6c5e8e8ced500bb4063",
    "semilattice --n 1":
        "548b84fff3c442d264f7830edf8921b9366dd63aac2a7b370ecdbc602ac7ee46",
    "semilattice --n 5":
        "548b84fff3c442d264f7830edf8921b9366dd63aac2a7b370ecdbc602ac7ee46",
}
# each Brandt and semilattice suite gained one line naming its sizes after
# the pins above were taken; a report less its size lines must hash to its
# pin above, so the older lines are all there, in order, unchanged
SIZE_LINES = (
    "[PASS] brandt: the nonzero idempotents number r  (",
    "[PASS] semilattice: every element is idempotent, 2^n of them  (")
# and the reports with their size lines: `pig verify --suite` args -> stdout
SIZED_VERIFY_SHA256 = {
    "all --n 1":
        "d23484edea17bd6e361ca7f546bbe0d5efc612f8a69768caf6a769d49c5538cc",
    "all --n 2":
        "18411b57bae37949ee096fc7a9be89b79ddaa6ebab7fca4c171cb29705a928b8",
    "all --n 3":
        "a052d4c944b4b325c6465e35a55f1c97aade1f7442aa90a401e505a998568a87",
    "all --n 4":
        "718d1eac2ec370986382cd59cd89a153b6fc042465fa74807a6e34b6ae24b2ba",
    "brandt":
        "d8a4a3ca7c434fe9cbcefa598ac631a340200d161ce166dcbb7490e6ea21f80c",
    "brandt --group-order 1 --indices 1":
        "df213d2de5f2a72df8906d46656855ea5baaf8c486b61b14fd2a7c184cec3a74",
    "brandt --group-order 3 --indices 4":
        "423cdfa5b81452d84a38c4700d037c3dfc948a1086cfc1f52424787f574de037",
    "brandt --group-order 5 --indices 17":
        "96cb9a79132f416d1a13cc40089ef503d15348a51e909e536cc10627a4e1ea6f",
    "semilattice --n 1":
        "3c9885ab21049301a7b9097e1cab6e77bbdd0c37d73888c7d5f7c2c6889b6636",
    "semilattice --n 5":
        "46889947d10a5889a330b87ac00c0be637ffc5999c43b2572d05f08235565bc8",
}

FAMILY_BUILD_SHA256 = {
    ("brandt", "--group-order 2 --indices 2"): (
        "df64241c9e3d88f7dc446558c284152a3ad49bae9ed8431191d15eadd23bc083",
        "aeec501002024e19b89bfcfd7a97f6a80d9dbc4472f16a7e31ad524cfaa63a93"),
    ("semilattice", "--n 3"): (
        "df61e91234a9abd3eb16e6431a268984753c29b184d11eac14b92f92100b1b3a",
        "32193959c7ce9338fa558d3b135cd4af1f6b79077e5a76577ebae5fb7b2cb9ed"),
    ("cyclic", "--n 1"): (
        "c7c6deb620661c9f70887d2b0b3fad362048b2ffc6064495f13d29e5950cd65a",
        "eb8bfd0fe1e3ec63e60c93ac47f9a4613c84c9e25f839454a2a19dfad43bc648"),
    ("cyclic", "--n 4"): (
        "b922b0023374192c117d45715448d2772d6ba24e28202e6d015d3f2e836cd60f",
        "38b306650292c1f44fa7658c06be29fedbeee12a4bf26f4c029f81cadbe66619"),
    ("leftzero", "--n 1"): (
        "4366304cdee52572219a1603a189d9e3b64d24fdc6af2e97c7ffb672f661bf4c",
        "5aaaa8f6369a20d8e1399f8c0c4737697cd2c9b7340ad190ef347cf368efb29f"),
    ("leftzero", "--n 3"): (
        "a172d1666a43dbfb6bf99c40f73dc7a9e90ba4ac2d009b667a06ab1765a8eda9",
        "92c55dc0fa8d2ef18eea12585ee48bb3364727e99f79561a43d1557be7a50d2a"),
}
# `pig spectral` on the IS_3 left graph: (matrix, --lambda) -> stdout
SPECTRAL_SHA256 = {
    ("A", None):
        "4f62bf9f09f84dee593ab1adfe87ec64c82b01f05af0c02f6a68be66bd6e5b9b",
    ("A", -1):
        "455f04f68bb4248b84664407c9b026a5f83cedd3ef7ae0ff1e9942c6ff166e03",
    ("L", None):
        "9736c38e8b42bee4944e68751c505cc2bdc403e0c84fad7f4489304915019bac",
    ("L", -1):
        "580df1720e9f0281c078a0cad32c822bd42ebd2d4b9edbc29a89b99ab0910f8d",
    ("Q", None):
        "afc0a91de41cc1effaacbaaf29e5c4404f2b9bdc08dced31db437f3ba5979075",
    ("Q", -1):
        "cb478d63a8ec8236a4a5573520e371dec4c468992f3e8412bf0e916a1b55c610",
}
TWIN_REPORT_SHA256 = \
    "82a272201fe7786fcedcaba146edcb1679ae7e53660aa89af3f79fb777a36200"

# `pig spectral --twin-report` on seeded blow-ups: base order -> stdout; the
# fibre sizes cycle through 1, 2, 3, so the orders run from 24 to 54
BLOW_UP_TWIN_REPORT_SHA256 = {
    12: "564b413985c67b9332aaf6d1b2e2c4f3e39c8ba55d2bf9b1d7a66b723bb2b0cb",
    15: "8672fa7f6aed0aba8f18885cd8e5c8121ae987e95db69619cfea2ae3c4faab2d",
    18: "de207bf77d1c25b203a24ca5da6939f7dc6a9adc35bb4400330101aa9e71b503",
    21: "481fd369fb49c05861249dc4384c2a1ddd1431a0ddd3398c9e131ee11e147441",
    24: "98429385904ef4e4077526166217fb88b3da8ab9c6ff4c5a8e140af1f7924b7d",
    27: "cb08f1bfc810e80085970c0dc430b0da7cb14988020fe96b7dc278d811ff5ddb",
}


# `pig classes --side left|right` on built semigroups: (family and
# parameters, side) -> stdout
CLASSES_SHA256 = {
    ("brandt --group-order 2 --indices 3", "left"):
        "360a4fd40aac153046c0a793e739fceba87a2985e14bc59a58596bd69c5c7b2f",
    ("brandt --group-order 2 --indices 3", "right"):
        "7a8b3b761163ee41b6fc2dd5eebd7c8f472efcace5608b81631c5dd04495d4e7",
    ("isn --n 3", "left"):
        "b9e962238c3da80ccba6a8ad9087d1e4935ffee43fea0e44a1e16636332cf3dd",
    ("isn --n 3", "right"):
        "68ac2aa663042a801c4bf07db0d63537d80e29cfe2db91478987f82551006496",
    ("isn --n 4", "left"):
        "46412df8f7a201e4f9c5023066e65e1bb8483585de683a7576e4c13b98ea9db1",
    ("isn --n 4", "right"):
        "ce450d39f7b2b00887304e30f1b091cee74a1e159f05300709162ab387281876",
    ("leftzero --n 3 --adjoin-zero", "left"):
        "91d389e85a6cb3ccc0b2587e40b1f2a1ff09e0460625b3ff2dc4e737f9c7b141",
    ("leftzero --n 3 --adjoin-zero", "right"):
        "98d2dc241a3615ef0aba1cd8fe2c255984506247e62dbf160af448fdcb21671d",
}

# `pig skeletal --op max` and `pig stats` on the same seeded blow-ups: base
# order -> (max-skeletal stdout, stats stdout)
BLOW_UP_MAX_AND_STATS_SHA256 = {
    12: ("91c67392fc245efcfda356ca59a4d744cfd2b19f75101839b2b744134e0f9386",
         "322916fd18ac1b2e76f3699bd6267e40dbbd0606ead72c30b5f06a4432281266"),
    15: ("aab6d98033dfae392bc6883b42ccc57fa1453734a218bdd5c712703b41a7c0e8",
         "085a803fd7fdb315bd31904ead0b7746ce746affeb03d2e7d7c8f525db8b4512"),
    18: ("e884b050d6416376a79e6a2f2df4738d66261441bdc55f5db92cb1471a085b02",
         "84f19cb085d04e9ab775526d4f0ab8389afb5d61f4041d024bebd3cfd5b3daba"),
    21: ("4c2f081660f578431970ec76686b99c8009bf051519619987be8c31e0ce8d59f",
         "d08f49541f826ac59a32c038eb46334b8f04242f716c98294ddf909e08db5916"),
    24: ("66293229a7b17ee6518b5d043c8ffb05f2410e24cba4c8c0694d168a9e71b698",
         "937d82b313876aa935176eb4516087a045ed8d43118091c3691afc33dc40542c"),
    27: ("dcb3d2bed0ec4a7f430cc3d871382c960999d98e40cdf247597dbbfc1e660d38",
         "1870dea32affdb5e586059581646fc3755db113e18fe055254e934ac3e494a8f"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_report(args, out, pin):
    """out is the `pig verify --suite <args>` report pinned as pin, plus
    one size line per Brandt and semilattice suite, pinned on their own."""
    suite = args.split()[0]
    lines = out.splitlines(keepends=True)
    older = [line for line in lines if not line.startswith(SIZE_LINES)]
    assert sha256("".join(older).encode()) == pin, args
    assert len(lines) - len(older) == \
        {"all": 2, "brandt": 1, "semilattice": 1}.get(suite, 0), args
    assert sha256(out.encode()) == SIZED_VERIFY_SHA256.get(args, pin), args


def test_largest_build_document_is_unchanged(tmp_path, capsys):
    # IS_5, the largest table pig build writes: all 2,390,116 entries
    sg = tmp_path / "is5.json"
    assert main(["build", "--family", "isn", "--n", "5",
                 "--out", str(sg)]) == 0
    assert sha256(sg.read_bytes()) == BUILD_SHA256[5]
    assert capsys.readouterr().err == \
        "order=1546 zero=0 identity=591 idempotents=32\n"


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


@pytest.mark.parametrize("family",
                         sorted({key[0] for key in FAMILY_GRAPH_SHA256}))
def test_family_graph_documents_are_unchanged(family, tmp_path, capsys):
    sg = tmp_path / "sg.json"
    assert main(["build", "--family", *family.split(), "--out", str(sg)]) == 0
    for side in ("left", "right"):
        for variant in ("pig", "spig"):
            out = tmp_path / f"{side}-{variant}.json"
            assert main(["graph", "--input", str(sg), "--side", side,
                         "--variant", variant, "--out", str(out)]) == 0
            assert sha256(out.read_bytes()) == \
                FAMILY_GRAPH_SHA256[family, side, variant], (side, variant)


@pytest.mark.parametrize("suite,n", sorted(VERIFY_SHA256))
def test_verify_report_is_unchanged(suite, n, capsys):
    assert main(["verify", "--suite", suite, "--n", str(n)]) == 0
    assert_report(f"{suite} --n {n}", capsys.readouterr().out,
                  VERIFY_SHA256[suite, n])


@pytest.mark.parametrize("args", sorted(VERIFY_ARGS_SHA256))
def test_verify_reports_at_more_parameters_are_unchanged(args, capsys):
    assert main(["verify", "--suite", *args.split()]) == 0
    assert_report(args, capsys.readouterr().out, VERIFY_ARGS_SHA256[args])


def test_brandt_reports_name_their_sizes(capsys):
    reports = []
    for args in ("brandt --group-order 1 --indices 1",
                 "brandt --group-order 3 --indices 4"):
        assert main(["verify", "--suite", *args.split()]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] != reports[1]
    assert "(r=4 |G|=3 order=49)" in reports[1]


@pytest.mark.parametrize("family,params", sorted(FAMILY_BUILD_SHA256))
def test_family_build_documents_are_unchanged(family, params, tmp_path,
                                              capsys):
    for adjoin, want in zip(([], ["--adjoin-zero"]),
                            FAMILY_BUILD_SHA256[family, params]):
        out = tmp_path / "sg.json"
        assert main(["build", "--family", family, *params.split(), *adjoin,
                     "--out", str(out)]) == 0
        assert sha256(out.read_bytes()) == want, (family, params, adjoin)


def test_spectral_reports_are_unchanged(tmp_path, capsys):
    sg, graph = tmp_path / "is3.json", tmp_path / "left.json"
    assert main(["build", "--family", "isn", "--n", "3",
                 "--out", str(sg)]) == 0
    assert main(["graph", "--input", str(sg), "--out", str(graph)]) == 0
    capsys.readouterr()
    for (matrix, lam), want in SPECTRAL_SHA256.items():
        extra = [] if lam is None else ["--lambda", str(lam)]
        assert main(["spectral", "--graph", str(graph), "--matrix", matrix,
                     *extra]) == 0
        assert sha256(capsys.readouterr().out.encode()) == want, (matrix, lam)
    assert main(["spectral", "--graph", str(graph), "--twin-report"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == TWIN_REPORT_SHA256


def _blow_up_documents(path):
    """Write each seeded blow-up to path in turn; yields its base order."""
    rng = random.Random(2026)
    for base_order in BLOW_UP_TWIN_REPORT_SHA256:
        base = graphs.random_graph(base_order, 0.5, rng)
        big, _ = skeletal.blow_up(base, [1 + j % 3
                                         for j in range(base_order)])
        path.write_text(json.dumps(graphs.to_json_dict(big)))
        yield base_order


def test_blow_up_twin_reports_are_unchanged(tmp_path, capsys):
    path = tmp_path / "blow-up.json"
    for base_order in _blow_up_documents(path):
        assert main(["spectral", "--graph", str(path), "--twin-report"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == \
            BLOW_UP_TWIN_REPORT_SHA256[base_order], base_order


def test_blow_up_max_skeletals_and_stats_are_unchanged(tmp_path, capsys):
    path = tmp_path / "blow-up.json"
    for base_order in _blow_up_documents(path):
        for argv, want in zip((["skeletal", "--op", "max"], ["stats"]),
                              BLOW_UP_MAX_AND_STATS_SHA256[base_order]):
            assert main([*argv, "--graph", str(path)]) == 0
            assert sha256(capsys.readouterr().out.encode()) == want, \
                (base_order, argv)


@pytest.mark.parametrize("family,side", sorted(CLASSES_SHA256))
def test_class_listings_are_unchanged(family, side, tmp_path, capsys):
    sg = tmp_path / "sg.json"
    assert main(["build", "--family", *family.split(), "--out", str(sg)]) == 0
    capsys.readouterr()
    assert main(["classes", "--input", str(sg), "--side", side]) == 0
    assert sha256(capsys.readouterr().out.encode()) == \
        CLASSES_SHA256[family, side]


# digests of the family tables, taken before IS_n and Brandt were built by
# one generator walk: the table as 2-byte entries, then the repr of the
# labels, the element data (IS_n: the mappings) and, for IS_n, ``gens``
ISN_TABLE_SHA256 = {
    1: "8756c8f94024162741163be1f4cf802beffeb4873f6a1be7b6c23190cff91040",
    2: "a780638a2791930f36fe9288eccd2bac796b736ac6ff580be5f5c40b9a9f414a",
    3: "baeb3c3bbd751ddeddfeee8153ffeb148dc32351d6bb4c60851785e96da70a1c",
    4: "913b03adfee471b15daa6ffc6fe98aa4ecaa3a37ab2dc431c84ddf4907d0a9d3",
    5: "a2ba7bbd4a693982f1f8d702651ed1f7c4677813a751882e7b52bbc728c44131",
}
# Brandt over Z_m (``cyclic_group(m)``) or the Klein four-group V4 with
# r indices: (group, r) -> digest of table, labels and elements
BRANDT_TABLE_SHA256 = {
    ("Z1", 1):
        "4da8e1e85ce995d2ebcb46a75f1bd4943c5b1166e97322d770e3a72e37d62079",
    ("Z1", 2):
        "f665e626d5fa8e9e2af65b86d0a92a10c79e112f7066f62fefdf75ce39eec393",
    ("Z1", 3):
        "34be6c944c8f7487ab740157db8be2887b7474e0bdff4ba92d07987f3234cd8b",
    ("Z1", 4):
        "6776d0efbf8b720c83d30c6b3c56bc221bc82342edebd6054735bd7d80248e3f",
    ("Z1", 5):
        "ca8d50f77128cfa2775782b54b1b35077029a364dc9e7d26f650bd95b30fbf6e",
    ("Z1", 6):
        "5564140fc320f834ed032b2bd466958b15fda59f8e8f969a91e99165653ef602",
    ("Z2", 1):
        "e1566a29bb7a5d98942424a944ec90ab3d7761d4c4f3eb9af909953453c67fa1",
    ("Z2", 2):
        "390f8dc5cc34581b3837543fd0cd3669badface996e1712b29cefffd1d8435e0",
    ("Z2", 3):
        "675d2ce3d10aad156657086ab02575af7f8e816956213dc13dbbe7bf9b785ea9",
    ("Z2", 4):
        "e5f17cd0756e63f66e4846f7faa3569c778dace87e09a2a302835d49a6c53ec8",
    ("Z2", 5):
        "365ecc4b9c53f06931a12d93e1f720b22d22091d671449f331e0264ae17769ad",
    ("Z2", 6):
        "47b37488d9c1cd435b672810eeb53c66bf1b96056a1aa8aaa8a0096abdebc92e",
    ("Z3", 1):
        "4e2cc82a240bb98e2d20d4987e4baebd73701383e9fa31882e7e2631e2473aeb",
    ("Z3", 2):
        "054f24f81b07e2c972878c91921cb37eb2e2af5ab0da4ac9a5fae7723d01aa24",
    ("Z3", 3):
        "94539079b64d3382b73ed5672b71ee65fe57b69e6cf6b4f3a2261dd3cc846949",
    ("Z3", 4):
        "3382539ffc4eded0463e0771c19b255d803122ae5f1feca7a48bb6d160408a62",
    ("Z3", 5):
        "3d00f307930beac3976e02583a84699c1b452cc38ed40d0a399d09d671dd635a",
    ("Z3", 6):
        "5fc02bfb46a89f73aa8a3887847f99b0b1e6cce8a38efe5152defcec685bc371",
    ("Z4", 1):
        "9f98677df386fddb69bc51540aa8bc1d8551309d77b2741155effa1ea8b1be92",
    ("Z4", 2):
        "c36a8fea0ab4139797d3ef3500725b0d0c0cca90aa9a5631bd1ee8fbb124ef9a",
    ("Z4", 3):
        "1c61d87dffc9a807a02a13dcc7088bf881ba805f55e4e1c6fa63093b3fb69d58",
    ("Z4", 4):
        "4999edf043ec0fbe17b2f091138fa161eaacd5d9b309709743d2d9bc12ee4492",
    ("Z4", 5):
        "c37a3c6a5209924fb625e398b30ce3e0dbfcd607b36d758b318a833e5aabdd46",
    ("Z4", 6):
        "d10b4570f8e78c0f42a36ba10cc956e092817259ac89afd318f4203093a44ce8",
    ("Z5", 1):
        "8b1e7df32274746b10cee22723387dfed68ddb2c180e8e309bdbf93c3dd44ce2",
    ("Z5", 2):
        "890a3a6c81f8f5653bf06b26543770ec1c0fb0ea889244d5b0f96f2c9fcf49e8",
    ("Z5", 3):
        "991ed37cf9c036de3907aac3ac702c5a9523485e35ebbc7c8307fd18e15e5d60",
    ("Z5", 4):
        "307797ed47d9ef6c9693b2a95022c36f4bbdd6c6a967d801d3f0e212e9710dee",
    ("Z5", 5):
        "b1292033900d9afa2104c500760b60fec43ed62ac70089925371394d51107f6e",
    ("Z5", 6):
        "9a48f7fb18055a2c60b00476af27f7019a5a881cbb136e94f682016d2d4f57e3",
    ("V4", 1):
        "5c7f9261609977a8efa0c08f2186d2a41491c5382479db4035f07b240cdc016b",
    ("V4", 2):
        "68e0b6248390ad73dd3523cc13bcfd5d4e7ea3a68ee5a8847e62336f9b30051f",
    ("V4", 3):
        "e2f7d4f49c481a0af0e55ac2cf6b3b7ca60b0f93c64d86d666fa5df9462b8419",
    ("V4", 4):
        "635d13441430ebb2604d13039de32388784cb96efd43e709ad09a55f3072f613",
    ("Z5", 17):
        "fd1cc431c5346f47d0e650593b65fb58fe5eb8fd6931a9ff00049d41129e45f9",
}
# the largest Brandt semigroup, B(Z_5, 17) of order 1,446, through its suite
# (its report with the size line is in SIZED_VERIFY_SHA256)
BRANDT_LARGEST_REPORT_SHA256 = \
    "1dfd8fb241db97667f5dc8cf80441f8a3553445dd4d6d6c5e8e8ced500bb4063"


def family_digest(s, *parts):
    h = hashlib.sha256(array("H", chain.from_iterable(s.table)).tobytes())
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(ISN_TABLE_SHA256))
def test_isn_tables_are_unchanged(n):
    s = families.symmetric_inverse(n)
    assert family_digest(s, s.labels, list(s.elements),
                         s.gens) == ISN_TABLE_SHA256[n]


def test_table_digests_read_the_walk_table(products):
    # family_digest reads every entry, which the view hands over from the
    # table gathered along the walk it kept, from the generator rows its
    # walk gave: no product at all, not one per entry, nor a second walk
    for s in (families.symmetric_inverse(4),
              families.brandt(families.cyclic_group(3), 4)):
        count = products(s)
        family_digest(s)
        assert count["products"] == 0


def test_brandt_tables_are_unchanged():
    groups = {f"Z{m}": families.cyclic_group(m) for m in range(1, 6)}
    groups["V4"] = from_cayley_table(
        [[x ^ y for y in range(4)] for x in range(4)])
    for (group, r), want in BRANDT_TABLE_SHA256.items():
        s = families.brandt(groups[group], r)
        assert family_digest(s, s.labels, s.elements) == want, (group, r)


def test_largest_brandt_report_is_unchanged(capsys):
    args = "brandt --group-order 5 --indices 17"
    assert main(["verify", "--suite", *args.split()]) == 0
    assert_report(args, capsys.readouterr().out,
                  BRANDT_LARGEST_REPORT_SHA256)
