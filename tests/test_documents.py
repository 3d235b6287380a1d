"""Golden result documents: byte identity of ``cli.format_result``.

Each case names a deterministic instance and the sha256 of the document
``ecpostman solve`` prints for it. The ``random-*`` and ``digraph-*``
cases all reach the matching stage (they build the auxiliary model and
run the blossom); the ``trail-*`` cases take the already-Eulerian route.
Where several optimal tours exist, the document records which one the
solver picks. The matching's tie-break makes that choice canonical: it
depends on the matched witness signatures only, so the order of the
auxiliary vertices must not change a document, and neither may a model
that matches the same signatures. A change to the walk tables, the
tie-break or the trail extraction still shows up here, even when every
optimum is still right; a deliberate one must re-record these digests
and say so in CHANGES.md. ``REFERENCE_DIGESTS`` pins the reference
pipeline (``oracle.reference_solve``) to the documents the solver made
while it solved on the normalized graph. ``CORPUS_SHA256`` pins every
document of the benchmark's own corpus at once.
"""

import hashlib
import random

import pytest

from ecpostman.cli import format_result
from ecpostman.matching import MatchingInstance, PerfectMatching, min_weight_perfect_matching
from ecpostman.oracle import (
    encode_digraph,
    gen_random_digraph,
    gen_random_instance,
    gen_random_trail_instance,
    instance_from_edges,
    reference_solve,
)
from ecpostman.solver import solve

# "random-<s>":  gen_random_instance(10, 3, 16, 9, s), seeds without a single-color vertex
# "digraph-<s>": encode_digraph(*gen_random_digraph(5, 9, 9, s))
# "trail-<s>":   gen_random_trail_instance(6, 3, 12, 9, s)
DIGESTS = {
    "random-41": "8c52fdc8ff3081b141446ca1263a77f0ce65ad829fc67b641e502091f3603abc",
    "random-48": "a248f89ee8fe873bea6d8f91ae2758ea004173260ea9af265f9aefaf0a7492e6",
    "random-120": "839b0bb3135ac77bbc37c092c769f5631f76fcc170b8efe1504af51f4e90141d",
    "random-131": "a641fed6e5e6cd7a01ebe472fa00d60428b095d9daf7d827616e10403f118464",
    "random-265": "880c6b6750717c87bc6c02d92e73768e39917c5a4dd7a7e9ebf7e8e618530fce",
    "random-323": "53b941c8905687c4d55d30abe982cb4aab8d11070847109104fbc4e7cc78d255",
    "random-430": "39b293e15ddb3bf78bef4bfdc1bb2d1fe7d581611fcd5b2de06ffb4ff3e14294",
    "random-466": "1865ecfe3cf279e30e93ee82f6f1b8ffafc4d3f5597a3e92ce8d1c38ac8a560f",
    "random-579": "0cfed0eca7a21b689ae0d32c219bde565ad69a59102ecca795371e477eb8a4f3",
    "random-582": "de25b555a40355700f03a3918f1d101f288778907fa582acbe19068074c14fd5",
    "random-586": "0b6e36176ee34538d8afa42c1d2391fb1be822df4641136beef5fc37221e48c6",
    "random-642": "fcdedb08fc30bf1223b6bf59e78a607c6de27f4e6c15d3680ac5e129e2593383",
    "random-709": "9896ed7d9a9626d822676311ac1aaf28200c27ddb406b1a08314fc65189e26fe",
    "random-736": "e3e0a8aac3d03bca9bdd7b5580cb4288a79c0e388a75c46771098f5a711de1da",
    "random-774": "1fde2f9acdee83997d28de6aae0c15043a8665a147fa349e30ede8ee2b4649c0",
    "random-777": "f560545b992035409f62d4f713dc47facfa93e212a33aa6372259e3275b095c0",
    "random-818": "449a1a36363b7c3d8f12f9d50413d94134d07db5c29beb9cf930343c01b3db77",
    "random-940": "f31835fd7914d6b5a050fd6d2ac9bea5479bec2508d5d458615a46baa215ee1c",
    "random-957": "fc76a2ea44b8136a2b9b88d1152245bd5d331e5984eefd3f6f0156fbd472b91b",
    "random-981": "48f68352b331a8c05c6b0fa80db30d27cd932be879b5f2f6cbd14f002d8137bc",
    "digraph-9": "82f8b039d8f478427584bddc120493b88e19d49b5818af9cb9210d594c5185d7",
    "digraph-13": "3f896b2f2c4e2c715366327b439f60ab9f59c71fcd56a82f1e2b325579bfb62b",
    "digraph-17": "979b906e47a59f496af5e43d6e157f2536bfa73479c1a8a28380c5a58555df6c",
    "digraph-18": "a5477c6cc07644c1603f77458966b0c2b554e958d9e21afaa1f60acff6eb142d",
    "digraph-21": "53ebcc27934beea7d79863ab580fe7e823f208e0b6a747b1a7a67dca9571d9a0",
    "digraph-23": "10e849c37f9b6d9100daab40ade7125f01c8b48eda933313ca2282a0e7468698",
    "digraph-26": "492b2204fc1bd33b3ae3ba1e409ea10f00721ab7bde9cdeb99f5a5dfa2036776",
    "digraph-40": "11c604fcd19b450a1494bfaa5c3b56878e5988e42e1f4d0528302edc55ced22a",
    "digraph-41": "45d238730908e7b015b93a605d4e64903245e01e66493b1bd8dbd31f3fe17215",
    "digraph-46": "80183841f6d249a99055afc476b23ac636c48c3bf664fa1e59cee613d7c2158f",
    "digraph-50": "1310d359afdc9169a546831d0574c657e9ebcbe07b9ec38014ff7896d073100f",
    "digraph-57": "cf7064341b977ee11cfca94e5046643a07aa34d2146342ae2944b75dd5404d8c",
    "digraph-58": "b9231f8ef6374ee6ade633b3494698070df37c74094357f40880b785cdf23da4",
    "digraph-60": "c8c386acfba45abce81873031f33bd773615439321c6e9f33633bd207af5f018",
    "digraph-65": "cc635492d5ccec6bbb1bd52e92ad12fdf873cc64eb26caa4d05a65b8f46ca847",
    "digraph-68": "1c1552d5ababbacb330f1186be6dd39293cf7404951e6300f265ec76a3b218ce",
    "digraph-74": "ba8ae6341c2cce6cb6dd56c81e67569cc6265b7b924eb17bb2aeaa66de2cd04e",
    "digraph-79": "c77929c77fb07d0d008983cb504c37bc5e1a9b11697452b57a87992059039edd",
    "digraph-80": "83aec2bd6b881afdbf2d08a23efc12806960c18000ac2f4d9c5e8e952ce81162",
    "digraph-89": "7779ef88bbec56c729c792ef77f4f8f455923ca3c4d8715ed4a0b85729a552a6",
    "trail-0": "4660f23902dd94596e44fa6db36f2e7ad7117559190df318bf6dee2107bb948f",
    "trail-1": "9ee67aa6b366cfb212d58da6f2cb0eb9a5f5c71fa75a971228c216cddb665c11",
    "trail-2": "533e42a5da7825687f91fc350d395d55ad6c0fef5f207ef4a99670109f5e18e6",
    "trail-3": "d85664811d903908c2ef0fead698c8eedbe65dc008bab95fff340f8fb11d5416",
    "trail-4": "eaef7456bca5776c48d5ac14d95c4cd130d8d5243784f5d62864579b2190dfa2",
    "trail-5": "12a5d0b27740c23c94e82bd9061d7f27457884de15cb9d6c1028b0a9867df9c9",
    "trail-6": "152b7aaa2bbdba463a9f8949ac910154449336df58f47c4a931dd14f973ef1b7",
    "trail-7": "46c9a27c6b2ad32fdaabca62f05b394a94b9e1ccca13e02b2ed7780ee832fd97",
    "trail-8": "912c45145cc99c2fa726a1e947214d78490489d6333c7d0b89b5d18b13f56d34",
    "trail-9": "7444a9f20ce10af00814c59da9240045c16cd3162b32440a542b9ceb437e2dc5",
}

# The reference pipeline (``oracle.reference_solve``: normalize, solve,
# contract) keeps the tours the solver chose while it solved on the
# normalized graph. Those differ from ``DIGESTS`` on these cases only,
# where optimal tours tie; every answer is the same.
REFERENCE_DIGESTS = {
    **DIGESTS,
    "random-48": "380a14414bc38ce0d5a79eb61c29c9c27d4ffbe0e31d62a0d1fea0e49d873e1e",
    "random-430": "736ce84d758f311ba200c25b85c4193a5b566cb24bc65fff5e95fc5cbf8b2a0d",
    "random-582": "0e8609199d1e23bcf9de36ab9206c0dc4070688c07514e2c3745b8f7f227fc64",
    "random-586": "c56a2f0b05e5513e254209de15921ca545eac773c4cdbd4d87e6ccd449a75437",
    "random-736": "4d15415f72aefd44175bb01e820d0b673e72e9a3fd7367ba28223c35e6dd4bb4",
    "random-818": "8cc31d8d3d2031c884087b98bf903bb6e0bc3e64450f0799006fafae17217572",
    "random-940": "f9990d1a09c1e843498609a0476342afb0104d0386dc189b2b073c41f88cdd57",
    "random-957": "7718a9182443a221536728ca3b90a9afce419297736d64ab31797fb6593b5f28",
    "random-981": "ebda0940d104c5311e6ffb9e94e67295010e1a7aa13f84c7c93a9523e8fb6b96",
    "trail-6": "06d848ae009a1061a71b3dd1fe8824caa9334caf0ed3947fb093a3d2eb65542b",
    "trail-7": "afed539994ce32d4057827a5993c61356609cfd237d45aea45132e6605d8384c",
}


# the 1080 documents of conftest.benchmark_corpus, in its order
CORPUS_SHA256 = "c428093006f22db8e29aaefdd609f571bf0ea834ea3b93aa5608fe553be7c4a9"


def instance(name: str):
    kind, seed = name.rsplit("-", 1)
    seed = int(seed)
    if kind == "random":
        return gen_random_instance(10, 3, 16, 9, seed)
    if kind == "digraph":
        return encode_digraph(*gen_random_digraph(5, 9, 9, seed))
    return gen_random_trail_instance(6, 3, 12, 9, seed)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_document_is_byte_identical(name):
    g = instance(name)
    doc = format_result(g, solve(g))
    assert hashlib.sha256(doc.encode()).hexdigest() == DIGESTS[name], doc


@pytest.mark.parametrize("name", sorted(REFERENCE_DIGESTS))
def test_reference_pipeline_keeps_the_normalized_documents(name):
    g = instance(name)
    doc = format_result(g, reference_solve(g))
    assert hashlib.sha256(doc.encode()).hexdigest() == REFERENCE_DIGESTS[name], doc


def permuted_matcher(seed: int):
    """min_weight_perfect_matching on a seeded relabeling of the aux vertices."""

    def run(inst: MatchingInstance) -> PerfectMatching | None:
        order = list(range(inst.n))
        random.Random(seed).shuffle(order)
        back = {new: old for old, new in enumerate(order)}
        moved = instance_from_edges(
            inst.n, [(order[u], order[v], w) for u, v, w in inst.edges], inst.scale
        )
        found = min_weight_perfect_matching(moved)
        if found is None:
            return None
        pairs = tuple(sorted(tuple(sorted((back[a], back[b]))) for a, b in found.pairs))
        return PerfectMatching(pairs, found.weight)

    return run


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_documents_do_not_depend_on_the_aux_vertex_order(seed, monkeypatch):
    monkeypatch.setattr("ecpostman.solver.min_weight_perfect_matching", permuted_matcher(seed))
    for name in sorted(n for n in DIGESTS if not n.startswith("trail-")):
        g = instance(name)
        doc = format_result(g, solve(g))
        assert hashlib.sha256(doc.encode()).hexdigest() == DIGESTS[name], name


def test_benchmark_corpus_digest(benchmark_corpus):
    digest = hashlib.sha256()
    for g in benchmark_corpus:
        digest.update(format_result(g, solve(g)).encode())
    assert digest.hexdigest() == CORPUS_SHA256
