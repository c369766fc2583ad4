"""Golden digests: fixed seeds must keep giving byte-identical output.

Each entry hashes (sha256) one artifact: a random build script, the
build script of a many-fold corpus instance, the facet file of a
seeded corpus instance, or the decomposition tree JSON of a folded
instance.  A refactor of the constructors, the fold
searches or the engine must leave every digest unchanged; a deliberate
change of output has to update the table and say why.  Running this
file with ``PYTHONPATH=src python3 tests/test_golden.py`` prints the
table for the current code.
"""

import hashlib
import json

import pytest

from psf.build import stacked_sphere
from psf.buildscript import dump_script, random_script
from psf.corpus import (
    edge_folded_instance,
    handle_instance,
    linear_chain,
    suspension_instance,
    vertex_folded_instance,
)
from psf.decompose import MODE_EDGE, MODE_ONE, MODE_SUSPENSION, decompose
from psf.fileio import format_complex

# seeds of each random_script family: vertex arm, edge arm, handle chain
# (seed 4 finds no handle), plain sums and subdivisions
SCRIPT_SEEDS = (6, 9, 1, 3, 2, 4, 5, 0, 7)

FOLDED = {
    "vertex_folded_instance(11)": (lambda: vertex_folded_instance(11), MODE_ONE),
    "vertex_folded_instance(12, folds=2, sums=1, subdivisions=1)": (
        lambda: vertex_folded_instance(12, folds=2, sums=1, subdivisions=1), MODE_ONE),
    "edge_folded_instance(13)": (lambda: edge_folded_instance(13), MODE_EDGE),
    "edge_folded_instance(14, vertex_folds=1, sums=1)": (
        lambda: edge_folded_instance(14, vertex_folds=1, sums=1), MODE_EDGE),
    "vertex_folded_instance(23, folds=4)": (
        lambda: vertex_folded_instance(23, folds=4), MODE_ONE),
    "edge_folded_instance(24, edge_folds=3, vertex_folds=1)": (
        lambda: edge_folded_instance(24, edge_folds=3, vertex_folds=1), MODE_EDGE),
    "suspension_instance(15)": (lambda: suspension_instance(15), MODE_SUSPENSION),
    "suspension_instance(16, extra_vertex_folds=1, subdivisions=1)": (
        lambda: suspension_instance(16, extra_vertex_folds=1, subdivisions=1),
        MODE_SUSPENSION),
}

# many folds at one face: their draws walk stars of hundreds of facets
MANY_FOLDS = {
    "script of vertex_folded_instance(3, folds=12)": lambda: vertex_folded_instance(3, folds=12),
    "script of edge_folded_instance(3, edge_folds=8)": (
        lambda: edge_folded_instance(3, edge_folds=8)),
}

PLAIN = {
    "handle_instance(17)": lambda: handle_instance(17).complex,
    "linear_chain(4, 12, 18, fixed=(0,))": lambda: linear_chain(4, 12, 18, fixed=(0,)),
    "linear_chain(3, 6, 19, fixed=(0, 1))": lambda: linear_chain(3, 6, 19, fixed=(0, 1)),
    "stacked_sphere(4, 9, 20)": lambda: stacked_sphere(4, 9, 20),
    "stacked_sphere(3, 5, 21)": lambda: stacked_sphere(3, 5, 21),
}

GOLDEN = {
    'random_script(6, max_ops=12)': '97799a702e546b82e8e3e755371c3bb3f26aef0d1089844667b83fd0da0a3594',
    'random_script(9, max_ops=12)': '061ae77ab6c889d319aa4b76803332d9e433eaa869ba8ddb8dde84574c937ec1',
    'random_script(1, max_ops=12)': 'be93bd3cf646da10a0a10e369d3fb7f061207b8d5c59f3d454b294c9f8311618',
    'random_script(3, max_ops=12)': '6d9f6a68864d8ad12e1322fdba2a0c61df3fdd4f8eb359876f0b70ccd4d80f97',
    'random_script(2, max_ops=12)': '4d97d8eaaf57ec34517bf51ded84ea5a5990f877a1dab6a675146ae7ba72095e',
    'random_script(4, max_ops=12)': '05423752b49fe391bfaf66cb204864bfa91c3344171a85a76ed1ff63278c1ce2',
    'random_script(5, max_ops=12)': 'cc77c0242c12214c3db30abd516e5f23efedbeda232eefc2438854bc0fd86bba',
    'random_script(0, max_ops=12)': 'bea0caa1fa61c827c458393c2a2806c0c8b2ae8d1cbb52895e38d8af2aa2d65a',
    'random_script(7, max_ops=12)': 'c4ad0384e333f18c387ec8df8ed03498325a7a5eefce3a7123b37f5ea62b15eb',
    'vertex_folded_instance(11)': '95f4357255bf52ee1b5d3efc0d07db0e0d4a537bc15b7cc389ea5adc39a6b847',
    'tree of vertex_folded_instance(11)': 'ada4ca7b048a2927b0476ae279d7a8bd42a7880d696d2c0bb28163f68451d135',
    'vertex_folded_instance(12, folds=2, sums=1, subdivisions=1)': '5788f6866616afc3adf7a2c895f0c6a2bdff54fe5ca22d109f32ed89b77448d4',
    'tree of vertex_folded_instance(12, folds=2, sums=1, subdivisions=1)': 'e8ca99a3be24e8c400363550f61a98c4005f22d73ab5d3312d5d46b7bcbe012e',
    'edge_folded_instance(13)': '50d5fae271c6909dce24f693128a801fa766974ba9735f19b2016a5ba3852973',
    'tree of edge_folded_instance(13)': '6e5771f2bee0d714edd24cd105586af8615bba76bdf8621d6f6b5cc48e62cbbd',
    'edge_folded_instance(14, vertex_folds=1, sums=1)': '51613b79679fbafb1567ca514834037479f5b6ea0f9d19734e1b29576bbe08c9',
    'tree of edge_folded_instance(14, vertex_folds=1, sums=1)': '0da2bd36c9bbdd94205962c5eef608a39474621306116a9f3e3130d449610570',
    'vertex_folded_instance(23, folds=4)': 'ef19b03bc53957297f0ad596f92e5ea7107a4edb5e19ba1ee4efdd5b60c9a988',
    'tree of vertex_folded_instance(23, folds=4)': 'ae7b7b9b9bf3c544ed47d0fff2d7044b1ce58b1fee128d834ffc8703d48a4599',
    'edge_folded_instance(24, edge_folds=3, vertex_folds=1)': '100558a9ad72e1826e840c370aacaef3bc868800b655ff98fcff30c61ea53a9d',
    'tree of edge_folded_instance(24, edge_folds=3, vertex_folds=1)': '8fe8f8572aa2e526cd65a1e39996a0cd1864ba018f8a987fd537f75ef0c54d47',
    'suspension_instance(15)': '34edc7d0c4f11c1f0d5b4c9c349c631c63e6ef7861db61a47de1df721e2ca90c',
    'tree of suspension_instance(15)': '7a4720ffea282397c7368fdd07c81533544fb193d7d2b5307685fb08ba369edc',
    'suspension_instance(16, extra_vertex_folds=1, subdivisions=1)': 'e205f6a0d62e466a336dfdd5c765a4707f0e5ad9afa82415191a20e932d8f422',
    'tree of suspension_instance(16, extra_vertex_folds=1, subdivisions=1)': '42dfe8920d757ef425103d0f11406eb308bc51475750ca3e032414d7f16eb133',
    'script of vertex_folded_instance(3, folds=12)': '9d4b1a54db9a96d7034219a85832fbb61f832eb02f88139963e3ef647ecd7f5a',
    'script of edge_folded_instance(3, edge_folds=8)': '8f90c58586959e7dd7a411d74aeb670a303e217260628e43278e5cee5ff2d88c',
    'handle_instance(17)': '9ef7c0524cfc4903d513d6a41fd58a7be31afce9a5024a3a58ccbb3f9919c460',
    'linear_chain(4, 12, 18, fixed=(0,))': '9910e3b91931fbc6f6b491a3ea5bd7bc454f972388cc8c8b67b7ce3d9f860600',
    'linear_chain(3, 6, 19, fixed=(0, 1))': 'bd234aa26c266c50a4c360d6eb403bde6bd0001e126714ff719232a3b20a3a35',
    'stacked_sphere(4, 9, 20)': '8171452cb06953930dd676c7f92d42d1c9357f77f480a5794547ce883e6b0218',
    'stacked_sphere(3, 5, 21)': '0e0e7fb0e4e8b4b6517c67ec7d2a460294b63a83ae60fdcacd461a60a70e693f',
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_digests() -> dict[str, str]:
    out = {}
    for s in SCRIPT_SEEDS:
        out[f"random_script({s}, max_ops=12)"] = _sha(dump_script(random_script(s, max_ops=12)))
    for name, (make, mode) in FOLDED.items():
        record = make()
        out[name] = _sha(format_complex(record.complex))
        tree = decompose(record.complex, record.tracked, mode=mode)
        out[f"tree of {name}"] = _sha(json.dumps(tree.to_dict(), indent=2, sort_keys=True))
    for name, make in MANY_FOLDS.items():
        out[name] = _sha(dump_script(make().script))
    for name, make in PLAIN.items():
        out[name] = _sha(format_complex(make()))
    return out


@pytest.fixture(scope="module")
def digests():
    return golden_digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


def test_golden_table_is_complete(digests):
    assert sorted(digests) == sorted(GOLDEN)


if __name__ == "__main__":
    for key, value in golden_digests().items():
        print(f"    {key!r}: {value!r},")
