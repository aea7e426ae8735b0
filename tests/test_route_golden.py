"""Bit-identity pins for the array routing pipeline.

SHA-256 digests of fixed-seed outputs of the three array stages a route runs
through: the Euler-split colouring kernel, the batched fair-distribution
solver (both array backends) and the compiled plan batch.  A rewrite of any
of these stages must leave every digest unchanged; a digest mismatch means
the output changed, not merely its speed.

The shapes cover the pad-free square and rectangular cases at B ∈ {1, 3},
the padded 12×64 case (whose B = 3 stack is coloured in more than one kernel
tile), the odd-degree peel (3×3, 5×2, 6×4), the ``d = 1`` plan, and one
kernel stack large enough for the int64 pointer-doubling tier.

Regenerate the tables (only for an intended output change) with::

    PYTHONPATH=src python tests/test_route_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graph.array_coloring import euler_array_colors_stack
from repro.pops.engine import CompiledScheduleBatch
from repro.pops.topology import POPSNetwork
from repro.routing.fair_distribution import FairDistributionSolver
from repro.routing.list_system import destination_group_lists_stack
from repro.routing.permutation_router import PermutationRouter

#: Kernel stacks as (n_vertices, degree, batch).
KERNEL_STACKS = [
    (32, 32, 1), (32, 32, 3),
    (16, 64, 1), (16, 64, 3),
    (64, 16, 1), (64, 16, 3),
    (116, 64, 3),
    (3, 3, 3), (2, 5, 3), (4, 6, 3), (8, 1, 3),
    (32, 32, 80),
]

#: Routed stacks as (d, g, batch).
ROUTE_STACKS = [
    (32, 32, 1), (32, 32, 3),
    (64, 16, 1), (64, 16, 3),
    (16, 64, 1), (16, 64, 3),
    (12, 64, 3),
    (3, 3, 3), (5, 2, 3), (6, 4, 3), (1, 8, 3),
]

ARRAY_BACKENDS = ["euler-array", "konig-array"]

BATCH_FIELDS = [
    field.name
    for field in dataclasses.fields(CompiledScheduleBatch)
    if field.name not in ("network", "n_batch", "n_slots")
]


def _digest(*arrays: np.ndarray) -> str:
    """SHA-256 over each array's dtype, shape and C-order bytes."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def kernel_stack(n_vertices: int, degree: int, batch: int):
    """Canonical instance stacks of ``batch`` random regular multigraphs,
    each the union of ``degree`` random perfect matchings."""
    rng = np.random.default_rng(1000 * n_vertices + degree)
    left = np.repeat(np.arange(n_vertices, dtype=np.int64), degree)
    right = np.argsort(rng.random((batch, degree, n_vertices)), axis=2)
    right = right.transpose(0, 2, 1).reshape(batch, -1)
    key = np.sort(left[None, :] * n_vertices + right, axis=1)
    return key // n_vertices, key % n_vertices


def image_stack(d: int, g: int, batch: int) -> np.ndarray:
    rng = np.random.default_rng(1000 * d + g)
    return np.argsort(rng.random((batch, d * g)), axis=1).astype(np.int64)


def kernel_digest(n_vertices: int, degree: int, batch: int) -> str:
    left, right = kernel_stack(n_vertices, degree, batch)
    return _digest(
        euler_array_colors_stack(left, right, n_vertices, n_vertices, degree)
    )


def solve_digest(d: int, g: int, batch: int, backend: str) -> str:
    lists = destination_group_lists_stack(image_stack(d, g, batch), d, g)
    solver = FairDistributionSolver(backend=backend)
    return _digest(solver.solve_array_batch(lists, max(d, g)))


def route_digest(d: int, g: int, batch: int, backend: str) -> str:
    router = PermutationRouter(POPSNetwork(d, g), backend=backend)
    compiled = router.route_compiled_batch(image_stack(d, g, batch))
    assert compiled.n_batch == batch
    return _digest(*(getattr(compiled, name) for name in BATCH_FIELDS))


def _kernel_id(stack) -> str:
    return "nv{}-deg{}-B{}".format(*stack)


def _route_id(stack) -> str:
    return "{}x{}-B{}".format(*stack)


KERNEL_DIGESTS: dict[str, str] = {
    "nv32-deg32-B1":
        "fcd98ff82727fd8557ba89df05f326feac968fe0d7672d8c564f846f2fe39f32",
    "nv32-deg32-B3":
        "97cf897c49586e8bb4ebd38b57f175a741da80bd5533e16d2ac42844e83fa9db",
    "nv16-deg64-B1":
        "2cdd9ae7368bbbd9e5520427a75d3d53a1e80d73dbf2776713dd62fc24cd7fa4",
    "nv16-deg64-B3":
        "1037d809f1c12b4caf1eb8aae0fd161f007e3f9f26833f7c86f286212d586e8d",
    "nv64-deg16-B1":
        "4e5529fa113f286187eadb2507b42d6c0ecd1366cb820c05f5a3482b4da7b269",
    "nv64-deg16-B3":
        "dbb42a24f4debad14890bad67700e42a5866fb1b2b5412d3b4c770371e0fd6f8",
    "nv116-deg64-B3":
        "2a335d6b2e6571e92a1548bb167a795cb1002951b90476664be157f503b45cfc",
    "nv3-deg3-B3":
        "3dc5e89a189a8fadff10bf88b99b825154641a7ffd8b5c29450252c6769b980b",
    "nv2-deg5-B3":
        "4d6704839a5817e6351b8161900284f487c8f4cbc3d562380117221c5af40565",
    "nv4-deg6-B3":
        "1a7efab6b9c4dc153d63767b966b88feb3c7cc47d87b4704b44bb2b5b684bb12",
    "nv8-deg1-B3":
        "f33fa33ca45ee29ee126910a3469fa1bb824aac2c5b9f165d5c157b5ec40173c",
    "nv32-deg32-B80":
        "a2e3dd043e715345346bc29d0a52af51001bb228539c6e71b26dacf22c093ea1",
}

SOLVE_DIGESTS: dict[str, str] = {
    "32x32-B1-euler-array":
        "a2b2a501a8696d787e625bce06b91e63981594a62cc2c136a61a5e3c7a984e0c",
    "32x32-B1-konig-array":
        "17e412f0043ae0debb6b4246ba98cb89417cc972c7c21b4a63158143ced0ff76",
    "32x32-B3-euler-array":
        "9b238ad3866987f6e0ca18f21ced937712a6a97784c6b74d713ee6c4f137a32b",
    "32x32-B3-konig-array":
        "c8b504817ea965b0295c99ffda26f96d69bd7d5fb3d520678528996619cd815b",
    "64x16-B1-euler-array":
        "042dd2e63b3b32dcaf801f9a51971d2be04b2ca86d9abebb666c5a50e69dc5fc",
    "64x16-B1-konig-array":
        "a62127e30faaf626239f5a52814d4e8eee07dffbe094270704eee9f6a495206e",
    "64x16-B3-euler-array":
        "95f3c155684feed7735ff78db1a5e1e963001b53b598b67f36d5848a6c32746e",
    "64x16-B3-konig-array":
        "58bec7d19c638ff006deaef04ff2ffebfe1d577fba7baf2d3718daff21642335",
    "16x64-B1-euler-array":
        "880daa4bcb647657c25a5230ad85a884c413911149414ee991aec9b090d82b9e",
    "16x64-B1-konig-array":
        "254324f1e70b2e47083e1949575981b9a19ad291418e21c30ed59f760c6d31bd",
    "16x64-B3-euler-array":
        "d3c3a87be95ea8d68142849dc0233a3ad0e3a158f7bff5368efaddcca021a986",
    "16x64-B3-konig-array":
        "4594f91500fdd075a4b8d30468394e816208efd774cea6b5f5cde3c1134ea765",
    "12x64-B3-euler-array":
        "2e6a03c84fbe3050c24758c56c8d8fc5857105975acfc582a192a19f46abd290",
    "12x64-B3-konig-array":
        "7446322a3e254706679130aa670e15b4e231f12045279c69efda9e1f71c0894c",
    "3x3-B3-euler-array":
        "45ef124b7152c104bbf3371161ebc5ecf76e0a502abffa5b716d7f5fcdd0e734",
    "3x3-B3-konig-array":
        "45ef124b7152c104bbf3371161ebc5ecf76e0a502abffa5b716d7f5fcdd0e734",
    "5x2-B3-euler-array":
        "ec6210ea903a6b6c924b9b2be5bbd85d186ac2625d9e43a7c43478562059b26f",
    "5x2-B3-konig-array":
        "62ec88ae08240ff903148e4a36807c078d75a6bbcbd31ba0f6556ce1081c9958",
    "6x4-B3-euler-array":
        "e6b4a6dbe27b65022d4da41467ed2b7d1b06b432591039d9442981c7c14726ec",
    "6x4-B3-konig-array":
        "0c3b231121d0324283c8286661453d288f5579564ef41d3099bbe85247bed3f0",
    "1x8-B3-euler-array":
        "9e425aa231b293a13b996bfceae82e2b7353dd9d64f75a24c5d62dd6ab07ef3a",
    "1x8-B3-konig-array":
        "9e425aa231b293a13b996bfceae82e2b7353dd9d64f75a24c5d62dd6ab07ef3a",
}

ROUTE_DIGESTS: dict[str, str] = {
    "32x32-B1-euler-array":
        "0ab808c3bcd3d08fab10803c233fe9ed56f8454c2014a54e074768eed3903f1b",
    "32x32-B1-konig-array":
        "1a6572eb2209f3cc169bc9950fb0d97983a38301db57c9d7939bb89c671ada25",
    "32x32-B3-euler-array":
        "5019d9b8acec5ebd63920f58c1483166de29f6fc883340d5b25379f6b3261a90",
    "32x32-B3-konig-array":
        "eb85f441655bf6d2079bbf7fa3e63e0cfcb047109d8e80a1d97a22e6dfa027d1",
    "64x16-B1-euler-array":
        "25067ab1ad72f9ed51204801ca738222f1fbdcb45eec135aff06fbfb1d03d36f",
    "64x16-B1-konig-array":
        "31d33265f1e795710feb3f1b471ce7e64c89a9fcaaa915334a949c38621cd664",
    "64x16-B3-euler-array":
        "e7370b0960f8d0e987a7c836d101cde5ca5342776135e4f99eed71317fc39b0a",
    "64x16-B3-konig-array":
        "96c76ee0d00cd304770c26fa9bd1d64df9efffd2d6ac057e099ccceb04caf702",
    "16x64-B1-euler-array":
        "5fec90eb2c1f749d769ee9b3f63c43f19b2a6ed1311e30e5a6992260e234e2e2",
    "16x64-B1-konig-array":
        "a3735745c61caea6856cac6ef5544813129900cc51f720e5155eebddf9b058b4",
    "16x64-B3-euler-array":
        "8d047ed8a9bccab39f809b968ef35be8fe14f945925233050b3a5a1d637f951c",
    "16x64-B3-konig-array":
        "bc9284e98587c32fead4bb7c6ffa9d8323fcf7de9484d89441a12434d51c0bbd",
    "12x64-B3-euler-array":
        "73638c5651341786cbe3833130deeb6318eb630dd972c4e9615f86324eb59510",
    "12x64-B3-konig-array":
        "bdce90603a57120106d3b4c7248e7e23efa537a7464aecbbff705641eeb4a048",
    "3x3-B3-euler-array":
        "ca2cd4665d152689f096a9b1d1cba10b83a60954616a5543e30df118951ae132",
    "3x3-B3-konig-array":
        "ca2cd4665d152689f096a9b1d1cba10b83a60954616a5543e30df118951ae132",
    "5x2-B3-euler-array":
        "44ddfca2077f73005ac963fc146af14bd7fd6b5f370d8dd6ed7c35779e204dbf",
    "5x2-B3-konig-array":
        "60e6e04d188e4fe3e76ae3c3075dcf3f282a783b705cd37ac05cd8b818e317ae",
    "6x4-B3-euler-array":
        "03014c23bd7e96412b9b948ebf31b39dade44eece550afec1b16460e3a7f587f",
    "6x4-B3-konig-array":
        "9c7821b9fa56355a91b01625c9f0f2a8c9babab76ccc378985613b531023653a",
    "1x8-B3-euler-array":
        "d9cb8e021b7a55df1ea6d1645e7f3a4d64cc340383e3db49ad4e6df1fbd8945e",
    "1x8-B3-konig-array":
        "d9cb8e021b7a55df1ea6d1645e7f3a4d64cc340383e3db49ad4e6df1fbd8945e",
}


@pytest.mark.parametrize("stack", KERNEL_STACKS, ids=_kernel_id)
def test_euler_kernel_colours_pinned(stack):
    assert kernel_digest(*stack) == KERNEL_DIGESTS[_kernel_id(stack)]


@pytest.mark.parametrize("backend", ARRAY_BACKENDS)
@pytest.mark.parametrize("stack", ROUTE_STACKS, ids=_route_id)
def test_fair_distribution_assignments_pinned(stack, backend):
    key = f"{_route_id(stack)}-{backend}"
    assert solve_digest(*stack, backend) == SOLVE_DIGESTS[key]


@pytest.mark.parametrize("backend", ARRAY_BACKENDS)
@pytest.mark.parametrize("stack", ROUTE_STACKS, ids=_route_id)
def test_compiled_plan_batch_pinned(stack, backend):
    key = f"{_route_id(stack)}-{backend}"
    assert route_digest(*stack, backend) == ROUTE_DIGESTS[key]


def _print_tables() -> None:
    tables = {
        "KERNEL_DIGESTS": {
            _kernel_id(stack): kernel_digest(*stack) for stack in KERNEL_STACKS
        },
        "SOLVE_DIGESTS": {
            f"{_route_id(stack)}-{backend}": solve_digest(*stack, backend)
            for stack in ROUTE_STACKS
            for backend in ARRAY_BACKENDS
        },
        "ROUTE_DIGESTS": {
            f"{_route_id(stack)}-{backend}": route_digest(*stack, backend)
            for stack in ROUTE_STACKS
            for backend in ARRAY_BACKENDS
        },
    }
    for name, table in tables.items():
        print(f"{name}: dict[str, str] = {{")
        for key, value in table.items():
            print(f'    "{key}":\n        "{value}",')
        print("}\n")


if __name__ == "__main__":
    _print_tables()
