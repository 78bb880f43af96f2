"""Builds are deterministic: the same records give the same file.

Two builds of one record stream -- one group, and bounded groups -- must
leave byte-identical index files (the paged file and its write-ahead
log) at 1 and 4 partitions, so a change to the writer or the store can
be checked against the file its parent writes, not only against a
logical dump (``test_one_writer.py``).  Then one insert group into each
copy keeps them identical.  Builds in two processes under different
hash seeds write the same bytes too.  Hypothesis-free (runs in the
crash-consistency CI job).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.model import NestedSet

N = NestedSet


def record(i: int) -> tuple[str, NestedSet]:
    """Hot, rare and unique atoms, nested nodes, a node without atoms
    and, every 40th record, a value long enough to spill out of a page."""
    atoms = [f"a{i % 7}", f"b{i % 61}", "hot", f"u{i}"]
    children = [N([f"c{i % 5}"], [N(["deep", f"d{i % 11}"])]), N([])]
    if i % 40 == 0:
        children.append(N([f"w{j}" for j in range(300)]))
    return f"r{i:05d}", N(atoms, children)


RECORDS = [record(i) for i in range(1_500)]


def build(path: str, shards: int, memory_budget: int | None
          ) -> NestedSetIndex:
    if memory_budget is None:
        return NestedSetIndex.build(RECORDS, storage="diskhash", path=path,
                                    shards=shards)
    return NestedSetIndex.build_external(
        RECORDS, storage="diskhash", path=path, shards=shards,
        memory_budget=memory_budget)


def files(path: str) -> tuple[bytes, bytes]:
    with open(path, "rb") as paged, open(path + "-wal", "rb") as wal:
        return paged.read(), wal.read()


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("memory_budget", [None, 2_000])
def test_two_builds_write_the_same_bytes(tmp_path, shards: int,
                                         memory_budget: int | None) -> None:
    paths = [str(tmp_path / f"{copy}.dh") for copy in ("one", "two")]
    for path in paths:
        build(path, shards, memory_budget).close()
    first, second = (files(path) for path in paths)
    assert len(first[0]) > 100 * 4096
    assert first == second
    group = [(f"n{i}", N(["hot", f"a{i % 7}", f"fresh{i}"], [N(["deep"])]))
             for i in range(30)]
    for path in paths:
        index = NestedSetIndex.open("diskhash", path)
        index.insert_batch(group)
        index.close()
    assert files(paths[0]) == files(paths[1])


ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("shards", [1, 4])
def test_builds_do_not_depend_on_the_hash_seed(tmp_path, shards: int) -> None:
    """A node's atoms reach the writer in canonical order, not in the
    iteration order of a set of strings, which the hash seed picks."""
    paths = [str(tmp_path / f"seed{seed}.dh") for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src"), str(ROOT),
                        os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from tests.core.test_build_determinism import build\n"
             "build(sys.argv[1], int(sys.argv[2]), None).close()\n",
             path, str(shards)],
            env=env, check=True, timeout=300)
    assert files(paths[0]) == files(paths[1])
