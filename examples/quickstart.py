#!/usr/bin/env python3
"""Quickstart: index a collection of nested sets and run containment queries.

This walks the paper's running example (Table 1 / Figures 1-5): a tiny
database about where people live and which driving privileges they hold,
queried with "retrieve all people that live in the USA who have license
type A valid for a motorbike in the UK".

Run:  python examples/quickstart.py
"""

from repro import NestedSet, NestedSetIndex

# -- 1. model some nested data -------------------------------------------------
# A nested set holds atoms and (recursively) other sets; it is unordered
# and duplicate-free, like the sets it models.

sue = NestedSet.parse(
    "{London, UK, {UK, {A, B, C, car, motorbike}}, {UK, {A, motorbike}}}")
tim = NestedSet.parse(
    "{Boston, USA, {USA, VA, {A, B, car}}, {UK, {A, motorbike}}}")

print("Sue:", sue.to_text())
print("Tim:", tim.to_text())

# -- 2. build an index ----------------------------------------------------------
# build() accepts (key, value) records; values may be NestedSet objects,
# text, or plain Python nests.  storage="diskhash" persists to disk.

index = NestedSetIndex.build([("sue", sue), ("tim", tim)])
print(f"\nIndexed {index.n_records} records, "
      f"{index.n_nodes} internal nodes")

# -- 3. containment queries ------------------------------------------------------
# query(q) returns the keys of all records s with q ⊆ s (homomorphic
# containment, Equation 2 of the paper).

query = "{USA, {UK, {A, motorbike}}}"
print(f"\nWho lives in the USA with a UK class-A motorbike license?")
print("  ->", index.query(query))                      # ['tim']

# Both of the paper's algorithms (and the naive baseline) are available
# and always agree:
for algorithm in ("topdown", "bottomup", "naive"):
    assert index.query(query, algorithm=algorithm) == ["tim"]

# -- 4. beyond plain containment ---------------------------------------------------
print("\nAnyone holding a UK motorbike license at any nesting level?")
print("  ->", index.query("{UK, {A, motorbike}}", mode="anywhere"))

print("\nWhose record is a subset of Sue's? (superset join)")
print("  ->", index.query(sue, join="superset"))

print("\nHomeomorphic containment (nesting levels may be skipped):")
print("  ->", index.query("{USA, {A, motorbike}}", semantics="homeo"))

# -- 5. statistics ------------------------------------------------------------------
stats = index.stats()
print(f"\nPosting-list requests so far: "
      f"{stats['index']['postings_requests']}")
