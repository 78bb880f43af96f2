#!/usr/bin/env python3
"""A live registry: incremental updates, explain traces, similarity search.

The paper builds its indexes offline; this example shows the library
features layered on top for online use -- record inserts and deletes with
immediate query visibility, compaction, EXPLAIN-style evaluation traces,
and top-k similar-record search.

Run:  python examples/live_registry.py
"""

from repro import NestedSet, NestedSetIndex
from repro.core.similarity import top_k_similar
from repro.core.observe import explain
from repro.data.dblp import generate_articles


def main() -> None:
    print("Bootstrapping with 3,000 bibliography records...")
    records = list(generate_articles(3000, seed=5))
    index = NestedSetIndex.build(records, cache="frequency")

    # -- live inserts ----------------------------------------------------------
    fresh = NestedSet.parse(
        "{#article, {#author, \"author=Ada Lovelace\"}, "
        "{#title, \"title=notes on the analytical engine\"}, "
        "{#year, year=1843}, {#journal, \"journal=Sketch of Babbage\"}}")
    index.insert("lovelace1843", fresh)
    print("\nInserted a record; immediately queryable:")
    query = '{{#author, "author=Ada Lovelace"}}'
    print(f"  {query} -> {index.query(query)}")

    # -- deletes are tombstones ---------------------------------------------------
    victim = index.query("{#article}")[0]
    index.delete(victim)
    print(f"\nDeleted {victim}; it no longer matches anything:")
    print(f"  live records: {index.inverted_file.n_live_records} "
          f"of {index.n_records} stored")
    index.compact()
    print(f"  after compact(): {index.n_records} records, "
          f"tombstones gone")

    # -- explain and similarity read one pinned version -------------------------
    with index.snapshot() as snap:
        ifile = snap.views[0].inverted_file
        print("\nEXPLAIN for a three-level query:")
        trace = explain(
            '{#article, {#author, "author=Author 0"}, {#year, year=2011}}',
            ifile)
        print(trace.render())

        print("\nTop-5 records most similar to the Lovelace article:")
        for key, score in top_k_similar(ifile, fresh, k=5):
            print(f"  {score:.4f}  {key}")

    # duplicates score 1.0:
    index.insert("lovelace_dup", fresh)
    with index.snapshot() as snap:
        top_key, top_score = top_k_similar(snap.views[0].inverted_file,
                                           fresh, k=1)[0]
    print(f"\nAfter inserting a duplicate, the top hit is "
          f"{top_key} at {top_score:.2f}")


if __name__ == "__main__":
    main()
