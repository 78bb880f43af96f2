#!/usr/bin/env python3
"""Patch EXPERIMENTS.md placeholders from the recorded bench_results run.

One-shot helper used when refreshing EXPERIMENTS.md after a full
``pytest benchmarks/ --benchmark-only`` run: replaces the
``BL1_NUMBERS`` / ``M1_NUMBERS`` markers with tables built from the
saved rows.
"""

from __future__ import annotations

import json


def rows(name: str) -> list[dict]:
    with open(f"bench_results/{name}.json") as handle:
        return json.load(handle)


def bl1_line() -> str:
    values = {r["x"]: r["millis"] for r in rows("bulkload")}
    return (f"in-memory {values['in-memory']:.0f} ms, "
            f"external (10k-posting buffer) {values['external-10k']:.0f} ms, "
            f"external (1k buffer) {values['external-1k']:.0f} ms — "
            f"a {values['external-1k'] / values['in-memory']:.1f}x ceiling "
            f"at the tightest budget.")


def m1_table() -> str:
    values = {r["x"]: r["millis"] for r in rows("models")}
    order = ["set-index", "bag-filter-verify", "bag-naive",
             "seq-filter-verify", "seq-naive"]
    lines = ["", "| mode | ms |", "|---|---|"]
    for mode in order:
        lines.append(f"| {mode} | {values[mode]:.1f} |")
    return "\n".join(lines) + "\n"


def main() -> int:
    with open("EXPERIMENTS.md") as handle:
        text = handle.read()
    text = text.replace("BL1_NUMBERS", bl1_line())
    text = text.replace("M1_NUMBERS", m1_table())
    with open("EXPERIMENTS.md", "w") as handle:
        handle.write(text)
    print("EXPERIMENTS.md placeholders patched")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
