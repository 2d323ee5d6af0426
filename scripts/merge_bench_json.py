#!/usr/bin/env python3
"""Merge per-bench --json reports into one BENCH_check.json.

Usage: merge_bench_json.py [--check-counts REFERENCE] OUTPUT INPUT [INPUT...]
       merge_bench_json.py --self-test

Each input is either the `{"bench": name, "rows": [...]}` file a bench binary
wrote via --json, or a previously merged `{"benches": {name: rows}}` file
(so a perf-smoke job can re-merge a fresh section into the last artifact).
Inputs are applied left to right.

Rows are deduplicated per bench: an ablation-shaped row (one carrying
"config", "por" and "collapse") replaces any earlier row with the same
(section, config, por, collapse) key, so re-running a bench section keeps
exactly one — the newest — row per configuration instead of appending
duplicates. Other rows only collapse when byte-identical.

The merged file re-checks the reduction soundness tripwire across every
ablation row: a reduced search (por or collapse on) must never store more
states than the unreduced run of the same config, and must agree on the
verdict. Exits nonzero on violation so CI fails even if a bench binary's own
tripwire was bypassed.

With --check-counts, every ablation row of REFERENCE (a merged file, read
before OUTPUT is written, so it may be the same path) must reappear in the
merge with the same deterministic fields: ok, states, transitions,
por_reduced_states, state_bytes and component_bytes. Host times may move.
This is the exactness tripwire for checker speed work: a faster search must
explore exactly the same states.

Stdlib only.
"""

import json
import os
import sys
import tempfile


def row_key(row):
    """Dedup key: configuration identity for ablation rows, content identity
    otherwise (rows like thread-scaling sweeps differ in fields this script
    does not know about, so only exact duplicates may collapse)."""
    if "config" in row and "por" in row and "collapse" in row:
        return ("ablation", row.get("section"), row["config"], row["por"], row["collapse"])
    return ("content", json.dumps(row, sort_keys=True))


def dedupe(rows):
    """Keeps the newest row per key, preserving first-seen order of keys."""
    by_key = {}
    order = []
    for row in rows:
        key = row_key(row)
        if key not in by_key:
            order.append(key)
        by_key[key] = row
    return [by_key[key] for key in order]


def load_reports(path):
    """Yields (bench_name, rows) pairs from a per-bench or merged file."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    if "benches" in report:
        for name, rows in report["benches"].items():
            yield name, rows
    else:
        yield report.get("bench", path), report.get("rows", [])


# Ablation-row fields that depend only on the search, never on the host.
DETERMINISTIC_FIELDS = (
    "ok",
    "states",
    "transitions",
    "por_reduced_states",
    "state_bytes",
    "component_bytes",
)


def ablation_rows_by_key(report):
    """Maps (bench, section, config, por, collapse) to the row, for every
    ablation row of a merged report."""
    rows = {}
    for name, bench_rows in report["benches"].items():
        for row in bench_rows:
            key = row_key(row)
            if key[0] == "ablation":
                rows[(name,) + key[1:]] = row
    return rows


def count_mismatches(reference, merged):
    """Lists every reference ablation row missing from `merged` or differing
    from it in a deterministic field."""
    fresh = ablation_rows_by_key(merged)
    failures = []
    for key, ref_row in sorted(ablation_rows_by_key(reference).items(), key=str):
        name, section, config, por, collapse = key
        where = f"{name} {section} {config} por={por} collapse={collapse}"
        row = fresh.get(key)
        if row is None:
            failures.append(f"{where}: row missing from the merged reports")
            continue
        for field in DETERMINISTIC_FIELDS:
            if row.get(field) != ref_row.get(field):
                failures.append(
                    f"{where}: {field} {row.get(field)} != committed {ref_row.get(field)}"
                )
    return failures


def merge(output_path, input_paths, reference_path=None):
    reference = None
    if reference_path is not None:
        with open(reference_path, "r", encoding="utf-8") as f:
            reference = json.load(f)
    merged = {"benches": {}}
    for path in input_paths:
        for name, rows in load_reports(path):
            merged["benches"].setdefault(name, []).extend(rows)
    for name in merged["benches"]:
        merged["benches"][name] = dedupe(merged["benches"][name])

    ablation_rows = [
        r
        for rows in merged["benches"].values()
        for r in rows
        if "por" in r and "collapse" in r and "config" in r
    ]

    failures = []
    by_config = {}
    for row in ablation_rows:
        by_config.setdefault(row["config"], []).append(row)
    for config, rows in sorted(by_config.items()):
        baseline = [r for r in rows if not r["por"] and not r["collapse"]]
        if not baseline:
            failures.append(f"{config}: no unreduced baseline row")
            continue
        base = baseline[0]
        for row in rows:
            if row is base:
                continue
            if row["states"] > base["states"]:
                failures.append(
                    f"{config}: por={row['por']} collapse={row['collapse']} stored "
                    f"{row['states']} states > unreduced {base['states']}"
                )
            if row["ok"] != base["ok"]:
                failures.append(
                    f"{config}: por={row['por']} collapse={row['collapse']} verdict "
                    f"{row['ok']} != unreduced {base['ok']}"
                )

    merged["soundness"] = {"ok": not failures, "failures": failures}
    with open(output_path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")

    for failure in failures:
        print(f"TRIPWIRE: {failure}", file=sys.stderr)
    mismatches = count_mismatches(reference, merged) if reference is not None else []
    for mismatch in mismatches:
        print(f"COUNTS: {mismatch}", file=sys.stderr)
    print(
        f"merged {len(input_paths)} report(s), {len(ablation_rows)} ablation row(s) "
        f"-> {output_path}"
    )
    return 1 if failures or mismatches else 0


def self_test():
    """Exercises dedupe and re-merge stability without touching the repo."""

    def bench_row(config, por, collapse, states, ok=True, section="fault_ablation", **extra):
        row = {
            "section": section,
            "config": config,
            "por": por,
            "collapse": collapse,
            "states": states,
            "ok": ok,
        }
        row.update(extra)
        return row

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, payload):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(payload, f)
            return path

        out = os.path.join(tmp, "merged.json")

        # Re-running a section must replace, not append: the second report's
        # row (newer states count) wins for the shared key.
        first = write(
            "first.json",
            {
                "bench": "fig9",
                "rows": [
                    bench_row("eep1", False, False, 100),
                    bench_row("eep1", True, True, 50, seconds=1.0),
                ],
            },
        )
        second = write(
            "second.json",
            {"bench": "fig9", "rows": [bench_row("eep1", True, True, 40, seconds=2.0)]},
        )
        assert merge(out, [first, second]) == 0
        with open(out, encoding="utf-8") as f:
            merged = json.load(f)
        rows = merged["benches"]["fig9"]
        assert len(rows) == 2, rows
        newest = [r for r in rows if r["por"] and r["collapse"]]
        assert len(newest) == 1 and newest[0]["states"] == 40, rows

        # Re-merging the merged artifact with the same fresh report is a
        # fixed point: row counts stay stable across repeated smoke runs.
        assert merge(out, [out, second]) == 0
        with open(out, encoding="utf-8") as f:
            remerged = json.load(f)
        assert remerged["benches"]["fig9"] == rows, remerged["benches"]["fig9"]

        # Non-ablation rows with distinct content never collapse (e.g. a
        # thread-scaling sweep), but byte-identical repeats do.
        sweep = write(
            "sweep.json",
            {
                "bench": "scaling",
                "rows": [
                    {"section": "threads", "threads": 1, "seconds": 2.0},
                    {"section": "threads", "threads": 2, "seconds": 1.1},
                    {"section": "threads", "threads": 2, "seconds": 1.1},
                ],
            },
        )
        assert merge(out, [sweep]) == 0
        with open(out, encoding="utf-8") as f:
            merged = json.load(f)
        assert len(merged["benches"]["scaling"]) == 2, merged["benches"]["scaling"]

        # Soundness tripwire still fires through the dedupe path: a reduced
        # row storing more states than the unreduced baseline fails the run.
        bad = write(
            "bad.json",
            {
                "bench": "fig9",
                "rows": [
                    bench_row("eep2", False, False, 100),
                    bench_row("eep2", True, False, 120),
                ],
            },
        )
        assert merge(out, [bad]) == 1

        # --check-counts: a fresh run whose host times moved passes; one whose
        # deterministic fields moved, or that lost a committed row, fails.
        committed = write(
            "committed.json",
            {
                "benches": {
                    "fig9": [
                        bench_row("eep3", False, False, 100, transitions=150, seconds=1.0),
                        bench_row("eep3", True, True, 60, transitions=160, seconds=0.5),
                    ]
                }
            },
        )
        faster = write(
            "faster.json",
            {
                "bench": "fig9",
                "rows": [
                    bench_row("eep3", False, False, 100, transitions=150, seconds=0.4),
                    bench_row("eep3", True, True, 60, transitions=160, seconds=0.2),
                ],
            },
        )
        assert merge(out, [faster], reference_path=committed) == 0
        drifted = write(
            "drifted.json",
            {
                "bench": "fig9",
                "rows": [
                    bench_row("eep3", False, False, 100, transitions=150, seconds=0.4),
                    bench_row("eep3", True, True, 60, transitions=161, seconds=0.2),
                ],
            },
        )
        assert merge(out, [drifted], reference_path=committed) == 1
        partial = write(
            "partial.json",
            {"bench": "fig9", "rows": [bench_row("eep3", False, False, 100, transitions=150)]},
        )
        assert merge(out, [partial], reference_path=committed) == 1
        # The reference may be the output path itself: it is read first.
        with open(committed, encoding="utf-8") as f:
            committed_payload = json.load(f)
        in_place = write("in_place.json", committed_payload)
        assert merge(in_place, [drifted], reference_path=in_place) == 1
        assert merge(in_place, [faster], reference_path=committed) == 0

    print("merge_bench_json self-test passed")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    reference_path = None
    if len(argv) > 2 and argv[1] == "--check-counts":
        reference_path = argv[2]
        argv = argv[:1] + argv[3:]
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return merge(argv[1], argv[2:], reference_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
