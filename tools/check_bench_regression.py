#!/usr/bin/env python3
"""Diff the deterministic block of fresh BENCH_*.json reports against a
previous run's artifacts.

Usage:
    check_bench_regression.py BASELINE_DIR FRESH_DIR [NAME...]
    check_bench_regression.py [--tolerance REL] BASELINE_DIR FRESH_DIR
    check_bench_regression.py --self-test

BASELINE_DIR holds the previous run's BENCH_*.json files (any nesting
— artifact downloads place each file in its own subdirectory); the
newest match wins when a name appears more than once. FRESH_DIR holds
this run's files. NAMEs limit the comparison (e.g. "BENCH_tenant");
default is every BENCH_*.json present in FRESH_DIR.

Every report (bench/report.hh) carries a "schema" number and keeps
what two same-seed runs reproduce in its "deterministic" block; host
wall-clock readings live in "timing" and host facts in "host", and
neither is compared. So any difference in "deterministic" is a real
behaviour change, not noise. Two reports whose schemas differ — or a
baseline written before reports had one — are skipped: their layouts
differ, so a difference would say nothing about behaviour.

--tolerance REL compares numeric leaves with the given relative
tolerance instead of exact equality (default 0 = exact: the
deterministic blocks are gated byte-identical by the benches, so
slack is only for ad-hoc comparisons).

--self-test runs the built-in unittest suite (registered with ctest
as test_check_bench_regression).

Exit status: 0 = no drift (or nothing to compare), 1 = drift,
2 = usage error. A missing or older-schema baseline for a fresh file
is a skip, not a failure, so the first run after adding a bench (or
changing the schema) passes.
"""

import json
import pathlib
import sys


def numbers_match(old, new, tolerance):
    """Relative-tolerance comparison for numeric leaves."""
    if tolerance <= 0:
        return old == new
    scale = max(abs(old), abs(new))
    return abs(old - new) <= tolerance * max(scale, 1.0)


def is_number(value):
    # bool is an int subclass; True/False must compare exactly.
    return isinstance(value, (int, float)) and not isinstance(
        value, bool
    )


def diff(path, old, new, out, tolerance=0.0):
    """Collect human-readable differences between two JSON trees."""
    if is_number(old) and is_number(new):
        if not numbers_match(old, new, tolerance):
            out.append("  %s: %r -> %r" % (path, old, new))
        return
    if type(old) is not type(new):
        out.append("  %s: type %s -> %s" % (
            path, type(old).__name__, type(new).__name__))
        return
    if isinstance(old, dict):
        for key in sorted(set(old) | set(new)):
            sub = "%s.%s" % (path, key) if path else key
            if key not in old:
                out.append("  %s: added" % sub)
            elif key not in new:
                out.append("  %s: removed" % sub)
            else:
                diff(sub, old[key], new[key], out, tolerance)
    elif isinstance(old, list):
        if len(old) != len(new):
            out.append("  %s: length %d -> %d" % (
                path, len(old), len(new)))
        for i, (a, b) in enumerate(zip(old, new)):
            diff("%s[%d]" % (path, i), a, b, out, tolerance)
    elif old != new:
        out.append("  %s: %r -> %r" % (path, old, new))


def find_baseline(baseline_dir, name):
    """Newest file called `name` anywhere under the baseline dir."""
    matches = sorted(
        baseline_dir.rglob(name),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    return matches[0] if matches else None


def compare_dirs(baseline_dir, fresh_dir, names, tolerance=0.0):
    """Compare the named reports; returns True when any drifted."""
    drift = False
    for name in names:
        fresh_path = fresh_dir / name
        if not fresh_path.is_file():
            print("%-20s SKIP (not produced by this run)" % name)
            continue
        base_path = find_baseline(baseline_dir, name)
        if base_path is None:
            print("%-20s SKIP (no baseline artifact)" % name)
            continue
        try:
            old = json.loads(base_path.read_text())
            new = json.loads(fresh_path.read_text())
        except (OSError, ValueError) as err:
            print("%-20s SKIP (unreadable: %s)" % (name, err))
            continue
        schema = new.get("schema")
        if schema is None or old.get("schema") != schema:
            print("%-20s SKIP (baseline schema %s, fresh schema %s)"
                  % (name, old.get("schema"), schema))
            continue
        lines = []
        diff("deterministic", old.get("deterministic"),
             new.get("deterministic"), lines, tolerance)
        if lines:
            drift = True
            print("%-20s DRIFT (%d deterministic fields differ):"
                  % (name, len(lines)))
            for line in lines[:50]:
                print(line)
            if len(lines) > 50:
                print("  ... %d more" % (len(lines) - 50))
        else:
            print("%-20s OK" % name)
    return drift


def self_test():
    """The built-in unittest suite (ctest: test_check_bench_regression)."""
    import tempfile
    import unittest

    class DiffTest(unittest.TestCase):
        def lines(self, old, new, tolerance=0.0):
            out = []
            diff("", old, new, out, tolerance)
            return out

        def test_identical_trees_are_clean(self):
            tree = {"a": [1, 2, {"b": "x"}], "c": 1.5}
            self.assertEqual(self.lines(tree, dict(tree)), [])

        def test_added_and_removed_keys_reported(self):
            out = self.lines({"a": 1, "gone": 2},
                             {"a": 1, "fresh": 3})
            self.assertIn("  fresh: added", out)
            self.assertIn("  gone: removed", out)

        def test_changed_value_reported_with_path(self):
            out = self.lines({"outer": {"inner": [1, 2]}},
                             {"outer": {"inner": [1, 3]}})
            self.assertEqual(out, ["  outer.inner[1]: 2 -> 3"])

        def test_list_length_change_reported(self):
            out = self.lines({"v": [1, 2]}, {"v": [1]})
            self.assertIn("  v: length 2 -> 1", out)

        def test_type_change_reported(self):
            out = self.lines({"v": "1"}, {"v": 1})
            self.assertEqual(len(out), 1)
            self.assertIn("type", out[0])

        def test_exact_by_default(self):
            self.assertEqual(
                self.lines({"v": 1.0}, {"v": 1.0 + 1e-12}),
                ["  v: 1.0 -> 1.000000000001"])

        def test_tolerance_accepts_small_drift(self):
            self.assertEqual(
                self.lines({"v": 100.0}, {"v": 100.5},
                           tolerance=1e-2), [])

        def test_tolerance_still_catches_large_drift(self):
            out = self.lines({"v": 100.0}, {"v": 120.0},
                             tolerance=1e-2)
            self.assertEqual(len(out), 1)

        def test_bools_always_exact(self):
            out = self.lines({"ok": True}, {"ok": False},
                             tolerance=1.0)
            self.assertEqual(len(out), 1)

    class CompareDirsTest(unittest.TestCase):
        def report(self, deterministic, timing=None, schema=1):
            return json.dumps({"schema": schema, "bench": "x",
                               "config": {}, "host": {},
                               "deterministic": deterministic,
                               "timing": timing or {}})

        def run_compare(self, base, fresh, name="BENCH_x.json"):
            with tempfile.TemporaryDirectory() as tmp:
                root = pathlib.Path(tmp)
                (root / "base" / "sub").mkdir(parents=True)
                (root / "fresh").mkdir()
                (root / "base" / "sub" / "BENCH_x.json").write_text(base)
                (root / "fresh" / name).write_text(fresh)
                return compare_dirs(root / "base", root / "fresh",
                                    [name])

        def test_timing_is_never_compared(self):
            self.assertFalse(self.run_compare(
                self.report({"caps": 5}, {"wall_sec": 1.0}),
                self.report({"caps": 5}, {"wall_sec": 9.0})))

        def test_deterministic_change_drifts(self):
            self.assertTrue(self.run_compare(
                self.report({"caps": 5, "scan_rate": 1.5}),
                self.report({"caps": 5, "scan_rate": 1.25})))

        def test_schema_mismatch_skips(self):
            # A report written before the schema field had its own
            # top-level "deterministic" key: skip, never diff.
            before = json.dumps({"bench": "x",
                                 "deterministic": {"caps": 6}})
            self.assertFalse(self.run_compare(
                before, self.report({"caps": 5})))
            self.assertFalse(self.run_compare(
                self.report({"caps": 6}, schema=1),
                self.report({"caps": 5}, schema=2)))

        def test_missing_baseline_skips(self):
            self.assertFalse(self.run_compare(
                self.report({"caps": 5}), self.report({"caps": 5}),
                name="BENCH_y.json"))

    suite = unittest.TestSuite()
    for case in (DiffTest, CompareDirsTest):
        suite.addTests(
            unittest.TestLoader().loadTestsFromTestCase(case))
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main(argv):
    argv = list(argv)
    if "--self-test" in argv:
        return self_test()
    tolerance = 0.0
    if "--tolerance" in argv:
        at = argv.index("--tolerance")
        try:
            tolerance = float(argv[at + 1])
        except (IndexError, ValueError):
            sys.stderr.write("--tolerance needs a number\n")
            return 2
        del argv[at:at + 2]
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    baseline_dir = pathlib.Path(argv[1])
    fresh_dir = pathlib.Path(argv[2])
    names = [n if n.endswith(".json") else n + ".json"
             for n in argv[3:]]
    if not names:
        names = sorted(p.name for p in fresh_dir.glob("BENCH_*.json"))
    if not names:
        print("no BENCH_*.json in %s; nothing to compare" % fresh_dir)
        return 0

    if compare_dirs(baseline_dir, fresh_dir, names, tolerance):
        print("deterministic bench fields drifted from the previous "
              "run; if intended, this run's artifacts become the new "
              "baseline once merged")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
