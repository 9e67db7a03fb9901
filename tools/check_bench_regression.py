#!/usr/bin/env python3
"""Diff the deterministic block of fresh BENCH_*.json reports against
baselines.

Usage:
    check_bench_regression.py BASELINE_DIR FRESH_DIR [NAME...]
    check_bench_regression.py [--tolerance REL] BASELINE_DIR FRESH_DIR
    check_bench_regression.py --self-test

For example, after the release benches have written their reports
into build-release/:
    check_bench_regression.py bench/baseline build-release

BASELINE_DIR and FRESH_DIR each hold BENCH_*.json files directly.
bench/baseline/ holds the committed baselines: a release run's
reports, written with the knobs CI's release leg sets, less their
"host" and "timing" blocks. A change that moves a modelled number on
purpose rewrites them the same way. NAMEs limit the comparison (e.g.
"BENCH_tenant"); default is every BENCH_*.json in either directory.

Every report (bench/report.hh) carries a "schema" number and keeps
what two same-seed runs reproduce in its "deterministic" block; host
wall-clock readings live in "timing" and host facts in "host", and
neither is compared. So any difference in "deterministic" is a real
behaviour change, not noise.

A report that cannot be compared fails as drift does: one missing
from either directory, one that cannot be read or parsed, and a pair
whose schemas differ (a baseline written before reports had one
included), since their layouts differ. So a change that renames a
report, adds or drops a bench, or changes the schema must rewrite the
baselines too; the check never passes by comparing nothing.

--tolerance REL compares numeric leaves with the given relative
tolerance instead of exact equality (default 0 = exact: the
deterministic blocks are gated byte-identical by the benches, so
slack is only for ad-hoc comparisons).

--self-test runs the built-in unittest suite (registered with ctest
as test_check_bench_regression).

Exit status: 0 = every report compared and none drifted, 1 = drift,
a report that cannot be compared, or no report at all, 2 = usage
error.
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


def compare_dirs(baseline_dir, fresh_dir, names, tolerance=0.0):
    """Compare the named reports; returns True when any drifted or
    could not be compared."""
    drift = False
    for name in names:
        try:
            old = json.loads((baseline_dir / name).read_text())
            new = json.loads((fresh_dir / name).read_text())
        except (OSError, ValueError) as err:
            drift = True
            print("%-20s FAIL (cannot read: %s)" % (name, err))
            continue
        schema = new.get("schema")
        if schema is None or old.get("schema") != schema:
            drift = True
            print("%-20s FAIL (baseline schema %s, fresh schema %s)"
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

        def run_main(self, base, fresh, names=()):
            """main()'s exit status over a baseline and a fresh
            directory that hold the {name: text} files given."""
            with tempfile.TemporaryDirectory() as tmp:
                root = pathlib.Path(tmp)
                dirs = []
                for sub, files in (("base", base), ("fresh", fresh)):
                    (root / sub).mkdir()
                    for name, text in files.items():
                        (root / sub / name).write_text(text)
                    dirs.append(str(root / sub))
                return main(["check"] + dirs + list(names))

        def run_compare(self, base, fresh):
            return self.run_main({"BENCH_x.json": base},
                                 {"BENCH_x.json": fresh})

        def test_timing_is_never_compared(self):
            self.assertEqual(self.run_compare(
                self.report({"caps": 5}, {"wall_sec": 1.0}),
                self.report({"caps": 5}, {"wall_sec": 9.0})), 0)

        def test_deterministic_change_drifts(self):
            self.assertEqual(self.run_compare(
                self.report({"caps": 5, "scan_rate": 1.5}),
                self.report({"caps": 5, "scan_rate": 1.25})), 1)

        def test_schema_mismatch_fails(self):
            # A report written before the schema field had its own
            # top-level "deterministic" key: never diffed, never
            # passed.
            before = json.dumps({"bench": "x",
                                 "deterministic": {"caps": 5}})
            self.assertEqual(self.run_compare(
                before, self.report({"caps": 5})), 1)
            self.assertEqual(self.run_compare(
                self.report({"caps": 5}, schema=1),
                self.report({"caps": 5}, schema=2)), 1)

        def test_unreadable_report_fails(self):
            self.assertEqual(self.run_compare(
                "{", self.report({"caps": 5})), 1)
            self.assertEqual(self.run_compare(
                self.report({"caps": 5}), "not json"), 1)

        def test_report_missing_from_either_side_fails(self):
            same = self.report({"caps": 5})
            both = {"BENCH_x.json": same, "BENCH_y.json": same}
            only_x = {"BENCH_x.json": same}
            self.assertEqual(self.run_main(only_x, both), 1)
            self.assertEqual(self.run_main(both, only_x), 1)
            self.assertEqual(self.run_main(both, both), 0)
            # A NAME limits the comparison to the reports it names.
            self.assertEqual(
                self.run_main(both, only_x, ["BENCH_x"]), 0)
            self.assertEqual(
                self.run_main(only_x, only_x, ["BENCH_y"]), 1)

        def test_no_reports_fails(self):
            self.assertEqual(self.run_main({}, {}), 1)

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
        names = sorted({p.name for d in (baseline_dir, fresh_dir)
                        for p in d.glob("BENCH_*.json")})
    if not names:
        print("no BENCH_*.json in %s or %s; nothing compared"
              % (baseline_dir, fresh_dir))
        return 1

    if compare_dirs(baseline_dir, fresh_dir, names, tolerance):
        print("reports drifted from %s or could not be compared; "
              "if the change is intended, rewrite the baselines from "
              "this run's reports" % baseline_dir)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
