#!/usr/bin/env python3
"""Run a command and print its resident-set-size timeline.

Usage:
    rss_timeline.py [--] COMMAND [ARG...]
    rss_timeline.py --self-test

Starts COMMAND, samples VmRSS (and VmHWM, the kernel's high-water
mark) from /proc/PID/status every 10 ms until it exits, and then
prints, after the command's own output:

    the sampled peak VmRSS and the time it was first reached;
    the last VmHWM read, which a sample can fall short of;
    the largest VmRSS sampled in each 100 ms step.

Times are seconds since the command started. Only the started
process is sampled, not its children, so time a binary directly
rather than through a wrapper such as perfbench/run.py:

    rss_timeline.py .bench_build/perfbench/perfbench \\
        --workload concurrent-bg --seed 42 --seconds 5 --trace 0 \\
        --golden-dir perfbench/golden

Linux only (it reads /proc). The exit status is the command's.

--self-test runs the built-in unittest suite (registered with ctest
as test_rss_timeline).
"""

import subprocess
import sys
import time

SAMPLE_S = 0.010
STEP_S = 0.100


def read_status_kib(pid):
    """VmRSS and VmHWM of @pid in KiB, or None once it has exited
    (a zombie's status has no Vm lines)."""
    fields = {}
    try:
        with open("/proc/%d/status" % pid) as status:
            for line in status:
                key, _, value = line.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    fields[key] = int(value.split()[0])
    except (FileNotFoundError, ProcessLookupError):
        return None
    if "VmRSS" not in fields:
        return None
    return fields["VmRSS"], fields.get("VmHWM", 0)


def sample(cmd):
    """Run @cmd; return (exit status, [(seconds, rss KiB)], last
    VmHWM KiB)."""
    proc = subprocess.Popen(cmd)
    start = time.monotonic()
    samples = []
    hwm = 0
    next_tick = start
    while proc.poll() is None:
        read = read_status_kib(proc.pid)
        if read is not None:
            samples.append((time.monotonic() - start, read[0]))
            hwm = max(hwm, read[1])
        next_tick += SAMPLE_S
        time.sleep(max(0.0, next_tick - time.monotonic()))
    return proc.returncode, samples, hwm


def steps(samples):
    """The largest RSS in each STEP_S step, as (step start, KiB)."""
    peak = {}
    for t, rss in samples:
        index = int(t / STEP_S)
        peak[index] = max(peak.get(index, 0), rss)
    return [(round(i * STEP_S, 3), rss) for i, rss in sorted(peak.items())]


def report(samples, hwm):
    """The printed summary and timeline."""
    if not samples:
        return "rss_timeline: no sample taken\n"
    peak_t, peak = max(samples, key=lambda s: (s[1], -s[0]))
    lines = ["rss_timeline: %d samples over %.2f s"
             % (len(samples), samples[-1][0]),
             "peak VmRSS %.1f MiB at %.2f s; VmHWM %.1f MiB"
             % (peak / 1024, peak_t, hwm / 1024),
             "  time_s  rss_mib"]
    for t, rss in steps(samples):
        lines.append("%8.1f %8.1f" % (t, rss / 1024))
    return "\n".join(lines) + "\n"


def self_test():
    """The built-in unittest suite (ctest: test_rss_timeline)."""
    import unittest

    class StepsTest(unittest.TestCase):
        def test_each_step_keeps_its_largest_sample(self):
            samples = [(0.00, 10), (0.05, 30), (0.12, 20), (0.31, 5)]
            self.assertEqual(steps(samples), [(0.0, 30), (0.1, 20), (0.3, 5)])

        def test_report_names_the_first_peak(self):
            text = report([(0.0, 1024), (0.2, 2048), (0.4, 2048)], 4096)
            self.assertIn("peak VmRSS 2.0 MiB at 0.20 s", text)
            self.assertIn("VmHWM 4.0 MiB", text)

    class SampleTest(unittest.TestCase):
        def test_a_child_that_holds_memory_peaks_above_it(self):
            # 64 MiB written and held for 0.3 s, then released.
            child = ("import time; b = bytearray(64 << 20); "
                     "b[::4096] = b'x' * (len(b) // 4096); "
                     "time.sleep(0.3)")
            status, samples, hwm = sample([sys.executable, "-c", child])
            self.assertEqual(status, 0)
            self.assertGreater(len(samples), 5)
            self.assertGreaterEqual(max(rss for _, rss in samples),
                                    64 << 10)
            self.assertGreaterEqual(hwm, 64 << 10)

        def test_the_exit_status_is_the_commands(self):
            status, _, _ = sample([sys.executable, "-c",
                                   "raise SystemExit(3)"])
            self.assertEqual(status, 3)

    suite = unittest.TestSuite()
    for case in (StepsTest, SampleTest):
        suite.addTests(unittest.TestLoader().loadTestsFromTestCase(case))
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    cmd = argv[1:]
    if cmd and cmd[0] == "--":
        cmd = cmd[1:]
    if not cmd:
        sys.stderr.write(__doc__)
        return 2
    status, samples, hwm = sample(cmd)
    sys.stdout.write(report(samples, hwm))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
