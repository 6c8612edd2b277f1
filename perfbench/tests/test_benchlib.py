"""Tests for perfbench/benchlib.py: /proc and drain-line parsing.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import benchlib  # noqa: E402

STAT = ("4242 (qos bbd (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 "
        "250 75 0 0 20 0 3 0 123456 9000000 1500 18446744073709551615")

STATUS = """Name:\tqosbbd
State:\tS (sleeping)
VmPeak:\t   20000 kB
VmHWM:\t    5676 kB
VmRSS:\t    5600 kB
Threads:\t2
voluntary_ctxt_switches:\t37
nonvoluntary_ctxt_switches:\t5
"""

PROC_STAT = """cpu  100 5 50 800 10 0 5 30 0 0
cpu0 25 1 12 200 2 0 1 7 0 0
intr 12345
"""


class ProcParsing(unittest.TestCase):
    def test_pid_stat_cpu_after_parenthesised_name(self):
        user, sys_ = benchlib.parse_pid_stat(STAT)
        self.assertAlmostEqual(user, 250 / benchlib.CLK_TCK)
        self.assertAlmostEqual(sys_, 75 / benchlib.CLK_TCK)

    def test_status_rss_and_context_switches(self):
        st = benchlib.parse_status(STATUS)
        self.assertEqual(st["vm_hwm_kb"], 5676)
        self.assertEqual(st["vol_ctxsw"], 37)
        self.assertEqual(st["nonvol_ctxsw"], 5)

    def test_schedstat(self):
        self.assertEqual(benchlib.parse_schedstat("123456789 1000 42\n"), 123456789)

    def test_host_cpu_line(self):
        total, steal = benchlib.parse_cpu_line(PROC_STAT)
        self.assertEqual(total, 100 + 5 + 50 + 800 + 10 + 0 + 5 + 30)
        self.assertEqual(steal, 30)

    def test_drain_line_takes_the_last(self):
        log = ("qosbbd: listening on 127.0.0.1:1 (topo=dumbbell)\n"
               "qosbbd: drained. admit_requests=5 batches=2 batched_requests=5\n"
               "qosbbd: drained. admit_requests=9 batches=3 batched_requests=9\n")
        self.assertEqual(benchlib.parse_drain_line(log),
                         {"admit_requests": 9, "batches": 3, "batched_requests": 9})

    def test_live_process(self):
        s = benchlib.ProcSample(os.getpid())
        self.assertGreater(s.vm_hwm_kb, 0)
        self.assertGreaterEqual(s.cpu_s, 0.0)
        self.assertGreater(benchlib.cpu_run_s([os.getpid()]), 0.0)


if __name__ == "__main__":
    unittest.main()
