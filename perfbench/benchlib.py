"""Helpers for perfbench/run.py: /proc and drain-line parsing. Pure
functions over text, so tests can feed them fixed samples
(perfbench/tests/test_benchlib.py)."""

import os
import re

CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def parse_pid_stat(text):
    """(user_s, sys_s) of a process from the text of /proc/<pid>/stat.

    The command name (field 2) is in parentheses and may hold spaces or
    parentheses itself, so fields are counted after the last ')'.
    """
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    utime, stime = int(rest[11]), int(rest[12])
    return utime / CLK_TCK, stime / CLK_TCK


def parse_status(text):
    """Fields of /proc/<pid>/status that the benchmark reads.

    Returns vm_hwm_kb and the voluntary and nonvoluntary context-switch
    counts of that task.
    """
    out = {"vm_hwm_kb": 0, "vol_ctxsw": 0, "nonvol_ctxsw": 0}
    keys = {"VmHWM": "vm_hwm_kb",
            "voluntary_ctxt_switches": "vol_ctxsw",
            "nonvoluntary_ctxt_switches": "nonvol_ctxsw"}
    for line in text.splitlines():
        name, _, value = line.partition(":")
        if name in keys:
            out[keys[name]] = int(value.split()[0])
    return out


def parse_schedstat(text):
    """Nanoseconds a task has run, from /proc/<pid>/task/<tid>/schedstat."""
    return int(text.split()[0])


def parse_cpu_line(text):
    """Aggregate jiffies of the first 'cpu ' line of /proc/stat.

    Returns (total, steal). Guest time is already inside user and nice,
    so it is not added twice.
    """
    for line in text.splitlines():
        if line.startswith("cpu "):
            f = [int(x) for x in line.split()[1:]]
            total = sum(f[:8])  # user nice system idle iowait irq softirq steal
            steal = f[7] if len(f) > 7 else 0
            return total, steal
    raise ValueError("no aggregate cpu line in /proc/stat")


def parse_drain_line(text):
    """key=value counters of the last 'drained.' stats line in a log."""
    line = ""
    for candidate in text.splitlines():
        if "drained." in candidate:
            line = candidate
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", line)}


def _read(path):
    with open(path) as f:
        return f.read()


class ProcSample:
    """CPU, context switches and peak RSS of one process, all threads."""

    def __init__(self, pid):
        self.user_s, self.sys_s = parse_pid_stat(_read(f"/proc/{pid}/stat"))
        self.ctxsw = 0
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                st = parse_status(_read(f"/proc/{pid}/task/{tid}/status"))
            except OSError:
                continue  # thread exited between listdir and open
            self.ctxsw += st["vol_ctxsw"] + st["nonvol_ctxsw"]
        self.vm_hwm_kb = parse_status(_read(f"/proc/{pid}/status"))["vm_hwm_kb"]

    @property
    def cpu_s(self):
        return self.user_s + self.sys_s


def host_cpu():
    return parse_cpu_line(_read("/proc/stat"))


def cpu_run_s(pids):
    """Summed on-CPU time of every thread of `pids`, in ns precision."""
    total = 0
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                total += parse_schedstat(_read(f"/proc/{pid}/task/{tid}/schedstat"))
            except OSError:
                continue
    return total / 1e9
