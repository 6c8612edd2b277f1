#!/usr/bin/env python3
"""The broker benchmark: one command, four workloads (BENCHMARK.json lists
the three the broker currently passes; see perfbench/README.md).

    python3 perfbench/run.py --workload inmem-churn --seed 1 --seconds 15 --trace 0

Run from the repository root. It builds qosbbd and bbperf from source into
.bench_build/perfbench (Release), starts the workload's broker processes
pinned to their CPUs, drives them from one bbperf process over loopback,
checks the outputs, and prints the metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the same timed run is
followed by the in-process layer trace and the metrics are the per-layer
ones. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

WORKLOADS = ("inmem-churn", "journaled-churn", "edf-mixed", "federated-2pc")
SETUP_REPS = 11      # setup_s is the median of this many full set-ups
# recovery_s is the median of several restarts.
RESTART_REPS = 15     # in-memory brokers: a restart takes milliseconds,
RESTART_GAP_S = 0.25  # so they are spread over a few seconds
JOURNAL_RESTARTS = 5  # a journal replay takes seconds; back to back
STEP_TIMEOUT_S = 150
RUN_TIMEOUT_S = 170   # after the build; the contract allows 180 s per run


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build

def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "qosbbd", "bbperf"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return out


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


# ---------------------------------------------------------------- processes

def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


class Broker:
    """One broker process: qosbbd, or bbperf edfd for edf-mixed."""

    def __init__(self, argv, workdir, name, cpus):
        self.argv, self.workdir, self.name, self.cpus = argv, workdir, name, cpus
        self.proc = None
        self.port = None

    def start(self):
        port_file = os.path.join(self.workdir, self.name + ".port")
        if os.path.exists(port_file):
            os.remove(port_file)
        self.log_path = os.path.join(self.workdir, self.name + ".log")
        with open(self.log_path, "a") as logf:
            self.proc = subprocess.Popen(
                self.argv + [f"--port-file={port_file}"], stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=logf, preexec_fn=pinned(self.cpus))
        return port_file

    def wait_port(self, port_file):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"{self.name} exited with {self.proc.returncode}")
            try:
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    return self.port
            except (OSError, ValueError):
                pass
            time.sleep(0.0001)
        raise BenchError(f"{self.name} did not report a port")

    def stop(self):
        """SIGTERM, wait for the drain; returns the drain counters."""
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError(f"{self.name} did not drain on SIGTERM")
        rc = self.proc.returncode
        self.proc = None
        with open(self.log_path) as f:
            counters = benchlib.parse_drain_line(f.read())
        if rc != 0:
            raise BenchError(f"{self.name} exited with {rc}")
        return counters

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc = None


class Bbperf:
    """A bbperf timed/trace process and its line protocol (src/bbperf.h)."""

    def __init__(self, argv, cpus):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pinned(cpus))

    def expect(self, tag):
        line = self.proc.stdout.readline()
        if not line:
            rc = self.proc.wait()
            raise BenchError(f"bbperf exited ({rc}) while waiting for {tag}")
        got, _, body = line.rstrip("\n").partition(" ")
        if got != tag:
            raise BenchError(f"bbperf said {got!r}, expected {tag}")
        return json.loads(body)

    def send(self, cmd):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def ask(self, cmd, tag):
        self.send(cmd)
        return self.expect(tag)

    def quit(self):
        if self.proc.poll() is None:
            try:
                self.send("quit")
            except BrokenPipeError:
                pass
        try:
            return self.proc.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------- workloads

class Run:
    def __init__(self, root, build_dir, workload, seed, seconds):
        self.root, self.workload, self.seed = root, workload, seed
        self.qosbbd = os.path.join(build_dir, "qosbbd")
        self.bbperf = os.path.join(build_dir, "bbperf")
        self.workdir = os.path.join(root, ".bench_build", "runs",
                                    f"{workload}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        cfg = subprocess.run([self.bbperf, "config", f"--workload={workload}",
                              f"--seconds={seconds}"], capture_output=True,
                             text=True, check=True)
        self.cfg = json.loads(cfg.stdout)
        self.journal = os.path.join(self.workdir, "bb.journal")
        cpus = sorted(os.sched_getaffinity(0))
        self.nproc = len(cpus)
        if workload == "federated-2pc":
            # A serial 2PC chain: co-locating coordinator and members on one
            # CPU avoids a cross-CPU wakeup per member round trip.
            one = {cpus[1 % len(cpus)]}
            self.gen_cpus, self.broker_cpus = one, one
        else:
            # Pipelined: generator and broker on disjoint CPUs.
            self.gen_cpus = {cpus[1 % len(cpus)]}
            self.broker_cpus = {cpus[2 % len(cpus)]}
        self.pinning = {"generator": sorted(self.gen_cpus),
                        "brokers": sorted(self.broker_cpus)}
        self.brokers = []
        self.gen = None

    # -- broker fleet
    def make_brokers(self):
        c = self.cfg
        if self.workload == "federated-2pc":
            k = c["fed_domains"]
            return [Broker([self.qosbbd, "--topo=multidomain", f"--domains={k}",
                            f"--domain-index={i}", f"--pairs={c['fed_pairs']}"],
                           self.workdir, f"member{i}", self.broker_cpus)
                    for i in range(k)]
        if self.workload == "edf-mixed":
            return [Broker([self.bbperf, "edfd"], self.workdir, "edfd",
                           self.broker_cpus)]
        argv = [self.qosbbd, "--topo=dumbbell", f"--pairs={c['pairs']}",
                f"--access-mbps={c['access_mbps']}",
                f"--bottleneck-mbps={c['bottleneck_mbps']}"]
        if self.workload == "journaled-churn":
            argv.append(f"--journal={self.journal}")
        return [Broker(argv, self.workdir, "qosbbd", self.broker_cpus)]

    def start_brokers(self):
        self.brokers = self.make_brokers()
        files = [b.start() for b in self.brokers]
        return [b.wait_port(f) for b, f in zip(self.brokers, files)]

    def stop_brokers(self):
        counters = {}
        for b in self.brokers:
            for k, v in b.stop().items():
                counters[k] = counters.get(k, 0) + v
        self.brokers = []
        return counters

    def kill_all(self):
        if self.gen is not None:
            self.gen.kill()
        for b in self.brokers:
            b.kill()

    # -- phases
    def setup_once(self):
        """Spawn the brokers and the generator; return seconds to READY."""
        if os.path.exists(self.journal):
            os.remove(self.journal)
        t0 = time.monotonic()
        ports = self.start_brokers()
        self.gen = Bbperf([self.bbperf, "timed", f"--workload={self.workload}",
                           f"--seed={self.seed}", f"--ops={self.cfg['ops']}",
                           "--ports=" + ",".join(map(str, ports))], self.gen_cpus)
        self.gen.expect("READY")
        return time.monotonic() - t0

    def setup(self):
        samples = []
        for rep in range(SETUP_REPS):
            samples.append(self.setup_once())
            if rep + 1 < SETUP_REPS:
                self.gen.quit()
                self.stop_brokers()
        return samples

    def sample(self):
        return ([benchlib.ProcSample(b.proc.pid) for b in self.brokers],
                benchlib.host_cpu())

    def measure(self):
        pids = [b.proc.pid for b in self.brokers]
        before, host0 = self.sample()
        run0 = benchlib.cpu_run_s(pids)
        done = self.gen.ask("go", "DONE")
        run1 = benchlib.cpu_run_s(pids)
        after, host1 = self.sample()
        d = {
            "window_s": done["window_s"],
            "run_s": run1 - run0,
            "user_s": sum(a.user_s - b.user_s for a, b in zip(after, before)),
            "sys_s": sum(a.sys_s - b.sys_s for a, b in zip(after, before)),
            "ctxsw": sum(a.ctxsw - b.ctxsw for a, b in zip(after, before)),
            "rss_mb": sum(a.vm_hwm_kb for a in after) / 1024.0,
            "steal_share": (host1[1] - host0[1]) / max(1, host1[0] - host0[0]),
        }
        return done, d

    def restart_samples(self, reps, gap_s=0.0, keep_last=False):
        """Seconds from spawning the brokers to their first Health reply."""
        samples = []
        for rep in range(reps):
            if rep:
                time.sleep(gap_s)
            t0 = time.monotonic()
            ports = self.start_brokers()
            probe = self.gen.ask("probe " + " ".join(map(str, ports)), "PROBE")
            if not probe["ok"]:
                raise BenchError("restarted broker did not answer Health")
            samples.append(probe["t"] - t0)
            if rep + 1 < reps or not keep_last:
                self.stop_brokers()
        return samples


def run_workload(run, trace):
    setup = run.setup()
    done, proc = run.measure()
    result = {"done": done, "proc": proc, "setup": setup}
    if run.workload == "journaled-churn":
        before = run.gen.ask("digest", "DIGEST")
        result["drain"] = run.stop_brokers()
        result["recovery"] = run.restart_samples(JOURNAL_RESTARTS, keep_last=True)
        after = run.gen.ask("digest", "DIGEST")
        result["check"] = run.gen.ask("finish", "CHECK")
        if before.get("digest") != after.get("digest"):
            result["check"]["correct"] = False
            result["check"]["detail"] = "SnapshotDigest changed across recovery"
        result["drain_after"] = run.stop_brokers()
    else:
        result["check"] = run.gen.ask("finish", "CHECK")
        result["drain"] = run.stop_brokers()
        result["recovery"] = run.restart_samples(
            RESTART_REPS, RESTART_GAP_S,
            keep_last=trace and run.workload == "federated-2pc")
    log("setup_s samples: " + " ".join(f"{x:.4f}" for x in result["setup"]))
    log("recovery_s samples: " + " ".join(f"{x:.4f}" for x in result["recovery"]))
    rc = run.gen.quit()
    run.gen = None
    if rc != 0 and result["check"].get("correct", False):
        result["check"]["correct"] = False
        result["check"]["detail"] = f"bbperf exited with {rc}"
    return result


def end_to_end(run, r):
    """The end-to-end metrics, each over the whole measured window (the
    set-up and restart times are medians of their repetitions)."""
    done, proc = r["done"], r["proc"]
    decisions = done["decisions"]
    # Broker CPU from schedstat (ns); in federated-2pc also the
    # coordinator thread's CPU inside bbperf.
    cpu_s = proc["run_s"] + done.get("coord_cpu_s", 0.0)
    return {
        "decisions_per_s": (decisions / proc["window_s"], "1/s"),
        "cpu_us_per_decision": (1e6 * cpu_s / decisions, "us"),
        "admit_p50_us": (done["admit_p50_us"], "us"),
        "admit_share": (done["admits"] / done["admit_requests"], "share"),
        "setup_s": (statistics.median(r["setup"]), "s"),
        "recovery_s": (statistics.median(r["recovery"]), "s"),
        "broker_rss_mb": (proc["rss_mb"], "MB"),
    }


def timed_layers(run, r):
    done, proc, drain = r["done"], r["proc"], r.get("drain", {})
    decisions = done["decisions"]
    window = proc["window_s"]
    broker_cpu = proc["user_s"] + proc["sys_s"]
    batches = drain.get("batches", 0)
    return {
        "proc.user_us_per_decision": (1e6 * proc["user_s"] / decisions, "us"),
        "proc.sys_us_per_decision": (1e6 * proc["sys_s"] / decisions, "us"),
        "proc.ctxsw_per_decision": (proc["ctxsw"] / decisions, "count"),
        "proc.server_busy_share": (broker_cpu / window, "share"),
        "proc.gen_busy_share": (done["gen_cpu_s"] / window, "share"),
        "host.steal_share": (proc["steal_share"], "share"),
        "net.requests_per_batch": (
            drain.get("batched_requests", 0) / batches if batches else 0.0, "count"),
        "net.backpressure_pauses": (drain.get("backpressure_pauses", 0), "count"),
        "client.admit_p99_us": (client_p99(done), "us"),
    }


def client_p99(done):
    """p99 admit latency, or the highest percentile the sample supports
    (at least 10 samples beyond it) when p99 does not."""
    n = done["admit_samples"]
    if done["admit_p99_ok"]:
        log(f"client admit p99 {done['admit_p99_us']:.1f} us over {n} admits")
        return done["admit_p99_us"]
    log(f"client admit p99 unsupported by {n} admits; reporting "
        f"p{done['admit_top_q']:g} = {done['admit_top_us']:.1f} us")
    return done["admit_top_us"]


def run_trace(run, r, timed):
    """The in-process layer trace over the same seeded stream."""
    ports = [b.port for b in run.brokers]
    rpb = timed["net.requests_per_batch"][0]
    argv = [run.bbperf, "trace", f"--workload={run.workload}", f"--seed={run.seed}",
            f"--ops={run.cfg['ops']}", f"--scratch={run.workdir}",
            f"--requests-per-batch={rpb}"]
    if ports:
        argv.append("--ports=" + ",".join(map(str, ports)))
    tr = Bbperf(argv, run.gen_cpus)
    try:
        tr.expect("READY")
        before = [benchlib.ProcSample(b.proc.pid) for b in run.brokers]
        done = tr.ask("go", "DONE")
        after = [benchlib.ProcSample(b.proc.pid) for b in run.brokers]
        rc = tr.quit()
    finally:
        tr.kill()
    if rc != 0:
        raise BenchError(f"bbperf trace exited with {rc}")
    member_cpu = sum(a.cpu_s - b.cpu_s for a, b in zip(after, before))
    return done, member_cpu


def provenance(run, r):
    return {
        "workload": run.workload, "seed": run.seed,
        "git_sha": git_sha(run.root), "source_digest": source_digest(run.root),
        "nproc": run.nproc, "pinning": run.pinning,
        "host.steal_share": r["proc"]["steal_share"],
        "proc.server_busy_share": (r["proc"]["user_s"] + r["proc"]["sys_s"])
        / r["proc"]["window_s"],
        "proc.gen_busy_share": r["done"]["gen_cpu_s"] / r["proc"]["window_s"],
        "admit_samples": r["done"]["admit_samples"],
        "measured_ops": run.cfg["ops"],
    }


def on_alarm(signum, frame):
    raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        build_dir = build(root)
    except BenchError as e:
        log(str(e))
        return 1

    # A run that hangs fails instead: SIGALRM raises out of any wait.
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    run = None
    try:
        run = Run(root, build_dir, args.workload, args.seed, args.seconds)
        # Keep this process off the generator's and the brokers' CPUs.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[3 % len(cpus)]})
        r = run_workload(run, bool(args.trace))
        metrics = end_to_end(run, r)
        if args.trace:
            timed = timed_layers(run, r)
            trace_done, member_cpu = run_trace(run, r, timed)
            if not trace_done["correct"]:
                r["check"]["correct"] = False
                r["check"]["detail"] = trace_done["detail"]
            timed.update(trace_layers(trace_done, member_cpu, metrics))
            metrics = timed
        run.stop_brokers()
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        where = f" (logs in {run.workdir})" if run else ""
        log(f"run failed: {e}{where}")
        return 1
    finally:
        signal.alarm(0)
        if run is not None:
            run.kill_all()
    shutil.rmtree(run.workdir, ignore_errors=True)

    check = r["check"]
    done = r["done"]
    print("# provenance " + json.dumps(provenance(run, r), sort_keys=True))
    print(f"# checks: correct={check.get('correct')} {check.get('detail', '')}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:16.6f} {unit}")
    out = {
        "correct": bool(check.get("correct")),
        "attempted": int(done["attempted"]),
        "failed": int(done["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def trace_layers(t, member_cpu, e2e):
    """Per-layer metrics of the traced run, plus its reconciliation against
    the timed run's cpu_us_per_decision."""
    timed_cpu = e2e["cpu_us_per_decision"][0]
    traced_cpu = 1e6 * (t["cpu_s"] + member_cpu) / t["decisions"]
    self_us = t["self_us_per_decision"]
    layers = {k: tuple(v) for k, v in t["layers"].items()}
    layers.update({
        "trace.decisions_per_s": (t["decisions"] / t["window_s"], "1/s"),
        "trace.cpu_us_per_decision": (traced_cpu, "us"),
        "trace.self_us_per_decision": (self_us, "us"),
        "trace.unattributed_us_per_decision": (timed_cpu - self_us, "us"),
        "trace.overhead_us_per_decision": (traced_cpu - timed_cpu, "us"),
    })
    log(f"reconciliation: layer self time {self_us:.3f} us/decision vs timed "
        f"cpu_us_per_decision {timed_cpu:.3f}: unattributed "
        f"{timed_cpu - self_us:+.3f} us; traced run {traced_cpu:.3f} us/decision, "
        f"overhead {traced_cpu - timed_cpu:+.3f} us")
    return layers


if __name__ == "__main__":
    sys.exit(main())
