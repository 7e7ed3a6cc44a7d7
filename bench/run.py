"""Benchmark of unidisc: build and re-verify LOCC discrimination protocols.

Usage, from the root of a checkout:

    python3 bench/run.py --workload closed-form|entangling|replay \\
        --seed N --seconds S --trace 0|1

Each run sets up once (import, seeded inputs, a warm-up operation; for
``replay`` also building and writing the protocol files) and then performs
whole rounds of a fixed operation list, one operation at a time (a closed
loop with one client).  The number of rounds is ``--seconds`` divided by the
nominal time of one round, so every run of a workload does the same work.
Every output is checked against ``checker.py``, which shares no code with
the library; checks and garbage collection run outside the timed regions.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
does the untraced rounds first, then the same rounds traced, so it also
reports the tracing overhead; it writes its spans and per-layer table to
``bench/results/``.
"""

import os
import sys
import time

_START = time.perf_counter()
# BLAS threads make the small dense kernels here slower and noisier
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
if not os.path.isfile(os.path.join(ROOT, "src", "unidisc", "__init__.py")):
    sys.exit(f"bench: no unidisc sources under {os.path.join(ROOT, 'src')}")
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import unidisc.cli  # noqa: E402
import unidisc.engine  # noqa: E402
from unidisc.core import UnitaryOperator  # noqa: E402
from unidisc.io import dumps_artifact, protocol_to_json, save_operator  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _START

SETUP_REPEATS = 3
# nominal seconds of one round on a 2-CPU x86 machine, one BLAS thread
ROUND_SECONDS = {"closed-form": 4.0, "entangling": 33.0, "replay": 1.55}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class BuildWorkload:
    """``build_protocol`` on a list of pairs; outputs go to the checker."""

    def __init__(self, pairs, warmup):
        self.pairs = pairs
        self.warmup = warmup
        self.ops = None

    def setup(self):
        self.ops = [self._operators(p) for p in self.pairs()]
        self.run(self._operators(self.warmup()), unidisc.engine.build_protocol)

    @staticmethod
    def _operators(pair):
        dims = (pair.d, pair.d)
        return pair, UnitaryOperator(pair.u, dims), UnitaryOperator(pair.v, dims)

    def references(self):
        return True

    def run(self, op, build):
        pair, u, v = op
        return build(u, v, seed=pair.build_seed)

    def judge(self, op, proto):
        """(failed, correct, box uses) of one operation's outcome."""
        pair = op[0]
        if isinstance(proto, Exception):
            return True, True, None
        # the library promises only the "III" prefix for both-entangling pairs
        label = "III" if pair.case.startswith("III") else pair.case
        correct = proto.certificate.passed and proto.case_label.startswith(label)
        rejected = checker.check_protocol(proto, pair.u, pair.v, pair.factors)
        return bool(rejected), correct, proto.box_uses


@dataclass
class ReplayOp:
    pair: workloads.Pair
    paths: tuple
    box_uses: int
    corrupted: bool
    expected: int = None


class ReplayWorkload:
    """In-process ``unidisc verify --quiet`` on protocol files written at set-up."""

    def __init__(self, seed):
        self.seed = seed
        self.directory = os.path.join(RESULTS, "replay-files")
        self.ops = None

    def setup(self):
        os.makedirs(self.directory, exist_ok=True)
        self.ops = []
        for k, pair in enumerate(workloads.replay_pairs(self.seed)):
            payload, paths = self._build(f"p{k:02d}", pair)
            self.ops.append(ReplayOp(pair, paths, len(payload["runs"]), False))
        for b, pair in enumerate(workloads.corruption_bases()):
            base, (_, u_path, v_path) = self._build(f"base{b}", pair)
            for kind in workloads.CORRUPTIONS:
                path = os.path.join(self.directory, f"base{b}-{kind}.json")
                with open(path, "w") as fh:
                    fh.write(dumps_artifact(workloads.corrupt(base, kind)))
                self.ops.append(ReplayOp(pair, (path, u_path, v_path),
                                         len(base["runs"]), True))
        self.run(self.ops[0], unidisc.cli.main)

    def _build(self, name, pair):
        dims = (pair.d, pair.d)
        u, v = UnitaryOperator(pair.u, dims), UnitaryOperator(pair.v, dims)
        proto = unidisc.engine.build_protocol(u, v, seed=pair.build_seed)
        payload = protocol_to_json(proto, seed=pair.build_seed)
        paths = tuple(os.path.join(self.directory, f"{name}-{x}.json")
                      for x in ("protocol", "u", "v"))
        with open(paths[0], "w") as fh:
            fh.write(dumps_artifact(payload))
        save_operator(paths[1], u)
        save_operator(paths[2], v)
        return payload, paths

    def references(self):
        """Set each file's reference exit code from the checker (0 accepted,
        2 rejected); correct if every corrupted file is rejected."""
        correct = True
        for op in self.ops:
            accepted = not checker.check_artifact(op.paths[0], op.pair.u, op.pair.v)
            op.expected = 0 if accepted else 2
            correct &= not (op.corrupted and accepted)
        return correct

    def run(self, op, main):
        return main(["verify", *op.paths, "--quiet"])

    def judge(self, op, code):
        return code != op.expected, True, op.box_uses


def make_workload(name, seed):
    if name == "closed-form":
        return BuildWorkload(lambda: workloads.closed_form_pairs(seed),
                             workloads.closed_form_warmup)
    if name == "entangling":
        return BuildWorkload(workloads.entangling_pairs,
                             lambda: workloads.acceptance_pair(*workloads.ENTANGLING_WARMUP))
    return ReplayWorkload(seed)


def measure(workload, rounds, call, tracer=None):
    """Time every operation of ``rounds`` rounds; returns the tallies."""
    seconds, box_uses = [], []
    failed = 0
    correct = True
    for _ in range(rounds):
        for op in workload.ops:
            gc.collect()
            if tracer is not None:
                tracer.op += 1
            start = time.perf_counter()
            try:
                out = workload.run(op, call)
            except Exception as exc:  # a crash is a failed operation
                out = exc
            seconds.append(time.perf_counter() - start)
            bad, ok, uses = workload.judge(op, out)
            failed += bad
            correct &= ok or bad
            if uses is not None:
                box_uses.append(uses)
    return seconds, failed, correct, box_uses


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it (else 50)."""
    return next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10), 50.0)


def end_to_end(seconds, rounds, box_uses, setup_s):
    """End-to-end metrics; throughput and median latency are medians over
    rounds, so a slow stretch of the machine shifts them only when it covers
    half the rounds."""
    ms = np.array(seconds) * 1e3
    per_round = ms.reshape(rounds, -1)
    tail = tail_percentile(len(ms))
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (float(np.median(per_round.shape[1] * 1e3 / per_round.sum(1))),
                             "1/s"),
        "latency_p50_ms": (float(np.median(np.median(per_round, axis=1))), "ms"),
        "latency_tail_ms": (float(np.percentile(ms, tail)), "ms"),
        "box_uses_mean": (float(np.mean(box_uses)), "uses"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, tail


def write_result(name, text):
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w") as fh:
        fh.write(text)


def layer_table(workload, metrics, n_ops, missing):
    lines = [f"# {workload}: per-layer metrics per operation ({n_ops} traced operations)",
             "", "| metric | value | unit |", "| --- | --- | --- |"]
    lines += [f"| `{k}` | {v:.6g} | {u} |" for k, (v, u) in metrics.items()]
    if missing:
        lines += ["", "hooks not installed: " + ", ".join(missing)]
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed-form", "entangling", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = IMPORT_S + statistics.median(setups)
    correct = workload.references()
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    root = unidisc.cli.main if args.workload == "replay" else unidisc.engine.build_protocol
    root_name = "cli.main" if args.workload == "replay" else "engine.build_protocol"
    gc.freeze()  # set-up objects live to the end; collections skip them

    with contextlib.redirect_stderr(io.StringIO()):
        seconds, failed, ok, box_uses = measure(workload, rounds, root)
    correct &= ok
    attempted = len(seconds)
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                traced, t_failed, t_ok, _ = measure(
                    workload, rounds, tracer.wrap(root, root_name), tracer)
        finally:
            tracer.uninstall()
        correct &= t_ok
        failed += t_failed
        attempted += len(traced)
        n = len(traced)
        self_ns, _ = tracer.self_times_ns()
        metrics = tracer.layer_metrics(n)
        metrics["trace.op_ms"] = (1e3 * sum(traced) / n, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (sum(traced) / sum(seconds) - 1.0), "%")
        metrics["trace.self_time_share"] = (sum(self_ns.values()) / 1e9 / sum(traced), "ratio")
        write_result(f"{tag}-spans.json", json.dumps(
            {"missing_hooks": missing, "spans": [list(s) for s in tracer.spans]}))
        write_result(f"{tag}-layers.md", layer_table(args.workload, metrics, n, missing))
    else:
        metrics, tail = end_to_end(seconds, rounds, box_uses, setup_s)
        print(f"{args.workload}: {attempted} operations in {rounds} rounds, "
              f"latency_tail_ms is p{tail:g}", file=sys.stderr)

    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    write_result(f"{tag}-trace{args.trace}.json", json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
