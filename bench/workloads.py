"""The four workloads: what each run sets up, sends, times and checks.

Every run has the same skeleton:

1. **set-up**, once: generate the graph, write the snapshot, spawn a
   server and wait for ``/healthz``; that is ``setup_s``.  The mirror of
   the oracle is built before the spawn, outside the clock, so that
   nothing runs beside the boot.  The booted server answers one batch of
   256 seeded facts, all byte-checked.
2. **window**: the workload's own traffic for ``--seconds`` seconds after
   a warm-up that is thrown away.  ``cold-start`` has no steady traffic:
   it boots servers until ``--seconds`` have passed (two at least), its
   ``setup_s`` is the median over them, and its window is the first 1,024
   single explains each cold server answers — there because the
   benchmark contract has every workload report every end-to-end metric
   (the clause is quoted in README.md).
3. the oracle checks the bodies the clients kept; the server is stopped
   and reports its peak resident set.

The server is always its own child process, started by
``server_main.py`` with the repo's defaults; load comes from this process
over two keep-alive connections (``nproc`` is 2).
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import gen
import trace as spans
from check import SAMPLE_ONE_IN, Kept, Oracle
from client import Connection

from repro.io import dumps_database, loads_facts

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("cold-start", "serve-hot", "serve-sweep", "live-update")

CLIENTS = 2                 # connections and load threads: nproc
WARMUP_S = 1.5              # discarded before every timed window
COLD_BOOTS = 2              # least number of cold-start boots per run
READY_BATCH = 256           # facts in the first batch a server answers
COLD_SINGLES = 1024         # single explains sent to each cold server
HOT_SET = 64                # serve-hot: facts in the hot set
ZIPF_EXPONENT = 1.1
SWEEP_BATCH = 16            # serve-sweep: facts per /explain/batch
SWEEP_MIX = (0.80, 0.15, 0.05)     # batch, single, why-not
LIVE_RATE_PER_S = 200       # live-update: reads due per second, fixed
LIVE_UPDATE_PERIOD_S = 3.0  # live-update: one /update per period
READ_LIMIT_MS = 50.0        # a read slower than this missed its limit


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------

class ServerProcess:
    """One ``server_main.py`` child: spawn, wait, stop, always reaped."""

    def __init__(self, snapshot_path: str, log_path: str,
                 trace_path: str = "", op: str = "boot"):
        self.spawned = time.perf_counter()
        self.log = open(log_path, "wb")
        command = [sys.executable, os.path.join(HERE, "server_main.py"),
                   "--snapshot", snapshot_path, "--op", op]
        if trace_path:
            command += ["--trace", trace_path]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, cwd=HERE,
        )
        self.log_path = log_path
        self.port = 0
        self.healthy_after = 0.0       # spawn -> /healthz 200, seconds
        self.worker_boot_s: list[float] = []   # per worker, from /healthz

    def _event(self, timeout_s: float) -> dict:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], timeout_s)
        line = stdout.readline() if ready else b""
        if not line:
            self.stop()
            with open(self.log_path, "rb") as log:
                tail = log.read()[-2000:].decode("utf-8", "replace")
            raise RuntimeError(f"server gave no event; its log ends:\n{tail}")
        return json.loads(line)

    def wait_ready(self, timeout_s: float = 120.0) -> int:
        self.port = self._event(timeout_s)["port"]
        return self.port

    def stop(self) -> int:
        """SIGTERM, then kill; returns the child's peak RSS in KiB."""
        process = self.process
        peak_kb = 0
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                out, _ = process.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                out, _ = process.communicate()
            for line in out.splitlines():
                event = json.loads(line)
                if event.get("event") == "exit":
                    peak_kb = event["maxrss_kb"]
        elif process.stdout is not None and not process.stdout.closed:
            process.stdout.close()
        self.log.close()
        return peak_kb


# ----------------------------------------------------------------------
# One run's state
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """What the clients brought back from one phase."""

    #: (latency, facts explained, when sent — when due, in an open loop)
    reads: list[tuple[float, int, float]] = field(default_factory=list)
    whynots: list[tuple[float, float]] = field(default_factory=list)  # +when
    updates: list[tuple[bool, float]] = field(default_factory=list)  # retract?
    late: list[float] = field(default_factory=list)      # open loop only
    own: list[float] = field(default_factory=list)       # client's own time
    kept: list[Kept] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    started: float = 0.0        # the phase on the clock, for span scopes
    ended: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "Sample") -> None:
        for name in ("reads", "whynots", "updates", "late", "own", "kept",
                     "failures"):
            getattr(self, name).extend(getattr(other, name))
        self.attempted += other.attempted

    def explained_per_s(self) -> float:
        """Explanations answered per second of the whole phase."""
        return sum(facts for _, facts, _ in self.reads) / (
            self.ended - self.started
        )


class Run:
    """Inputs, servers and results of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = "quick" if quick else (
            "L" if workload == "cold-start" else "S"
        )
        self.tmp = os.path.join(
            RESULTS, f"tmp-{os.getpid()}-{time.monotonic_ns()}"
        )
        self.servers: list[ServerProcess] = []
        self.recorder = spans.Recorder()
        self.total = Sample()
        self.ready_s: list[float] = []
        self.boots = 0
        self.checked = 0
        self.edge_retracted = False    # the mirror's view of the update edge
        self.snapshot_path = os.path.join(self.tmp, "snapshot.json")
        # Set with the inputs, by make_inputs():
        self.graph: gen.OwnershipGraph | None = None
        self.oracle: Oracle | None = None
        self.flipped: frozenset[str] = frozenset()   # facts the update flips
        self.ready_body = b""                        # the 256-fact batch
        self.cold_singles: list[str] = []

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Run":
        os.makedirs(self.tmp)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- set-up ---------------------------------------------------------
    def make_inputs(self) -> float:
        """Generate the graph and write its snapshot; seconds it took.
        Then, outside that time, build the oracle's mirror and check that
        it and the generator agree on what the graph entails."""
        started = time.perf_counter()
        graph = self.graph = gen.ownership_graph(self.size, self.seed)
        snapshot = dumps_database(loads_facts("\n".join(graph.facts)))
        with open(self.snapshot_path, "w", encoding="utf-8") as handle:
            handle.write(snapshot)
        made = time.perf_counter() - started

        self.oracle = Oracle(snapshot)
        if self.oracle.derived != frozenset(graph.derived):
            raise RuntimeError(
                f"the chase derived {len(self.oracle.derived)} control "
                f"pairs, the generator counted {graph.pairs}: they disagree "
                "on what the graph entails"
            )
        head = graph.update_probe[0]
        self.flipped = frozenset(
            text for text in graph.derived
            if text.startswith(f"Control({head}, ")
        )
        # The ready batch and the cold singles: evenly spaced through the
        # shallow-to-deep order, so every seed's are the same mix, and
        # disjoint, so the batch leaves the singles cold.  The singles are
        # sent in a seeded order, so that any stretch of them is that mix.
        chosen = spaced(graph.derived, READY_BATCH + COLD_SINGLES, self.seed)
        every = len(chosen) // READY_BATCH
        self.ready_body = _json({"queries": chosen[0::every]})
        self.cold_singles = [
            text for at, text in enumerate(chosen) if at % every
        ]
        random.Random(f"cold/{self.seed}").shuffle(self.cold_singles)
        return made

    def boot(self, traced: bool = False) -> tuple[ServerProcess, Connection]:
        """Spawn a server, wait for ``/healthz``, send the ready batch."""
        self.boots += 1
        op = f"boot-{self.boots}"
        server = ServerProcess(
            self.snapshot_path,
            os.path.join(self.tmp, f"server-{self.boots}.log"),
            trace_path=self.trace_path(self.boots) if traced else "",
            op=op,
        )
        self.servers.append(server)
        port = server.wait_ready()
        connection = Connection("127.0.0.1", port)
        status, health, _ = connection.get(b"/healthz")
        healthy = time.perf_counter()
        self.total.attempted += 1
        if status != 200:
            self.total.failures.append(f"/healthz answered {status}")
        server.healthy_after = healthy - server.spawned
        server.worker_boot_s = json.loads(health)["warm_start"]["warm_start_s"]
        status, served, _ = connection.post(b"/explain/batch", self.ready_body)
        self.ready_s.append(time.perf_counter() - server.spawned)
        self.total.attempted += 1
        self.total.kept.append(
            Kept(b"/explain/batch", self.ready_body, status, served)
        )
        if traced:
            self.recorder.add("bench", "boot", server.spawned, healthy, op=op)
        return server, connection

    def trace_path(self, boot: int) -> str:
        return os.path.join(self.tmp, f"spans-{boot}.jsonl")

    def stop(self, server: ServerProcess) -> int:
        """Stop ``server``; its peak resident set in KiB."""
        self.servers.remove(server)
        return server.stop()

    # -- traffic of one connection ---------------------------------------
    def cold_reads(self, connection: Connection) -> Sample:
        """cold-start's window: the first single explains a freshly
        booted server answers, none of them in its memo."""
        sample = Sample(started=time.perf_counter())
        before = scrape(connection) if self.trace else {}
        for text in self.cold_singles:
            body = _json({"query": text})
            sent = time.perf_counter()
            status, served, qid = connection.post(b"/explain", body)
            done = time.perf_counter()
            sample.attempted += 1
            if status == 200:
                sample.reads.append((done - sent, 1, sent))
            else:
                sample.failures.append(f"/explain answered {status}")
            sample.kept.append(Kept(b"/explain", body, status, served))
            self._span(sent, done, qid)
        sample.ended = time.perf_counter()
        if self.trace:
            after = scrape(connection)
            sample.counters = {
                name: after[name] - before[name] for name in after
            }
        return sample

    def _span(self, sent: float, done: float, qid: str) -> None:
        if self.trace:
            self.recorder.add("bench", "request", sent, done, op=qid or None)

    def send_update(self, connection: Connection, retract: bool,
                    sample: Sample) -> None:
        """live-update's ``/update`` of the ladder-head edge, then the read
        that shows it took: the flipped fact must answer 404 after a retract
        and 200 after an add, byte-equal to the mirror either way.

        The mirror applies the delta while the server works on its own
        (one session here, every worker there, so the mirror is done
        first).  In live-update the reads are stalled behind the update
        just then, so the mirror's CPU time hides inside the stall.
        """
        graph, oracle = self.graph, self.oracle
        assert graph is not None and oracle is not None
        key = "retracts" if retract else "adds"
        body = _json({key: [graph.update_edge]})
        sent = time.perf_counter()
        connection.send_post(b"/update", body)
        oracle.update(**{key: [graph.update_edge]})
        self.edge_retracted = retract
        status, served, qid = connection.read_response()
        done = time.perf_counter()
        sample.attempted += 1
        self._span(sent, done, qid)
        if status == 200:
            sample.updates.append((retract, done - sent))
        else:
            sample.failures.append(
                f"/update {key} answered {status} {served[:120]!r}"
            )
        probe = "Control(%s, %s)" % graph.update_probe
        read_body = _json({"query": probe})
        status, served, _ = connection.post(b"/explain", read_body)
        sample.attempted += 1
        expected = oracle.explain(probe)
        if status != (404 if retract else 200) or (
            (status, served) != expected
        ):
            sample.failures.append(
                f"stale read after {key}: {probe} answered {status}"
            )

    # -- verdict --------------------------------------------------------
    def verify(self) -> None:
        """Check every kept body against the mirror, edge in place (the
        state every kept read of an unflipped fact was answered in)."""
        assert self.oracle is not None and self.graph is not None
        if self.edge_retracted:
            self.oracle.update(adds=[self.graph.update_edge])
        verdict = self.oracle.verify(self.total.kept, self.flipped)
        self.total.failures.extend(verdict.misses)
        self.checked = verdict.checked


def _json(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def spaced(items: tuple[str, ...], count: int, seed: int) -> list[str]:
    """``count`` evenly spaced items, from a seeded offset."""
    step = len(items) / count
    offset = random.Random(f"spaced/{seed}").random() * step
    return [items[int(offset + i * step) % len(items)] for i in range(count)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Load clients
# ----------------------------------------------------------------------

class Client(threading.Thread):
    """One load connection; ``program`` yields (path, body, facts)."""

    def __init__(self, run: Run, port: int, index: int, program,
                 start: float, window: tuple[float, float],
                 rate_per_s: float = 0.0):
        super().__init__(name=f"bench-client-{index}", daemon=True)
        self.run_state = run
        self.port = port
        self.index = index
        self.program = program
        self.begin = start
        self.window = window
        self.rate_per_s = rate_per_s
        self.sample = Sample()
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            with Connection("127.0.0.1", self.port) as connection:
                self._loop(connection)
        except BaseException as error:     # reported by the main thread
            self.error = error

    def _loop(self, connection: Connection) -> None:
        sample, run = self.sample, self.run_state
        window_start, window_end = self.window
        keep_rng = random.Random(f"keep/{run.seed}/{self.index}")
        clock = time.perf_counter
        open_loop = self.rate_per_s > 0
        gap = CLIENTS / self.rate_per_s if open_loop else 0.0
        due = self.begin + (self.index / self.rate_per_s if open_loop else 0)
        ready = clock()
        for path, body, facts in self.program:
            if open_loop:
                if due >= window_end:
                    break
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                    ready = clock()
            elif ready >= window_end:
                break
            sent = clock()
            status, served, qid = connection.post(path, body)
            done = clock()
            origin = due if open_loop else sent
            # Open loop: every read due in the window counts, however
            # late its answer comes.  Closed loop: what fits the window.
            if window_start <= origin and (open_loop or done <= window_end):
                sample.attempted += 1
                sample.own.append(sent - ready)
                if open_loop:
                    sample.late.append(sent - due)
                if status != 200 and not (
                    status == 404 and _query(body) in run.flipped
                ):
                    sample.failures.append(
                        f"{path.decode()} answered {status}"
                    )
                elif path == b"/whynot":
                    sample.whynots.append((done - origin, origin))
                else:
                    sample.reads.append((done - origin, facts, origin))
                if keep_rng.random() * SAMPLE_ONE_IN < 1:
                    sample.kept.append(Kept(path, body, status, served))
                run._span(sent, done, qid)
            due += gap
            ready = done


def _query(body: bytes) -> str | None:
    return json.loads(body).get("query")


class Shared:
    """One program that several clients draw from, a request at a time."""

    def __init__(self, program):
        self.program = program
        self.lock = threading.Lock()

    def __iter__(self) -> "Shared":
        return self

    def __next__(self):
        with self.lock:
            return next(self.program)


def hot_programs(run: Run) -> list:
    """Single explains of a 64-fact hot set, ranks drawn Zipf(1.1), one
    stream of draws per client.

    The hot set is 64 evenly spaced positions of the shallow-to-deep
    order and a fixed permutation maps Zipf ranks to them, so the size of
    the body behind each rank is the same for every seed.
    """
    hot = spaced(run.graph.derived, HOT_SET, run.seed)
    by_rank = [
        _json({"query": hot[(rank * 37) % HOT_SET]})
        for rank in range(HOT_SET)
    ]
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(HOT_SET)]

    def program(index: int):
        draws = random.Random(f"hot/{run.seed}/{index}").choices(
            range(HOT_SET), weights, k=8192
        )
        while True:
            for rank in draws:
                yield b"/explain", by_rank[rank], 1

    return [program(index) for index in range(CLIENTS)]


def sweep_programs(run: Run) -> list:
    """One cyclic walk that both clients draw their next request from:
    every derived fact asked for with enhanced templates, in one seeded
    order, then every derived fact with plain ones, in another — a tool
    that goes through the whole graph, once per presentation setting.

    The program keys its memo by that flag, so the cycle has twice as
    many keys as there are derived facts, more than the memo holds, and
    between two lookups of one key lies every other key, whichever client
    sends what: every lookup misses.  Requests are batches of 16
    consecutive keys (fewer where a pass ends), singles and why-nots.
    """
    rng = random.Random(f"sweep/{run.seed}")
    passes = []
    for enhanced in (True, False):
        order = list(run.graph.derived)
        rng.shuffle(order)
        passes.append((enhanced, order))
    absent = gen.absent_pairs(run.graph, run.seed + 1)
    batch_share, single_share, _ = SWEEP_MIX

    def program():
        while True:
            for enhanced, order in passes:
                cursor = 0
                while cursor < len(order):
                    kind = rng.random()
                    if kind >= batch_share + single_share:
                        yield b"/whynot", _json({"query": next(absent)}), 0
                    elif kind >= batch_share:
                        yield b"/explain", _json({
                            "query": order[cursor],
                            "prefer_enhanced": enhanced,
                        }), 1
                        cursor += 1
                    else:
                        chosen = order[cursor:cursor + SWEEP_BATCH]
                        yield b"/explain/batch", _json({
                            "queries": chosen, "prefer_enhanced": enhanced,
                        }), len(chosen)
                        cursor += len(chosen)

    return [Shared(program())] * CLIENTS


def live_programs(run: Run) -> list:
    """Single explains, uniform over every derived fact."""
    derived = run.graph.derived

    def program(index: int):
        rng = random.Random(f"live/{run.seed}/{index}")
        while True:
            yield b"/explain", _json({"query": rng.choice(derived)}), 1

    return [program(index) for index in range(CLIENTS)]


class Writer(threading.Thread):
    """live-update: one ``/update`` a quarter into every period of the
    window, retract and add of the same edge in turn; one more add if the
    window ends on a retract, so that the edge is left in place."""

    def __init__(self, run: Run, port: int, window: tuple[float, float]):
        super().__init__(name="bench-writer", daemon=True)
        self.run_state = run
        self.port = port
        self.window = window
        self.sample = Sample()
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            with Connection("127.0.0.1", self.port) as connection:
                start, end = self.window
                due = start + LIVE_UPDATE_PERIOD_S / 4
                retract = True
                # Due a quarter into its period, an update is acknowledged
                # and its backlog drained before the period ends.
                while due < end:
                    time.sleep(max(0.0, due - time.perf_counter()))
                    self.run_state.send_update(
                        connection, retract, self.sample
                    )
                    retract = not retract
                    due += LIVE_UPDATE_PERIOD_S
                if not retract:
                    self.run_state.send_update(connection, False, self.sample)
        except BaseException as error:
            self.error = error


PROGRAMS = {
    "serve-hot": hot_programs,
    "serve-sweep": sweep_programs,
    "live-update": live_programs,
}


def drive(run: Run, port: int, seconds: float) -> Sample:
    """Warm up, then run the workload's traffic for ``seconds`` (on
    live-update, for the whole update periods that fit)."""
    if run.workload == "live-update" and seconds > LIVE_UPDATE_PERIOD_S:
        seconds -= seconds % LIVE_UPDATE_PERIOD_S
    begin = time.perf_counter() + 0.05
    window = (begin + WARMUP_S, begin + WARMUP_S + seconds)
    rate = LIVE_RATE_PER_S if run.workload == "live-update" else 0.0
    threads: list[threading.Thread] = [
        Client(run, port, index, program, begin, window, rate_per_s=rate)
        for index, program in enumerate(PROGRAMS[run.workload](run))
    ]
    if run.workload == "live-update":
        threads.append(Writer(run, port, window))
    scrape = None
    if run.trace:
        scrape = Scrape(port, window)
        threads.append(scrape)
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sample = Sample(started=window[0], ended=window[1])
    for thread in threads:
        if thread.error is not None:
            raise thread.error
        if thread is not scrape:
            sample.merge(thread.sample)
    if scrape is not None:
        sample.counters = scrape.delta()
    return sample


#: The counts the program keeps of its own memo and of its sheds, as
#: ``GET /metrics`` names them (read in traced runs only).
SCRAPED = {
    'repro_cache_region_hits{cache="explanation_cache",region="explain"}':
        "hits",
    'repro_cache_region_misses{cache="explanation_cache",region="explain"}':
        "misses",
    'repro_cache_evictions{cache="explanation_cache"}': "evictions",
    "repro_serve_shed_queue": "shed",
    "repro_serve_shed_breaker": "shed",
}


def scrape(connection: Connection) -> dict[str, float]:
    _, text, _ = connection.get(b"/metrics")
    counts = dict.fromkeys(SCRAPED.values(), 0.0)
    for line in text.decode("utf-8").splitlines():
        name, _, value = line.rpartition(" ")
        if name in SCRAPED:
            counts[SCRAPED[name]] += float(value)
    return counts


class Scrape(threading.Thread):
    """``GET /metrics`` at both edges of the window."""

    def __init__(self, port: int, window: tuple[float, float]):
        super().__init__(name="bench-scrape", daemon=True)
        self.port = port
        self.window = window
        self.edges: list[dict[str, float]] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            with Connection("127.0.0.1", self.port) as connection:
                for edge in self.window:
                    time.sleep(max(0.0, edge - time.perf_counter()))
                    self.edges.append(scrape(connection))
        except BaseException as error:
            self.error = error

    def delta(self) -> dict[str, float]:
        before, after = self.edges
        return {name: after[name] - before[name] for name in after}


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
#
# The box this was written on shares its host, and the host's noise only
# ever adds time: in bursts (a fixed 80 ms computation, repeated for ten
# minutes, took 64 to 221 ms; its median over any stretch from 2 to 60 s
# spread 22-24 %, quartile distance over median as the contract measures
# it, while its 10th percentile over 15 s spread 7 % and its minimum 3 %)
# and in phases of minutes during which nothing runs undisturbed
# (README.md, "Steadiness").  So each timing metric is its usual
# statistic — median, p95, rate, share within the limit — taken within
# every slice of the window, and the run reports the slices' 10th
# percentile from the better end: the run's quiet tenth.  The minimum
# would repeat still better on bursts, but it rewards the one slice whose
# requests happened to be cheap.  With ten slices or fewer it is the
# minimum all the same.  A slice is a quarter of a second, and on
# cold-start a twentieth of a second of the cold singles.  On live-update
# the quiet quarter-seconds are the ones between two writes, so there the
# share of reads within the limit — the metric that is about the stalls —
# is taken per update period instead: every period holds one stall and
# the reads queued behind it.  What failed is never sliced: it is in
# `failed`, and fails the run.  The pooled statistics are printed beside
# the metrics, not as metrics.

SLICE_S = 0.25
COLD_SLICE_S = 0.05
MIN_SLICE_READS = 8         # a slice with fewer is an edge; it is dropped

Read = tuple[float, int, float]


def slices(reads: list[Read], start: float, width: float) -> list[list[Read]]:
    """Cut reads into spans of ``width`` seconds counted from ``start``,
    each read filed under the moment it was sent (or due)."""
    cut: dict[int, list[Read]] = {}
    for read in reads:
        cut.setdefault(int((read[2] - start) / width), []).append(read)
    whole = [group for group in cut.values() if len(group) >= MIN_SLICE_READS]
    return whole or [reads]


def quiet(values, lower_is_better: bool = True) -> float:
    """The 10th percentile of ``values`` counted from the better end
    (nearest rank)."""
    if lower_is_better:
        return percentile(list(values), 0.10)
    return -percentile([-value for value in values], 0.10)


def rate(group: list[Read]) -> float:
    """Explanations per second, first send (or due) to last answer."""
    first = min(origin for _, _, origin in group)
    last = max(origin + latency for latency, _, origin in group)
    return sum(facts for _, facts, _ in group) / (last - first)


def within_limit(group: list[Read]) -> float:
    return sum(
        1 for latency, _, _ in group if latency * 1000.0 <= READ_LIMIT_MS
    ) / len(group)


def end_to_end(run: Run, window: Sample, setup_s: float,
               rss_kb: list[int]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of one run.  A window in which no read was
    answered is a failure, and its metrics read 0."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(rss_kb) / 1024.0, "MiB"),
    }
    if not window.reads:
        run.total.failures.append("no read was answered")
        return metrics | {
            "explained_per_s": (0.0, "1/s"), "request_p50_ms": (0.0, "ms"),
            "request_p95_ms": (0.0, "ms"),
            "reads_within_limit_share": (0.0, "ratio"),
        }
    groups = slices(
        window.reads, window.started,
        COLD_SLICE_S if run.workload == "cold-start" else SLICE_S,
    )
    latencies = [[latency for latency, _, _ in group] for group in groups]
    periods = groups if run.workload != "live-update" else slices(
        window.reads, window.started, LIVE_UPDATE_PERIOD_S
    )
    return metrics | {
        "explained_per_s": (quiet(map(rate, groups), False), "1/s"),
        "request_p50_ms": (
            quiet(map(statistics.median, latencies)) * 1000.0, "ms"),
        "request_p95_ms": (quiet(
            percentile(group, 0.95) for group in latencies
        ) * 1000.0, "ms"),
        "reads_within_limit_share": (
            quiet(map(within_limit, periods), False), "ratio"),
    }


def pooled(window: Sample) -> dict[str, object]:
    """The same statistics over every sample of the window, for the
    notes: what a user saw on this host, disturbances included."""

    def ms(values: list[float], q: float) -> float | None:
        return round(percentile(values, q) * 1000.0, 3) if values else None

    latencies = [latency for latency, _, _ in window.reads]
    whynots = [latency for latency, _ in window.whynots]
    updates = [latency for _, latency in window.updates]
    return {
        "reads": len(latencies),
        "pooled_explained_per_s": round(window.explained_per_s(), 1)
        if latencies else None,
        "pooled_request_p50_ms": ms(latencies, 0.5),
        "pooled_request_p95_ms": ms(latencies, 0.95),
        "pooled_request_p99_ms": ms(latencies, 0.99),
        "pooled_reads_within_limit_share": round(
            within_limit(window.reads), 4) if latencies else None,
        "whynots": len(whynots),
        "pooled_whynot_p50_ms": ms(whynots, 0.5),
        "updates": len(updates),
        "pooled_update_p50_ms": ms(updates, 0.5),
    }


# ----------------------------------------------------------------------
# The runs
# ----------------------------------------------------------------------

@dataclass
class Result:
    """What one run of one workload reports."""

    workload: str
    seed: int
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    notes: dict[str, object]
    tables: str = ""

    @property
    def correct(self) -> bool:
        return not self.failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> Result:
    """Run ``workload`` once: end-to-end metrics untraced, or the
    per-layer metrics of a traced server (never both from one server)."""
    with Run(workload, seed, seconds, trace, quick) as run:
        if trace:
            metrics, tables, window = _traced(run)
        else:
            measure = _cold_start if workload == "cold-start" else _serve
            (metrics, window), tables = measure(run), ""
        run.verify()
        graph, oracle = run.graph, run.oracle
        notes = {
            "size": run.size,
            "edb_facts": graph.edb_size,
            "companies": len(graph.companies),
            "derived_control_facts": graph.pairs,
            "proofs_of_12_steps_or_more": oracle.deep,
            "longest_proof_steps": oracle.proof_sizes[-1],
            "servers_booted": run.boots,
            "ready_s": [round(value, 3) for value in run.ready_s],
            "bodies_checked": run.checked,
            **pooled(window),
        }
        return Result(workload, seed, metrics, run.total.attempted,
                      run.total.failures, notes, tables)


def _serve(run: Run) -> tuple[dict[str, tuple[float, str]], Sample]:
    made = run.make_inputs()
    server, connection = run.boot()
    connection.close()
    window = drive(run, server.port, run.seconds)
    rss_kb = run.stop(server)
    run.total.merge(window)
    return end_to_end(
        run, window, made + server.healthy_after, [rss_kb]
    ), window


def _cold_iteration(
    run: Run, traced: bool = False
) -> tuple[Sample, int, ServerProcess]:
    """Boot, the ready batch, the cold reads, stop."""
    server, connection = run.boot(traced=traced)
    reads = run.cold_reads(connection)
    connection.close()
    run.total.merge(reads)
    return reads, run.stop(server), server


def _cold_start(run: Run) -> tuple[dict[str, tuple[float, str]], Sample]:
    made = run.make_inputs()
    began = time.perf_counter()
    window = Sample()       # .ended adds up the seconds spent reading
    rss_kb: list[int] = []
    healthy_after: list[float] = []
    while len(rss_kb) < COLD_BOOTS or (
        time.perf_counter() - began < run.seconds
    ):
        reads, rss, server = _cold_iteration(run)
        window.merge(reads)
        window.ended += reads.ended - reads.started
        rss_kb.append(rss)
        healthy_after.append(server.healthy_after)
    return end_to_end(
        run, window, made + statistics.median(healthy_after), rss_kb
    ), window


def _traced(run: Run) -> tuple[dict[str, tuple[float, str]], str, Sample]:
    """Half the seconds on a plain server, half on a traced one: the
    second gives the per-layer metrics, the two together what tracing
    costs.  ``cold-start`` boots one server of each kind instead."""
    import layers

    run.make_inputs()
    cold = run.workload == "cold-start"
    rates = []
    for traced in (False, True):
        run.trace = traced
        if cold:
            sample, _, server = _cold_iteration(run, traced)
            rates.append(1.0 / run.ready_s[-1])
        else:
            server, connection = run.boot(traced=traced)
            connection.close()
            sample = drive(run, server.port, run.seconds / 2)
            run.stop(server)
            rates.append(sample.explained_per_s())
            run.total.merge(sample)
    recorded = spans.read_spans(run.trace_path(run.boots))
    run.recorder.spans.extend(recorded)
    run.recorder.write(os.path.join(RESULTS, f"trace-{run.workload}.jsonl"))
    linked = spans.link(run.recorder.spans)
    boot_root = next(
        span for span in linked
        if span["layer"] == "bench" and span["name"] == "boot"
    )
    metrics, tables = layers.layer_metrics(
        linked, spans.self_times(linked),
        boot=(boot_root["start"], boot_root["end"]),
        window=(sample.started, sample.ended),
        sample=sample,
        worker_boot_s=server.worker_boot_s,
        ready_s=run.ready_s[0],
        rate_untraced=rates[0], rate_traced=rates[1],
    )
    return metrics, tables, sample
