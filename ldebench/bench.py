"""Set-up, memory and closed-loop replay measurements for one workload.

One client in one thread sends each keystroke only after the previous
decision came back (a closed loop).  Each `Engine.detect` call is timed on
its own; a fresh `EngineState` starts every session.  The garbage
collector is paused while calls are timed and run between batches, where
the outputs are also checked, so neither lands inside a timed call.
Timings are summarised over one cycle of the workload; see `Replay`.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import lde.pack
from lde import DetectionPath, Engine, EngineConfig

from . import ROOT, oracle
from .tracing import Tracer
from .workloads import Workload, generate

SETUP_REPEATS = 5  # at least this many loads, and at least SETUP_SECONDS of them
SETUP_SECONDS = 4.0
BATCH_CALLS = 2000  # detect calls between check-and-collect pauses
UNTRACED_SHARE = 1 / 3  # of a traced run's time, spent on the untraced baseline
PATHS = tuple(path.value for path in DetectionPath)
RESCUE_PATHS = ("typo_rescue", "fallback")  # the paths that try typo rescue
MB = 1024 * 1024
SEGMENT_NS = 20_000_000  # timed sessions between two host-speed readings
REFERENCE_REPEATS = 3  # reference loops per reading; the fastest counts
REFERENCE_NS = 80_000  # the reading that scaled times are expressed at
_REFERENCE_WORDS = ("kalimera", "bonjour", "grazie", "spasibo")
_REFERENCE_LOGP = {
    a + b: -1.0 - (i % 17) * 0.1
    for i, (a, b) in enumerate((a, b) for a in " abegijklmnoprsz" for b in " abegijklmnoprsz")
}


def _reference_loop() -> float:
    """Fixed interpreter work of the kinds lde does: edit-distance rows
    over short words, and bigram log-probabilities summed from a dict.
    Nothing in lde runs here, so no change to the detector alters its
    time; only the machine's speed does."""
    total = 0.0
    for word, other in zip(_REFERENCE_WORDS, _REFERENCE_WORDS[1:] + _REFERENCE_WORDS[:1]):
        m = len(other)
        row = list(range(m + 1))
        for ch in word:
            cur = [row[0] + 1]
            for j in range(1, m + 1):
                cost = 0 if other[j - 1] == ch else 1
                cur.append(min(row[j] + 1, cur[j - 1] + 1, row[j - 1] + cost))
            row = cur
        total += row[m]
        padded = f" {word} "
        for i in range(len(padded) - 1):
            total += _REFERENCE_LOGP.get(padded[i : i + 2], -5.0)
    return total


def _reference_ns() -> int:
    start = time.perf_counter_ns()
    _reference_loop()
    return time.perf_counter_ns() - start


def host_reading() -> int:
    """Ns the reference loop takes now: the machine's momentary speed."""
    return min(_reference_ns() for _ in range(REFERENCE_REPEATS))


def host_scale(before: int, after: int) -> float:
    """Factor that turns a time measured between two readings into the
    time it would take were the reference loop to take REFERENCE_NS.

    A shared machine switches between speeds nearly a factor of two
    apart, for milliseconds or for minutes.  Detect calls slow with the
    reference loop, so the factor cancels most of that, while a change
    in the detector's own work still shows in full.
    """
    return 2 * REFERENCE_NS / (before + after)


@dataclass
class Replay:
    """Timed passes over the workload's sessions, in host-speed-scaled ns.

    The replay cycles through the sessions until time runs out, so each
    session is timed once per cycle.  Other tenants of the machine change
    its speed by up to a factor of two, for milliseconds up to whole runs.
    Every pass is therefore scaled by the reference loop timed just before
    and after it (see `host_scale`).  Each session then keeps its median
    scaled pass, which drops passes hit by an interruption, and the
    timings come from one cycle assembled from those passes, so every
    call of the workload counts exactly once, whatever the program's
    speed.  A replay shorter than one cycle covers the sessions it reached.
    """

    timed: dict[int, list[tuple[int, list[int]]]] = field(default_factory=dict)
    # session -> (scaled loop ns, scaled per-call latencies) of each pass
    passes: int = 0  # session passes timed
    calls: int = 0  # detect calls timed, over every pass
    loop_ns: int = 0  # timed loop time, unscaled, over every pass
    readings: list[int] = field(default_factory=list)  # reference loop ns
    paths: Counter = field(default_factory=Counter)
    path_ns: Counter = field(default_factory=Counter)  # scaled detect time per path
    scored: int = 0
    right: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def keep(self, index: int, loop_ns: int, latencies: list[int]) -> None:
        self.passes += 1
        self.calls += len(latencies)
        self.timed.setdefault(index, []).append((loop_ns, latencies))

    def cycle(self) -> tuple[list[int], int]:
        """Latencies and loop ns of one cycle, each session at its median pass."""
        latencies, loop_ns = [], 0
        for passes in self.timed.values():
            ns, lat = sorted(passes, key=lambda p: p[0])[(len(passes) - 1) // 2]
            latencies.extend(lat)
            loop_ns += ns
        return latencies, loop_ns

    def per_s(self) -> float:
        latencies, loop_ns = self.cycle()
        return len(latencies) / (loop_ns / 1e9)

    def latency_ns(self, q: float) -> float:
        return percentile(sorted(self.cycle()[0]), q)


@dataclass
class Setup:
    engine: Engine
    # host-speed-scaled seconds, as `host_scale` gives them
    total_s: list[float]  # per repeat: read every pack plus Engine(...)
    init_s: list[float]  # per repeat: Engine(...) alone
    read_s: list[list[float]]  # per repeat, per pack


def load(workload: Workload) -> Setup:
    config = EngineConfig(languages=workload.languages)
    total, init, reads = [], [], []
    while len(total) < SETUP_REPEATS or sum(total) < SETUP_SECONDS:
        engine = None
        gc.collect()
        packs, times = [], []
        before = host_reading()
        start = time.perf_counter()
        for path in workload.pack_paths:
            t0 = time.perf_counter()
            packs.append(lde.pack.read_pack(path))
            times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        engine = Engine(packs, config)
        end = time.perf_counter()
        scale = host_scale(before, host_reading())
        total.append((end - start) * scale)
        init.append((end - t0) * scale)
        reads.append([t * scale for t in times])
    return Setup(engine, total, init, reads)


def held_memory(workload: Workload) -> tuple[float, list[float]]:
    """MB the loaded engine holds, and MB each pack holds, by tracemalloc."""
    config = EngineConfig(languages=workload.languages)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        packs, per_pack = [], []
        for path in workload.pack_paths:
            before = tracemalloc.get_traced_memory()[0]
            packs.append(lde.pack.read_pack(path))
            per_pack.append((tracemalloc.get_traced_memory()[0] - before) / MB)
        engine = Engine(packs, config)
        held = (tracemalloc.get_traced_memory()[0] - base) / MB
        del engine, packs
    finally:
        tracemalloc.stop()
    return held, per_pack


def replay(engine, workload, checker, seconds, tracer: Tracer | None = None) -> Replay:
    """Replay the sessions, cycling, until `seconds` of wall time pass.

    Sessions run in segments of about SEGMENT_NS, each between two host
    readings that scale its times.  Each cycle visits the sessions in a
    new shuffled order, so the passes of one session fall at unrelated
    moments, and runs pinned to the next CPU the process may use, so
    every session gets passes on each CPU.
    """
    sessions = workload.sessions
    out = Replay()
    detect = tracer.root(engine.detect) if tracer else engine.detect
    new_state = engine.new_state
    clock = time.perf_counter_ns
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    order = list(range(len(sessions)))
    shuffle = random.Random(0).shuffle
    batch: list[tuple] = []
    deadline = time.perf_counter() + seconds
    position = cycles = 0
    gc.disable()
    try:
        while True:
            if position == 0:
                shuffle(order)
                if len(cpus) > 1:
                    os.sched_setaffinity(0, {cpus[cycles % len(cpus)]})
                cycles += 1
            segment, calls = [], []
            before = host_reading()
            segment_end = clock() + SEGMENT_NS
            while True:
                index = order[position]
                latencies: list[int] = []
                session_start = clock()
                state = new_state()
                for raw, gold in sessions[index]:
                    start = clock()
                    try:
                        detection = detect(raw, state)
                    except Exception as exc:  # counted as a failed call
                        detection = exc
                    latencies.append(clock() - start)
                    calls.append((raw, gold, detection))
                segment.append((index, clock() - session_start, latencies))
                position = (position + 1) % len(order)
                if position == 0 or clock() >= segment_end:
                    break
            after = host_reading()
            out.readings += (before, after)
            scale = host_scale(before, after)
            scaled = []
            for index, ns, latencies in segment:
                out.loop_ns += ns
                latencies = [round(lat * scale) for lat in latencies]
                out.keep(index, round(ns * scale), latencies)
                scaled.extend(latencies)
            batch.extend((*call, ns) for call, ns in zip(calls, scaled, strict=True))
            done = time.perf_counter() >= deadline
            if len(batch) >= BATCH_CALLS or done:
                _check(batch, checker, out)
                batch.clear()
                if tracer:
                    tracer.fold()
                gc.collect()
            if done:
                return out
    finally:
        gc.enable()
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)


def _check(batch, checker, out: Replay) -> None:
    for raw, gold, detection, ns in batch:
        problem = checker.check(raw, detection)
        if problem:
            out.failed += 1
            if len(out.failures) < 5:
                out.failures.append(f"{raw!r}: {problem}")
            continue
        out.paths[detection.path.value] += 1
        out.path_ns[detection.path.value] += ns
        if gold is not None:
            out.scored += 1
            out.right += detection.language == gold


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


@dataclass
class Result:
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]  # metric name -> sample counts and context
    trace: dict | None = None


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        workload = generate(name, seed, Path(tmp))
        facts = {}
        for path in workload.pack_paths:
            pack = oracle.parse_pack(path.read_bytes())
            facts[pack.language] = pack
        pack_bytes = [path.stat().st_size for path in workload.pack_paths]
        gc.collect()
        gc.freeze()  # generated inputs stay alive; keep them out of every collection

        tracer = Tracer() if trace else None
        if tracer:
            with tracer.installed():
                setup = load(workload)
            tracer.fold()
        else:
            setup = load(workload)
        engine = setup.engine
        gc.collect()
        gc.freeze()
        engine_mb, pack_mb = held_memory(workload)
        checker = oracle.Checker(facts, engine.config)

        if not tracer:
            timed = replay(engine, workload, checker, seconds)
            result = _end_to_end(timed, setup, engine_mb, pack_bytes)
        else:
            plain = replay(engine, workload, checker, seconds * UNTRACED_SHARE)
            with tracer.installed():
                traced = replay(engine, workload, checker, seconds * (1 - UNTRACED_SHARE), tracer)
            result = _per_layer(plain, traced, tracer, setup, engine, pack_mb, pack_bytes)
        result.notes["checks"] = f"{checker.scores_checked} score vectors recomputed from pack bytes"
        return result


def _end_to_end(timed: Replay, setup: Setup, engine_mb: float, pack_bytes: list[int]) -> Result:
    n = timed.calls
    metrics = {
        "detect_p50_us": (timed.latency_ns(50) / 1000.0, "us"),
        "detect_p99_us": (timed.latency_ns(99) / 1000.0, "us"),
        "detect_per_s": (timed.per_s(), "1/s"),
        "accuracy": (timed.right / timed.scored if timed.scored else 0.0, "ratio"),
        "ok_ratio": (1.0 - timed.failed / n, "ratio"),
        "setup_s": (statistics.median(setup.total_s), "s"),
        "mem_mb": (engine_mb, "MB"),
        "pack_bytes": (float(sum(pack_bytes)), "bytes"),
    }
    cycle = (
        f"one cycle of {len(timed.cycle()[0])} calls, each of {len(timed.timed)} sessions "
        f"at its median of {timed.passes / len(timed.timed):.1f} passes; {n} calls timed"
    )
    notes = {
        "detect_p50_us": cycle,
        "detect_p99_us": cycle,
        "detect_per_s": f"{cycle}; {timed.loop_ns / 1e9:.3f} s of timed loop in all",
        "host": _host_note(timed.readings),
        "accuracy": f"{timed.right} of {timed.scored} scored calls",
        "ok_ratio": f"failed_ratio {timed.failed / n:.6g} ({timed.failed} of {n})",
        "setup_s": f"median of {len(setup.total_s)} loads",
        "mem_mb": "tracemalloc, separate load",
        "pack_bytes": f"{len(pack_bytes)} packs",
    }
    notes["paths"] = _path_mix(timed)
    return Result(n, timed.failed, timed.failures, metrics, notes)


def _host_note(readings: list[int]) -> str:
    q1, median, q3 = statistics.quantiles(readings, n=4)
    return (f"{len(readings)} reference readings, median {median / 1000:.0f} us, "
            f"quartiles {q1 / 1000:.0f}-{q3 / 1000:.0f} us; timings scaled to "
            f"{REFERENCE_NS / 1000:.0f} us")


def _path_mix(replay_: Replay) -> str:
    total = sum(replay_.paths.values()) or 1
    mix = ", ".join(f"{p} {100.0 * replay_.paths[p] / total:.2f}%" for p in PATHS)
    rescue = sum(replay_.paths[p] for p in RESCUE_PATHS) / total
    rescue_ns = sum(replay_.path_ns[p] for p in RESCUE_PATHS) / (sum(replay_.path_ns.values()) or 1)
    return (f"{mix}; rescue-attempting paths {100.0 * rescue:.2f}% of calls, "
            f"{100.0 * rescue_ns:.1f}% of detect time")


def _per_layer(plain, traced, tracer, setup, engine, pack_mb, pack_bytes) -> Result:
    layer = tracer.layer
    detects = layer("engine.detect").calls or 1
    paths = plain.paths + traced.paths
    total_paths = sum(paths.values()) or 1
    get, edit1 = layer("engine.cache_get"), layer("trie.edit1")
    n_packs = len(engine.packs)
    read_s = [statistics.median(times) for times in zip(*setup.read_s)]
    words = [len(pack.lexicon) for pack in engine.packs.values()]
    us, per, ratio = "us", "count", "ratio"
    metrics = {f"engine.path_share.{p}": (paths[p] / total_paths, ratio) for p in PATHS}
    metrics.update({
        "engine.cache_hit_ratio": (get.count / get.calls if get.calls else 0.0, ratio),
        "engine.cache_get_us": (get.mean_us(), us),
        "engine.strip_us": (layer("engine.strip").mean_us(), us),
        "engine.context_us": (layer("engine.context").mean_us(), us),
        "engine.score_context_us": (layer("engine.score_context").mean_us(), us),
        "engine.score_context_per_detect": (layer("engine.score_context").calls / detects, per),
        "engine.init_s": (statistics.median(setup.init_s), "s"),
        "ngram.sequence_log_prob_us": (layer("ngram.sequence_log_prob").mean_us(), us),
        "ngram.word_log_prob_calls_per_detect": (layer("ngram.word_log_prob").calls / detects, per),
        "ngram.chars_scored_per_detect": (layer("ngram.word_log_prob").count / detects, per),
        "selector.select_language_us": (layer("selector.select_language").mean_us(), us),
        "trie.contains_us": (layer("trie.contains").mean_us(), us),
        "trie.contains_calls_per_detect": (layer("trie.contains").calls / detects, per),
        "trie.edit1_us": (edit1.mean_us(), us),
        "trie.edit1_calls_per_detect": (edit1.calls / detects, per),
        "trie.edit1_hit_ratio": (edit1.count / edit1.calls if edit1.calls else 0.0, ratio),
        "pack.read_s": (sum(read_s) / n_packs, "s"),
        "pack.mem_mb": (sum(pack_mb) / n_packs, "MB"),
        "pack.bytes": (sum(pack_bytes) / n_packs, "bytes"),
        "pack.lexicon_words": (sum(words) / n_packs, per),
        "trace.overhead_ratio": (plain.per_s() / traced.per_s(), ratio),
    })
    notes = {
        "host": _host_note(plain.readings + traced.readings),
        "paths": f"untraced part: {_path_mix(plain)}",
        "trace.overhead_ratio": (
            f"untraced {plain.per_s():.1f}/s over {plain.calls} calls, "
            f"traced {traced.per_s():.1f}/s over {traced.calls} calls"
        ),
        "per_detect": f"{detects} traced detects",
    }
    trace = {
        "detects": detects,
        "untraced_per_s": plain.per_s(),
        "traced_per_s": traced.per_s(),
        "layers": {
            name: {
                "calls": t.calls,
                "total_us": t.total_ns / 1000.0,
                "self_us": t.self_ns / 1000.0,
                "self_us_per_detect": t.self_ns / 1000.0 / detects,
                "count": t.count,
            }
            for name, t in sorted(tracer.totals.items())
        },
        "packs": {
            lang: {
                "read_s": read_s[i],
                "mem_mb": pack_mb[i],
                "bytes": pack_bytes[i],
                "lexicon_words": words[i],
            }
            for i, lang in enumerate(engine.packs)
        },
        "span_fields": ["detect", "span", "parent", "name", "start_ns", "end_ns", "count"],
        "spans": tracer.kept,
    }
    attempted = plain.calls + traced.calls
    failed = plain.failed + traced.failed
    return Result(
        attempted, failed, plain.failures + traced.failures, metrics, notes, trace
    )
