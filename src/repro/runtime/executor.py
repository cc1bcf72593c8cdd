"""Trial executors: serial and multiprocessing-backed parallel runs.

The experiments in this repository are embarrassingly parallel: every
Monte-Carlo trial builds its own topology, draws its own channels, and
returns a small result.  A :class:`TrialExecutor` runs ``n`` such
trials and returns their results *in trial order* with per-trial
deterministic seeding:

* The master seed expands into per-trial ``numpy.random.SeedSequence``
  children (``SeedSequence(seed).spawn(n)``), so trial ``i`` sees the
  same random stream no matter which process runs it, in which chunk,
  or in what order — :class:`SerialExecutor` and
  :class:`ParallelExecutor` produce **identical** results for the same
  master seed.
* Per-trial exceptions are captured as :class:`TrialFailure` records
  under the ``fail_fast=False`` policy, or re-raised as
  :class:`TrialError` (with the original traceback text) under the
  default fail-fast policy.
* :class:`ParallelExecutor` dispatches chunks of trials to a
  ``multiprocessing`` pool, enforces a per-chunk timeout, and falls
  back to an in-process serial run when the pool cannot start (Pool
  creation failure, unpicklable trial function) — degraded throughput,
  never a crash, and identical results either way.

Trial functions have the signature ``fn(rng, index) -> value`` with
``rng`` a ``numpy.random.Generator``; use ``functools.partial`` over a
module-level function to bind experiment parameters (module-level
functions keep the callable picklable for the parallel path).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
import traceback as traceback_module
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.runtime.cache import all_cache_snapshots
from repro.runtime.metrics import MetricsRegistry

__all__ = [
    "TrialFailure",
    "TrialError",
    "WorkerTimeoutError",
    "TrialRun",
    "BatchTrial",
    "WorkloadShape",
    "ExecutionPolicy",
    "TrialExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "choose_batch_size",
    "resolve_policy",
    "spawn_trial_seeds",
]

#: Trial function type: ``fn(rng, index) -> value``.
TrialFn = Callable[[np.random.Generator, int], Any]

#: Batched trial function type: ``fn(rngs, indices) -> values`` with one
#: generator and one value per trial.
BatchTrialFn = Callable[
    [List[np.random.Generator], List[int]], Sequence[Any]
]


@dataclass(frozen=True)
class WorkloadShape:
    """What the executor needs to know about a batched engine workload.

    ``batch_size="auto"`` resolves through :func:`choose_batch_size`,
    which needs the shape of the per-trial engine call: the native CIR
    length, the template-bank size, and the upsampling factor (the three
    knobs that size the ``(B, n_templates, fft_length)`` batch scratch
    buffers).  A :class:`BatchTrial` that carries its workload shape
    opts in to auto batch sizing; one without it runs unbatched under
    ``"auto"``.
    """

    cir_length: int
    bank_size: int
    upsample_factor: int = 8

    def __post_init__(self) -> None:
        if self.cir_length < 1:
            raise ValueError(
                f"cir_length must be >= 1, got {self.cir_length}"
            )
        if self.bank_size < 1:
            raise ValueError(f"bank_size must be >= 1, got {self.bank_size}")
        if self.upsample_factor < 1:
            raise ValueError(
                f"upsample_factor must be >= 1, got {self.upsample_factor}"
            )


#: Scratch-memory ceiling for one batched engine pass (the
#: ``(B, n_templates, fft_length)`` complex product buffer plus its
#: inverse-transform output) used by :func:`choose_batch_size` when no
#: budget is passed.
MAX_BATCH_SCRATCH_BYTES = 256 * 1024 * 1024

#: Largest batch size :func:`choose_batch_size` will ever pick; beyond
#: this the FFT batching gains flatten while the scratch buffers keep
#: growing (see ``benchmarks/bench_detector.py``, B in {1, 8, 64}).
MAX_AUTO_BATCH = 64


def choose_batch_size(
    n_trials: int,
    cir_length: int,
    bank_size: int,
    workers: int = 1,
    *,
    upsample_factor: int = 8,
    memory_budget_bytes: int | None = None,
) -> int:
    """Pick a batch size from the workload shape (``batch_size="auto"``).

    The heuristic balances three pressures:

    * **Enough trials per group.**  Each worker sees roughly
      ``n_trials / workers`` trials; a batch larger than that degrades
      into one short group per worker and gains nothing.
    * **Bounded scratch memory.**  One batched pass materialises two
      ``(B, bank_size, ~2 * cir_length * upsample_factor)`` complex
      tensors (spectrum product + inverse-transform output); B is capped
      so they stay under ``memory_budget_bytes``.
    * **Diminishing returns.**  Past :data:`MAX_AUTO_BATCH` the
      forward/inverse transforms are already fully amortised
      (measured in ``BENCH_detector.json``), so larger batches only pay
      memory.

    The result is rounded down to a power of two so chunks split into
    even groups, and is always >= 1.  Determinism note: the choice
    depends only on the arguments — never on runtime load — so a run
    with ``batch_size="auto"`` is exactly reproducible (and, by the
    :class:`BatchTrial` equivalence contract, equals the
    ``batch_size=1`` run anyway).  ``memory_budget_bytes=None`` means
    :data:`MAX_BATCH_SCRATCH_BYTES`.
    """
    if n_trials <= 1 or cir_length < 1 or bank_size < 1:
        return 1
    if memory_budget_bytes is None:
        memory_budget_bytes = MAX_BATCH_SCRATCH_BYTES
    # Two complex (B, bank, padded-length) tensors; the padded FFT
    # length is ~2x the upsampled CIR length (next_fast_len of the full
    # linear-correlation support).
    bytes_per_trial = 2 * 16 * bank_size * 2 * cir_length * upsample_factor
    memory_cap = max(1, int(memory_budget_bytes // max(1, bytes_per_trial)))
    per_worker = max(1, n_trials // max(1, workers))
    batch = min(MAX_AUTO_BATCH, memory_cap, per_worker)
    # Round down to a power of two for even group splits.
    return 1 << (int(batch).bit_length() - 1)


@dataclass(frozen=True)
class BatchTrial:
    """A per-trial function paired with a batched equivalent.

    The batched form ``batch(rngs, indices)`` must return one value per
    trial, with entry ``k`` equal to what ``single(rngs[k], indices[k])``
    would have returned — the executors *assume* this equivalence, and
    the ported experiments prove it in
    ``tests/test_runtime_experiments.py`` by asserting ``batch_size=B``
    runs equal ``batch_size=1`` runs.

    Each trial still consumes its own seed child: the executor builds
    ``rngs[k] = np.random.default_rng(seed_child(indices[k]))`` before
    the batched call, so batching changes neither the random streams nor
    the results — only how many trials share one engine pass (e.g. one
    2-D FFT across the batch via :func:`repro.core.batch.detect_batch`).

    If the batched call raises (or returns the wrong number of values),
    the executor falls back to running the group's trials one at a time
    through ``single`` — counted under ``runtime.batch_fallbacks`` — so
    per-trial retry and ``fail_fast`` semantics are preserved exactly.

    Build instances from ``functools.partial`` over module-level
    functions to keep them picklable for the parallel path.

    ``workload`` (optional) describes the shape of the batched engine
    call (:class:`WorkloadShape`); carrying it opts the trial into
    ``batch_size="auto"`` resolution via :func:`choose_batch_size`.
    """

    single: TrialFn
    batch: BatchTrialFn
    workload: Optional[WorkloadShape] = None

    def __call__(self, rng: np.random.Generator, index: int) -> Any:
        return self.single(rng, index)

    def run_batch(
        self, rngs: List[np.random.Generator], indices: List[int]
    ) -> Sequence[Any]:
        return self.batch(rngs, indices)


@dataclass(frozen=True)
class TrialFailure:
    """One captured per-trial exception."""

    index: int
    error: str
    traceback: str


class TrialError(RuntimeError):
    """A trial failed under the fail-fast policy.

    Carries the failing trial's index and the formatted traceback from
    the process that ran it (which may not be this one).
    """

    def __init__(self, failure: TrialFailure) -> None:
        super().__init__(
            f"trial {failure.index} failed: {failure.error}\n"
            f"{failure.traceback}"
        )
        self.failure = failure

    def __reduce__(self):
        # Default exception pickling would re-call __init__ with the
        # formatted message instead of the TrialFailure, blowing up in
        # the pool's result-handler thread (which then hangs .get()).
        return (TrialError, (self.failure,))


class WorkerTimeoutError(RuntimeError):
    """A worker chunk exceeded the configured timeout."""


@dataclass
class TrialRun:
    """Results of one executor run.

    ``values`` holds the successful trials' return values in trial-index
    order (failed trials are absent); ``failures`` the captured
    exceptions, also in index order.
    """

    n_trials: int
    values: List[Any] = field(default_factory=list)
    failures: List[TrialFailure] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Set when a parallel run degraded to serial (why it did).
    fallback_reason: Optional[str] = None

    @property
    def n_ok(self) -> int:
        return len(self.values)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def trials_per_s(self) -> float:
        return self.n_trials / self.elapsed_s if self.elapsed_s > 0 else 0.0


@dataclass(frozen=True)
class ExecutionPolicy:
    """Executor behaviour knobs.

    Parameters
    ----------
    fail_fast:
        ``True`` (default): the first trial exception aborts the run as
        a :class:`TrialError`.  ``False``: exceptions become
        :class:`TrialFailure` records and the run continues.
    chunk_size:
        Trials per parallel task.  ``None`` auto-sizes to roughly four
        chunks per worker, balancing dispatch overhead against load
        balance.
    worker_timeout_s:
        Per-chunk result deadline for the parallel executor.
    fallback_to_serial:
        When ``True`` (default) the parallel executor degrades
        gracefully: it runs serially in-process if the pool cannot start
        or the trial function cannot be pickled, and re-dispatches *only
        the lost chunk* in-process when a worker chunk times out —
        results are identical by construction, only slower.
    max_trial_retries:
        Per-trial retry budget: a trial raising an exception is re-run
        up to this many extra times (with a fresh generator from the
        *same* seed child, so deterministic failures stay failures and
        results stay reproducible) before it counts as failed.
    retry_backoff_s / retry_backoff_factor:
        Exponential backoff between per-trial retries: attempt ``k``
        sleeps ``retry_backoff_s * retry_backoff_factor**k`` seconds of
        real time first.
    batch_size:
        Trials per batched engine call when the trial function is a
        :class:`BatchTrial`.  ``1`` (default) runs every trial through
        the per-trial path; ``B >= 2`` groups up to ``B`` consecutive
        trials of each chunk into one ``run_batch`` call.  The string
        ``"auto"`` defers the choice to :func:`choose_batch_size`, using
        the :class:`WorkloadShape` carried by the :class:`BatchTrial`
        (a trial without one runs unbatched).  Seeding is unchanged
        (trial ``i`` still consumes seed child ``i``), so results are
        identical for any batch size as long as the batched function
        matches its per-trial form.  Ignored for plain trial functions.
    """

    fail_fast: bool = True
    chunk_size: Optional[int] = None
    worker_timeout_s: float = 600.0
    fallback_to_serial: bool = True
    max_trial_retries: int = 0
    retry_backoff_s: float = 0.0
    retry_backoff_factor: float = 2.0
    batch_size: Union[int, str] = 1

    def __post_init__(self) -> None:
        if not self.worker_timeout_s > 0:
            raise ValueError(
                "worker_timeout_s must be positive, got "
                f"{self.worker_timeout_s}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1 (or None), got {self.chunk_size}"
            )
        if self.max_trial_retries < 0:
            raise ValueError(
                "max_trial_retries must be >= 0, got "
                f"{self.max_trial_retries}"
            )
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.retry_backoff_factor < 1.0:
            raise ValueError(
                "retry_backoff_factor must be >= 1, got "
                f"{self.retry_backoff_factor}"
            )
        if isinstance(self.batch_size, str):
            if self.batch_size != "auto":
                raise ValueError(
                    "batch_size must be an int >= 1 or the string "
                    f"'auto', got {self.batch_size!r}"
                )
        elif self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )


def resolve_policy(
    policy: "ExecutionPolicy",
    fn: TrialFn,
    n_trials: int,
    workers: int,
) -> "ExecutionPolicy":
    """Resolve ``batch_size="auto"`` into a concrete integer policy.

    Called once at the top of every executor run, so the dispatch
    machinery (chunk sizing, group iteration, worker entry points) only
    ever sees integer batch sizes.  An ``"auto"`` policy resolves via
    :func:`choose_batch_size` when ``fn`` is a :class:`BatchTrial`
    carrying a :class:`WorkloadShape`, and to ``1`` (unbatched)
    otherwise.  Concrete policies pass through unchanged.
    """
    if policy.batch_size != "auto":
        return policy
    if isinstance(fn, BatchTrial) and fn.workload is not None:
        shape = fn.workload
        batch = choose_batch_size(
            n_trials,
            shape.cir_length,
            shape.bank_size,
            workers,
            upsample_factor=shape.upsample_factor,
        )
    else:
        batch = 1
    return dataclasses.replace(policy, batch_size=batch)


def spawn_trial_seeds(seed, n_trials: int) -> List[np.random.SeedSequence]:
    """Per-trial seed sequences from a master seed.

    ``seed`` may be an ``int``, a sequence of ints, or an existing
    ``SeedSequence``.  Trial ``i`` always receives the same child, which
    is what makes serial and parallel runs interchangeable.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(n_trials)


def _run_one(
    fn: TrialFn,
    index: int,
    seed: np.random.SeedSequence,
    policy: Optional["ExecutionPolicy"] = None,
) -> Tuple[bool, Any, int]:
    """Run one trial; returns ``(ok, value-or-TrialFailure, retries)``.

    Each retry re-runs the trial with a *fresh* generator built from the
    same seed child: a deterministic exception fails every attempt
    (reported once the budget is spent) while transient failures recover
    — and a recovered trial is byte-identical to one that never failed,
    because the random stream restarts from the same child.
    """
    max_retries = policy.max_trial_retries if policy is not None else 0
    attempt = 0
    while True:
        try:
            return True, fn(np.random.default_rng(seed), index), attempt
        except Exception as error:  # noqa: BLE001 — captured by design
            if attempt >= max_retries:
                return False, TrialFailure(
                    index=index,
                    error=repr(error),
                    traceback=traceback_module.format_exc(),
                ), attempt
            assert policy is not None
            delay_s = policy.retry_backoff_s * (
                policy.retry_backoff_factor**attempt
            )
            if delay_s > 0:
                time.sleep(delay_s)
            attempt += 1


def _iter_groups(
    items: Sequence[Tuple[int, np.random.SeedSequence]], batch_size: int
):
    """Split a chunk's items into consecutive groups of ``batch_size``."""
    for start in range(0, len(items), batch_size):
        yield items[start:start + batch_size]


def _run_group(
    fn: TrialFn,
    group: Sequence[Tuple[int, np.random.SeedSequence]],
    policy: "ExecutionPolicy",
) -> Tuple[List[Tuple[int, bool, Any, int]], int, int]:
    """Run one group of ``(trial_index, seed)`` items.

    Returns ``(results, batches, batch_fallbacks)`` with each result a
    ``(trial_index, ok, value-or-TrialFailure, retries)`` tuple in group
    order.  A group takes the batched engine path when the policy asks
    for batching (``batch_size > 1``), the trial function is a
    :class:`BatchTrial`, and the group has at least two trials (a
    trailing singleton gains nothing from a B=1 engine pass).  Any
    exception from the batched call — or a wrong-length return —
    degrades the group to the per-trial path, preserving retry and
    failure-capture semantics exactly.
    """
    if (
        policy.batch_size > 1
        and isinstance(fn, BatchTrial)
        and len(group) > 1
    ):
        indices = [index for index, _ in group]
        rngs = [np.random.default_rng(seed) for _, seed in group]
        try:
            values = list(fn.run_batch(rngs, indices))
            if len(values) != len(group):
                raise ValueError(
                    f"run_batch returned {len(values)} values for "
                    f"{len(group)} trials"
                )
        except Exception:  # noqa: BLE001 — degrade, never lose trials
            fallback = 1
        else:
            return (
                [(i, True, v, 0) for i, v in zip(indices, values)],
                1,
                0,
            )
    else:
        fallback = 0
    results = []
    for index, seed in group:
        ok, payload, attempts = _run_one(fn, index, seed, policy)
        results.append((index, ok, payload, attempts))
    return results, 0, fallback


def _cache_delta(
    before: Dict[str, Tuple[int, int]],
    after: Dict[str, Tuple[int, int]],
) -> Dict[str, Tuple[int, int]]:
    """Per-cache ``(hits, misses)`` accumulated between two snapshots."""
    delta = {}
    for name, (hits, misses) in after.items():
        hits0, misses0 = before.get(name, (0, 0))
        if hits != hits0 or misses != misses0:
            delta[name] = (hits - hits0, misses - misses0)
    return delta


def _execute_chunk(
    fn: TrialFn,
    items: Sequence[Tuple[int, np.random.SeedSequence]],
    policy: "ExecutionPolicy",
) -> Tuple[
    List[Tuple[int, bool, Any]],
    Dict[str, Tuple[int, int]],
    float,
    int,
    Tuple[int, int],
]:
    """Worker entry point: run a chunk of ``(trial_index, seed)`` items.

    Items need not be contiguous (checkpoint resume dispatches only the
    missing indices).  Returns ``(entries, cache_delta, chunk_seconds,
    retries, (batches, batch_fallbacks))`` where each entry is
    ``(trial_index, ok, value-or-TrialFailure)``.  With
    ``policy.batch_size > 1`` and a :class:`BatchTrial` function, the
    chunk's trials run in groups through the batched engine path (see
    :func:`_run_group`).  Under ``fail_fast`` a failing trial raises
    :class:`TrialError`, which multiprocessing ships back to the parent.
    """
    started = time.perf_counter()
    cache_before = all_cache_snapshots()
    entries: List[Tuple[int, bool, Any]] = []
    retries = 0
    batches = 0
    batch_fallbacks = 0
    for group in _iter_groups(items, policy.batch_size):
        results, group_batches, group_fallbacks = _run_group(
            fn, group, policy
        )
        batches += group_batches
        batch_fallbacks += group_fallbacks
        for index, ok, payload, attempts in results:
            retries += attempts
            if not ok and policy.fail_fast:
                raise TrialError(payload)
            entries.append((index, ok, payload))
    delta = _cache_delta(cache_before, all_cache_snapshots())
    return (
        entries,
        delta,
        time.perf_counter() - started,
        retries,
        (batches, batch_fallbacks),
    )


def _record_cache_delta(
    metrics: MetricsRegistry, delta: Dict[str, Tuple[int, int]]
) -> None:
    for name, (hits, misses) in delta.items():
        metrics.counter(f"cache.{name}.hits").inc(hits)
        metrics.counter(f"cache.{name}.misses").inc(misses)


def _assemble(
    n_trials: int,
    entries: List[Tuple[int, bool, Any]],
    elapsed_s: float,
) -> TrialRun:
    """Order chunk entries by trial index and split values/failures."""
    entries = sorted(entries, key=lambda entry: entry[0])
    run = TrialRun(n_trials=n_trials, elapsed_s=elapsed_s)
    for _, ok, payload in entries:
        if ok:
            run.values.append(payload)
        else:
            run.failures.append(payload)
    return run


class TrialExecutor(ABC):
    """Runs ``n`` independently seeded trials of a trial function."""

    @abstractmethod
    def run(
        self,
        fn: TrialFn,
        n_trials: int,
        seed,
        metrics: Optional[MetricsRegistry] = None,
        *,
        indices: Optional[Sequence[int]] = None,
        checkpoint=None,
    ) -> TrialRun:
        """Execute ``fn`` for ``n_trials`` trials; results in index order.

        ``indices`` restricts execution to a subset of trial indices
        (seeding is unchanged: trial ``i`` still consumes seed child
        ``i`` of the full ``n_trials`` expansion) — the checkpoint
        resume path uses this to run only the missing trials.
        ``checkpoint`` is an optional
        :class:`~repro.runtime.checkpoint.CheckpointStore`; completed
        entries are persisted to it as the run progresses, so an
        interrupted run can resume.
        """

    def _start_run(
        self, n_trials: int, metrics: Optional[MetricsRegistry]
    ) -> MetricsRegistry:
        metrics = metrics if metrics is not None else MetricsRegistry()
        metrics.counter("runtime.trials").inc(n_trials)
        return metrics

    def _finish_run(self, metrics: MetricsRegistry, run: TrialRun) -> TrialRun:
        metrics.timer("runtime.wall_clock").record(run.elapsed_s)
        metrics.counter("runtime.trials_ok").inc(run.n_ok)
        metrics.counter("runtime.trials_failed").inc(run.n_failed)
        return run


class SerialExecutor(TrialExecutor):
    """In-process, one-at-a-time execution — the reference semantics."""

    def __init__(self, policy: ExecutionPolicy | None = None) -> None:
        self.policy = policy or ExecutionPolicy()

    def run(
        self,
        fn: TrialFn,
        n_trials: int,
        seed,
        metrics: Optional[MetricsRegistry] = None,
        *,
        indices: Optional[Sequence[int]] = None,
        checkpoint=None,
    ) -> TrialRun:
        metrics = self._start_run(n_trials, metrics)
        metrics.gauge("runtime.workers").set(1)
        policy = resolve_policy(self.policy, fn, n_trials, 1)
        metrics.gauge("runtime.batch_size").set(policy.batch_size)
        seeds = spawn_trial_seeds(seed, n_trials)
        work = (
            list(range(n_trials))
            if indices is None
            else sorted(int(i) for i in indices)
        )
        started = time.perf_counter()
        cache_before = all_cache_snapshots()
        entries: List[Tuple[int, bool, Any]] = []
        unflushed: List[Tuple[int, bool, Any]] = []
        items = [(index, seeds[index]) for index in work]
        try:
            for group in _iter_groups(items, policy.batch_size):
                results, batches, fallbacks = _run_group(
                    fn, group, policy
                )
                if batches:
                    metrics.counter("runtime.batches").inc(batches)
                if fallbacks:
                    metrics.counter("runtime.batch_fallbacks").inc(fallbacks)
                for index, ok, payload, attempts in results:
                    if attempts:
                        metrics.counter("runtime.trial_retries").inc(attempts)
                    if not ok and policy.fail_fast:
                        raise TrialError(payload)
                    entries.append((index, ok, payload))
                    if checkpoint is not None:
                        unflushed.append((index, ok, payload))
                        if len(unflushed) >= checkpoint.flush_every:
                            checkpoint.save_entries(unflushed)
                            unflushed = []
        finally:
            # Persist whatever completed, even when a trial raised —
            # a resumed run re-does only the missing indices.
            if checkpoint is not None and unflushed:
                checkpoint.save_entries(unflushed)
        _record_cache_delta(
            metrics, _cache_delta(cache_before, all_cache_snapshots())
        )
        run = _assemble(n_trials, entries, time.perf_counter() - started)
        return self._finish_run(metrics, run)


class ParallelExecutor(TrialExecutor):
    """Chunked dispatch of trials onto a ``multiprocessing`` pool.

    Determinism comes from the seeding scheme, not the schedule: chunks
    may complete in any order, but trial ``i`` always consumes seed
    child ``i`` and results are re-assembled in index order.
    """

    def __init__(
        self,
        workers: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or (os.cpu_count() or 1)
        self.policy = policy or ExecutionPolicy()

    # -- helpers ------------------------------------------------------------

    def _chunk_size(self, n_trials: int, policy: ExecutionPolicy) -> int:
        if policy.chunk_size is not None:
            return policy.chunk_size
        # ~4 chunks per worker: granular enough to balance uneven trial
        # costs, coarse enough to amortise dispatch overhead.
        size = max(1, -(-n_trials // (self.workers * 4)))
        if policy.batch_size > 1:
            # Round up to a whole number of batches so the batched
            # engine path sees full groups (a short group only at the
            # very end of each chunk's item list).
            size = -(-size // policy.batch_size) * policy.batch_size
        return size

    def _serial_fallback(
        self,
        fn: TrialFn,
        n_trials: int,
        seed,
        metrics: MetricsRegistry,
        reason: str,
        policy: Optional[ExecutionPolicy] = None,
        indices: Optional[Sequence[int]] = None,
        checkpoint=None,
    ) -> TrialRun:
        metrics.counter("runtime.serial_fallbacks").inc()
        metrics.gauge("runtime.workers").set(1)
        run = SerialExecutor(policy or self.policy).run(
            fn, n_trials, seed, metrics, indices=indices, checkpoint=checkpoint
        )
        # The serial executor already counted this run's trials; undo the
        # double count from our own _start_run.
        metrics.counter("runtime.trials").value -= n_trials
        run.fallback_reason = reason
        return run

    # -- execution ----------------------------------------------------------

    def run(
        self,
        fn: TrialFn,
        n_trials: int,
        seed,
        metrics: Optional[MetricsRegistry] = None,
        *,
        indices: Optional[Sequence[int]] = None,
        checkpoint=None,
    ) -> TrialRun:
        metrics = self._start_run(n_trials, metrics)
        metrics.gauge("runtime.workers").set(self.workers)
        policy = resolve_policy(self.policy, fn, n_trials, self.workers)
        metrics.gauge("runtime.batch_size").set(policy.batch_size)

        work = (
            list(range(n_trials))
            if indices is None
            else sorted(int(i) for i in indices)
        )
        if not work:
            return self._finish_run(metrics, TrialRun(n_trials=n_trials))

        # A trial function the pool cannot pickle would fail deep inside
        # the dispatch machinery; detect it up front and degrade.
        try:
            pickle.dumps(fn)
        except Exception as error:  # pickling errors vary by payload
            if policy.fallback_to_serial:
                return self._serial_fallback(
                    fn, n_trials, seed, metrics,
                    f"unpicklable fn: {error!r}",
                    policy=policy, indices=indices, checkpoint=checkpoint,
                )
            raise

        seeds = spawn_trial_seeds(seed, n_trials)
        items = [(index, seeds[index]) for index in work]
        chunk_size = self._chunk_size(len(items), policy)
        metrics.gauge("runtime.chunk_size").set(chunk_size)
        chunks = [
            items[start:start + chunk_size]
            for start in range(0, len(items), chunk_size)
        ]

        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            context = multiprocessing.get_context()

        started = time.perf_counter()
        cache_before = all_cache_snapshots()
        try:
            pool = context.Pool(processes=min(self.workers, len(chunks)))
        except Exception as error:  # pool refused to start (sandbox, limits)
            if policy.fallback_to_serial:
                return self._serial_fallback(
                    fn, n_trials, seed, metrics,
                    f"pool start failed: {error!r}",
                    policy=policy, indices=indices, checkpoint=checkpoint,
                )
            raise

        entries: List[Tuple[int, bool, Any]] = []
        redispatched = 0
        try:
            pending = [
                pool.apply_async(
                    _execute_chunk, (fn, chunk_items, policy)
                )
                for chunk_items in chunks
            ]
            pool.close()
            for chunk_items, result in zip(chunks, pending):
                try:
                    (
                        chunk_entries, delta, chunk_s, retries, batch_stats
                    ) = result.get(timeout=policy.worker_timeout_s)
                except multiprocessing.TimeoutError:
                    if not policy.fallback_to_serial:
                        pool.terminate()
                        raise WorkerTimeoutError(
                            f"a chunk of {len(chunk_items)} trial(s) "
                            f"exceeded the {policy.worker_timeout_s}s "
                            "worker timeout"
                        ) from None
                    # Worker crash/hang recovery: re-run ONLY the lost
                    # chunk in-process; the other chunks keep streaming
                    # from the pool (the hung worker's slot is written
                    # off).  Identical results by construction — the
                    # chunk's trials still consume their own seed
                    # children.
                    redispatched += 1
                    metrics.counter("runtime.chunk_redispatches").inc()
                    (
                        chunk_entries, delta, chunk_s, retries, batch_stats
                    ) = _execute_chunk(fn, chunk_items, policy)
                except TrialError:
                    pool.terminate()
                    raise
                entries.extend(chunk_entries)
                if checkpoint is not None:
                    checkpoint.save_entries(chunk_entries)
                _record_cache_delta(metrics, delta)
                if retries:
                    metrics.counter("runtime.trial_retries").inc(retries)
                if batch_stats[0]:
                    metrics.counter("runtime.batches").inc(batch_stats[0])
                if batch_stats[1]:
                    metrics.counter("runtime.batch_fallbacks").inc(
                        batch_stats[1]
                    )
                metrics.counter("runtime.chunks").inc()
                metrics.histogram("runtime.chunk_seconds").observe(chunk_s)
        finally:
            pool.terminate()
            pool.join()

        # The parent process may have warmed caches too (e.g. building a
        # reference artifact before dispatch).
        _record_cache_delta(
            metrics, _cache_delta(cache_before, all_cache_snapshots())
        )
        run = _assemble(n_trials, entries, time.perf_counter() - started)
        if redispatched:
            run.fallback_reason = (
                f"re-dispatched {redispatched} timed-out chunk(s) in-process"
            )
        return self._finish_run(metrics, run)
