"""Shard PDPs on supervised ``multiprocessing`` workers.

**Worker processes.**  :class:`ProcessShardPool` runs each shard's
indexed+cached PDP on a real ``multiprocessing`` worker: one process
per shard, a command/response queue pair per worker, routed requests
shipped in batches and evaluated by the worker's own
:class:`PolicyDecisionPoint` over a mirrored shard store.  Mutations
fan out synchronously through the shard-listener feed (the store
mutation does not return until every affected worker has applied and
acknowledged its shard-local operation), so worker caches invalidate
coherently; scatter requests are merged parent-side through the same
cached single-flight path as the in-process engine.  The pool is a
batch evaluator: a caller hands it whole batches through
``evaluate_many``, as ``benchmarks/bench_pdp_sharding.py`` does to
*measure* multi-core scale-out instead of assuming it via the makespan
model.  No served path reaches it: called once per request, its
parent's share alone costs more than evaluating in process
(``docs/performance.md``, *the pool is a batch evaluator*).

**Multi-driver protocol.**  The pool is safe to drive from many
threads at once.  Every command carries an integer *tag* its shard
hands out, every worker response echoes it, and each shard keeps its
own table of pending calls.  One dispatcher thread per worker
generation completes the call registered under each echoed tag, so two
drivers' interleaved batches can never be cross-matched; a response
whose tag is no longer registered (its caller timed out, or its worker
was retired) is dropped.  Each worker remains internally serial, like
a real one-process-per-shard deployment.

**One way out of service.**  A worker failure is *contained*, never
pool-fatal.  Whatever takes a worker out of service — its dispatcher
finding it dead, :meth:`ProcessShardPool.kill_worker`, a dropped or
rejected mirror, a rejected catch-up op, a failed respawn, a respawn
that lost the race with ``close()`` — calls ``_retire``: the shard is
marked ``down`` and its pending calls fail with a retryable
:class:`~repro.errors.ShardUnavailableError` before the caller goes
on.  So a mutation whose mirror was lost returns with its shard
already down, and no evaluation that starts after it reads the
replica that missed it.  The supervisor then rebuilds the worker,
after an exponential backoff, from authoritative parent state: a
snapshot of the shard's :class:`PolicyStore` replica (policies *with
their pinned global load sequences*) taken under the store's mutation
lock, plus a catch-up replay of every shard-level operation that
arrived meanwhile.  Mutations never block on a dead shard (they queue
for catch-up and return), and the rebuilt worker is bit-identical to
one that observed every event live.

Restarts are budgeted: at most ``MAX_RESTARTS`` within
``RESTART_WINDOW`` seconds; a shard that exhausts the budget is
declared **degraded** and stops being respawned (``revive()`` re-arms
it).  While a shard is down, restarting, or degraded, its traffic
follows the ``on_unavailable`` policy: ``"fallback"`` (the default)
answers parent-side from the same authoritative shard store, uncached
— decision-identical, each candidate read serialised behind the
store's mutation lock — while ``"error"`` surfaces the typed
:class:`~repro.errors.ShardUnavailableError` for clients to retry
(``retryable=False`` once degraded).  Healthy shards never notice:
their workers, dispatchers and caches are untouched by a neighbour's
crash-restart cycle.
"""

from __future__ import annotations

# Imported for its at-fork hooks, before any worker is forked: the
# executor module registers them on import, and an import that lands
# while a restart thread is forking runs the after-fork release of the
# executor's global lock without the before-fork acquire, releasing the
# lock under a thread that holds it ("release unlocked lock").
import concurrent.futures.thread  # noqa: F401
import logging
import multiprocessing
import queue as pyqueue
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PolicyStoreError, ShardUnavailableError
from repro.xacml.pdp import DEFAULT_CACHE_SIZE, PolicyDecisionPoint, decide
from repro.xacml.policy import Policy
from repro.xacml.request import Request
from repro.xacml.sharding.pdp import ShardRouter
from repro.xacml.sharding.store import ShardedPolicyStore
from repro.xacml.store import PolicyStore

logger = logging.getLogger(__name__)


def _shard_worker_main(
    shard_id: int,
    combining: str,
    cache_size: int,
    initial: Sequence[Tuple[Policy, int]],
    commands,
    results,
) -> None:
    """One shard's worker loop: a mirrored store + indexed/cached PDP.

    Runs in a child process.  Every command (except ``stop``) is a tuple
    ``(op, tag, *args)`` and produces exactly one message on *results* —
    ``("result", tag, payload)`` or ``("error", tag, detail)`` — so the
    parent's dispatcher can match responses to callers by tag no matter
    how many driver threads interleave commands.  Mutations replay the
    parent's shard-level feed, so the worker's store — and therefore its
    PDP's index and decision cache — tracks the parent shard exactly.
    """
    store = PolicyStore()
    for policy, sequence in initial:
        store.load(policy, sequence=sequence)
    pdp = PolicyDecisionPoint(store, combining, cache_size=cache_size)
    while True:
        message = commands.get()
        op = message[0]
        if op == "stop":
            break
        tag = message[1]
        try:
            if op == "eval":
                results.put(
                    ("result", tag, [pdp.evaluate(r) for r in message[2]])
                )
            elif op == "load":
                _, _, policy, sequence = message
                store.load(policy, sequence=sequence)
                results.put(("result", tag, policy.policy_id))
            elif op == "update":
                store.update(message[2])
                results.put(("result", tag, message[2].policy_id))
            elif op == "remove":
                store.remove(message[2])
                results.put(("result", tag, message[2]))
            elif op == "flush":
                pdp.flush_cache()
                results.put(("result", tag, None))
            elif op == "stats":
                results.put(("result", tag, pdp.cache_stats()))
            else:
                results.put(("error", tag, f"unknown opcode {op!r}"))
        except Exception as error:  # surface, don't kill the worker
            results.put(("error", tag, f"{type(error).__name__}: {error}"))


class _PendingCall:
    """One tagged command awaiting its worker response."""

    __slots__ = ("shard_id", "tag", "event", "value", "error")

    def __init__(self, shard_id: int, tag: int):
        self.shard_id = shard_id
        self.tag = tag
        self.event = threading.Event()
        self.value = None
        self.error: Optional[BaseException] = None

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()

    def wait(self, timeout: float):
        """Block for the response; raises on worker error or timeout."""
        if not self.event.wait(timeout):
            raise PolicyStoreError(
                f"shard worker {self.shard_id} did not respond"
            )
        if self.error is not None:
            raise self.error
        return self.value


class _ShardRuntime:
    """One shard's live worker generation, owned by the supervisor.

    Every spawn gets *fresh* command/result queues and a fresh
    dispatcher thread, so stale messages from a dead generation can
    never be matched against the next one.  ``lock`` guards every
    field, the pending calls included.
    """

    __slots__ = (
        "shard_id", "process", "commands", "results", "dispatcher", "status",
        "restarts", "restart_times", "catchup", "pending", "next_tag", "lock",
        "last_error", "restart_thread",
    )

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        #: The live generation's process; ``None`` while a restart
        #: is between its snapshot and its spawn.
        self.process = None  # guarded by: self.lock
        self.commands = None  # guarded by: self.lock
        self.results = None  # guarded by: self.lock
        self.dispatcher: Optional[threading.Thread] = None  # guarded by: self.lock
        #: ``"up"`` | ``"down"`` | ``"restarting"`` | ``"degraded"``.
        self.status = "up"  # guarded by: self.lock
        #: Completed (successful) restarts of this shard's worker.
        self.restarts = 0  # guarded by: self.lock
        #: Monotonic stamps of restart attempts inside the budget window.
        self.restart_times: List[float] = []  # guarded by: self.lock
        #: Shard ops that arrived while not ``up``: ``(op, payload,
        #: sequence)`` in arrival order, replayed before readmission.
        self.catchup: List[Tuple[str, object, Optional[int]]] = []  # guarded by: self.lock
        #: Commands in flight on this shard, keyed by their tag.
        self.pending: Dict[int, _PendingCall] = {}  # guarded by: self.lock
        self.next_tag = 0  # guarded by: self.lock
        self.lock = threading.Lock()
        self.last_error: Optional[str] = None  # guarded by: self.lock
        self.restart_thread: Optional[threading.Thread] = None  # guarded by: self.lock


class ProcessShardPool(ShardRouter):
    """Shard PDPs on real ``multiprocessing`` workers, supervised.

    One process per shard, each running the worker loop above; routed
    requests ship to the owning worker (batched through
    :meth:`evaluate_many` so queue/pickle overhead amortises), scatter
    requests merge parent-side through the shared cached single-flight
    path.  Mutating the attached :class:`ShardedPolicyStore` fans the
    shard-level operations out synchronously — the mutation returns
    only after every affected *live* worker acknowledged, or after the
    worker that could not was retired, so no later evaluation can
    observe a pre-mutation worker cache.

    Safe to drive from many threads at once, and a worker death is
    contained to its shard — the module docstring gives the tagged
    *multi-driver protocol*, the one way out of service and the
    ``on_unavailable`` traffic policy.  Use as a context manager or
    call :meth:`close`.
    """

    #: Seconds a caller waits for one worker response.  A timeout
    #: unregisters the call's tag and raises; it does not retire the
    #: worker.
    RESPONSE_TIMEOUT = 120.0

    #: Dispatcher poll interval — the cadence at which a dispatcher
    #: notices a stop request or a worker process that died by itself.
    POLL_INTERVAL = 0.1

    #: Requests per ``eval`` command — one pickle and one queue hop
    #: amortised over this many evaluations.
    BATCH_SIZE = 256

    #: The restart budget: at most this many attempts per shard within
    #: ``RESTART_WINDOW`` seconds, or the shard is declared degraded.
    MAX_RESTARTS = 5
    RESTART_WINDOW = 60.0

    #: Seconds before restart attempt *k* inside the window:
    #: ``min(RESTART_BACKOFF * 2 ** (k - 1), RESTART_BACKOFF_CAP)``.
    RESTART_BACKOFF = 0.05
    RESTART_BACKOFF_CAP = 2.0

    def __init__(
        self,
        store: ShardedPolicyStore,
        combining: str = "first-applicable",
        cache_size: int = DEFAULT_CACHE_SIZE,
        on_unavailable: str = "fallback",
        fault_injector=None,
    ):
        if on_unavailable not in ("fallback", "error"):
            raise PolicyStoreError(
                f"on_unavailable must be 'fallback' or 'error', "
                f"not {on_unavailable!r}"
            )
        super().__init__(store, combining, cache_size)
        self._cache_size = cache_size
        self.on_unavailable = on_unavailable
        self._injector = fault_injector
        # fork skips re-pickling the initial policy population and is
        # the cheapest start on the platforms CI runs on.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        #: Requests answered by the parent-side fallback while
        #: their shard was unavailable (counted into *routed* too, so
        #: ``evaluations == routed + scattered`` holds regardless).
        self.fallback_evaluations = 0  # guarded by: self._counter_lock
        #: Chunks refused with ShardUnavailableError (``"error"`` mode).
        self.unavailable_errors = 0  # guarded by: self._counter_lock
        #: Successful supervised worker restarts, pool-wide.
        self.worker_restarts = 0  # guarded by: self._counter_lock
        #: Set once, by :meth:`close`; interrupts any restart backoff.
        self._shutdown = threading.Event()
        self._runtimes = [
            _ShardRuntime(shard_id) for shard_id in range(store.n_shards)
        ]
        for runtime in self._runtimes:
            self._launch(runtime, store.snapshot_shard(runtime.shard_id))
        store.add_shard_listener(self._on_shard_op)

    # -- lifecycle --------------------------------------------------------------

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker and detach from the store (idempotent,
        safe under concurrent double-close).

        Pending calls of every driver are failed (never left hanging),
        so concurrent drivers observe a closed pool as a prompt
        :class:`~repro.errors.PolicyStoreError`, not a timeout.
        Supervisor restart threads are interrupted mid-backoff and
        joined; a worker respawned in the race window is retired by
        its own restart thread, so no process outlives the pool.
        """
        with self._counter_lock:
            if self._shutdown.is_set():
                return
            self._shutdown.set()
        self.store.remove_shard_listener(self._on_shard_op)
        self.scatter.detach()
        for runtime in self._runtimes:
            with runtime.lock:
                pending, runtime.pending = runtime.pending, {}
            for call in pending.values():
                call.fail(PolicyStoreError("the shard pool is closed"))
        current = threading.current_thread()
        for runtime in self._runtimes:
            with runtime.lock:
                commands, results = runtime.commands, runtime.results
                process = runtime.process
                dispatcher = runtime.dispatcher
                restart_thread = runtime.restart_thread
            if commands is not None:
                try:
                    commands.put(("stop",))
                except (ValueError, OSError):
                    pass
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
            for thread in (dispatcher, restart_thread):
                if thread is not None and thread is not current:
                    thread.join(timeout=5.0)
            for q in (commands, results):
                if q is None:
                    continue
                q.close()
                # The queues die with the pool; don't let their feeder
                # threads block interpreter shutdown on unflushed
                # buffers.
                q.cancel_join_thread()

    detach = close  # the teardown name every evaluator answers to

    # -- worker lifecycle -------------------------------------------------------

    def _launch(self, runtime: _ShardRuntime, initial):
        """Spawn one worker generation — process, queues, dispatcher —
        and return its process."""
        commands, results = self._ctx.Queue(), self._ctx.Queue()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                runtime.shard_id, self._combining, self._cache_size,
                initial, commands, results,
            ),
            daemon=True,
            name=f"pdp-shard-{runtime.shard_id}",
        )
        process.start()
        dispatcher = threading.Thread(
            target=self._dispatch_loop,
            args=(runtime, process, results),
            daemon=True,
            name=f"pdp-shard-dispatch-{runtime.shard_id}",
        )
        with runtime.lock:
            runtime.process = process
            runtime.commands = commands
            runtime.results = results
            runtime.dispatcher = dispatcher
        dispatcher.start()
        return process

    def _retire(self, runtime: _ShardRuntime, process, reason: str) -> None:
        """Take *process*'s generation out of service: the one way a
        shard leaves ``up`` or ``restarting``.

        Marks the shard ``down`` and takes its pending calls in one
        critical section, then fails those calls with the retryable
        typed error, terminates the process and, for a shard that was
        ``up``, schedules the supervised restart.  Out of
        ``restarting`` the restart thread reschedules itself.  A
        generation that is no longer the live one (a stale dispatcher
        after a rebuild) or a shard already out of service is left
        alone.
        """
        with runtime.lock:
            if runtime.process is not process or runtime.status not in (
                "up", "restarting"
            ):
                return
            schedule = runtime.status == "up"
            runtime.status = "down"
            runtime.last_error = reason
            pending, runtime.pending = runtime.pending, {}
        logger.warning("shard %d worker retired: %s", runtime.shard_id, reason)
        for call in pending.values():
            call.fail(ShardUnavailableError(runtime.shard_id, reason))
        if process is not None:
            process.terminate()
        if schedule:
            self._schedule_restart(runtime)

    def _schedule_restart(self, runtime: _ShardRuntime) -> None:
        """Arm one restart attempt, or declare the shard degraded.

        The budget is sliding-window: attempts older than
        ``RESTART_WINDOW`` seconds no longer count.  Backoff doubles
        per attempt within the window, capped at
        ``RESTART_BACKOFF_CAP``.
        """
        now = time.monotonic()
        with runtime.lock:
            if self._shutdown.is_set() or runtime.status != "down":
                return
            runtime.restart_times = [
                stamp for stamp in runtime.restart_times
                if now - stamp < self.RESTART_WINDOW
            ]
            attempt = len(runtime.restart_times) + 1
            if attempt > self.MAX_RESTARTS:
                runtime.status = "degraded"
                # The parent store is authoritative and the fallback
                # reads it live; queued catch-up is obsolete the moment
                # nothing will replay it.
                runtime.catchup.clear()
            else:
                runtime.restart_times.append(now)
        if attempt > self.MAX_RESTARTS:
            logger.error(
                "shard %d exhausted its restart budget (%d in %.1fs); "
                "declared degraded (%s traffic policy)",
                runtime.shard_id, self.MAX_RESTARTS, self.RESTART_WINDOW,
                self.on_unavailable,
            )
        else:
            self._start_restart(runtime, min(
                self.RESTART_BACKOFF * 2 ** (attempt - 1),
                self.RESTART_BACKOFF_CAP,
            ))

    def _start_restart(self, runtime: _ShardRuntime, backoff: float) -> None:
        """Run one restart attempt on its own thread after *backoff*."""
        thread = threading.Thread(
            target=self._restart_worker,
            args=(runtime, backoff),
            daemon=True,
            name=f"pdp-shard-supervise-{runtime.shard_id}",
        )
        with runtime.lock:
            runtime.restart_thread = thread
        thread.start()

    def _restart_worker(self, runtime: _ShardRuntime, backoff: float) -> None:
        """One supervised restart attempt (runs on its own thread).

        Backoff → consistent snapshot → fresh worker generation →
        catch-up replay → readmission.  The snapshot and the switch to
        ``restarting`` (which ends catch-up *queueing* for ops already
        in the snapshot) happen atomically under the store's mutation
        lock, so the snapshot plus the queued catch-up ops is exactly
        the shard's authoritative history — nothing lost, nothing
        applied twice.  Every failure retires this attempt's
        generation and arms the next attempt.
        """
        if self._shutdown.wait(backoff):
            return

        def mark_restarting() -> None:
            with runtime.lock:
                runtime.catchup.clear()
                runtime.status = "restarting"
                stale = (runtime.commands, runtime.results)
                # The generation being spawned has no process yet.
                runtime.process = runtime.commands = runtime.results = None
            # The dead generation's queues go with it; late stale
            # messages died with its dispatcher.
            for q in stale:
                if q is not None:
                    q.close()
                    q.cancel_join_thread()

        try:
            initial = self.store.snapshot_shard(
                runtime.shard_id, and_then=mark_restarting
            )
        except Exception:
            logger.exception(
                "shard %d restart aborted: snapshot failed", runtime.shard_id
            )
            return
        try:
            process = self._launch(runtime, initial)
        except Exception as error:
            with runtime.lock:
                process = runtime.process
            self._retire(runtime, process, f"respawn failed: {error}")
            self._schedule_restart(runtime)
            return
        if self._shutdown.is_set():
            # Lost the race with close(): it may have joined the old
            # process; this generation is ours to reap.
            self._retire(runtime, process, "the shard pool is closed")
            return
        # Catch-up replay: drain ops that arrived while down, then
        # readmit.  New ops may keep arriving (queued under the store
        # mutation lock) while we drain — the loop runs until the queue
        # is observed empty under the runtime lock.
        while True:
            with runtime.lock:
                if runtime.status == "down":
                    break  # the fresh worker was retired already
                if not runtime.catchup:
                    runtime.status = "up"
                    runtime.restarts += 1
                    with self._counter_lock:
                        self.worker_restarts += 1
                    logger.info(
                        "shard %d worker restarted (%d policies replayed, "
                        "restart #%d)",
                        runtime.shard_id, len(initial), runtime.restarts,
                    )
                    return
                op, payload, sequence = runtime.catchup.pop(0)
            try:
                self._replicate(
                    runtime.shard_id, op, payload, sequence, during_restart=True
                )
            except ShardUnavailableError:
                break  # retired mid catch-up
            except PolicyStoreError as error:
                # The fresh replica rejected an authoritative op (or the
                # pool closed under it): it cannot be trusted.
                self._retire(runtime, process, f"catch-up {op} failed: {error}")
                break
        self._schedule_restart(runtime)

    def kill_worker(self, shard_id: int, reason: str = "killed") -> None:
        """Retire one shard's live worker (chaos aid), exactly as the
        supervisor retires a worker that crashed by itself."""
        runtime = self._runtimes[shard_id]
        with runtime.lock:
            process = runtime.process
        if process is not None:
            self._retire(runtime, process, reason)

    def revive(self, shard_id: int) -> None:
        """Re-arm a degraded shard: reset its budget and restart it.

        The revive itself is one explicit restart attempt outside the
        budget (so a ``MAX_RESTARTS = 0`` pool can still be revived by
        an operator); if the revived worker dies again, the
        sliding-window budget applies afresh.
        """
        runtime = self._runtimes[shard_id]
        with runtime.lock:
            if self._shutdown.is_set():
                raise PolicyStoreError("the shard pool is closed")
            if runtime.status != "degraded":
                raise PolicyStoreError(
                    f"shard {shard_id} is {runtime.status}, not degraded"
                )
            runtime.status = "restarting"
            runtime.restart_times = []
        self._start_restart(runtime, 0.0)

    # -- worker protocol --------------------------------------------------------

    def _unavailable(self, runtime: _ShardRuntime) -> ShardUnavailableError:
        """The typed error for *runtime*'s current (non-up) status.
        Callers hold ``runtime.lock``."""
        degraded = runtime.status == "degraded"
        return ShardUnavailableError(
            runtime.shard_id,
            runtime.last_error or f"worker is {runtime.status}",
            retryable=not degraded,
            degraded=degraded,
        )

    def _submit(
        self, shard_id: int, op: str, *args, during_restart: bool = False
    ) -> _PendingCall:
        """Register a pending call and ship its tagged command.

        The admission check, the tag and the registration happen under
        the runtime lock, so a call can never be registered against a
        generation that was already retired: :meth:`_retire` flips
        ``status`` and takes the pending calls under the same lock.
        """
        runtime = self._runtimes[shard_id]
        with runtime.lock:
            if self._shutdown.is_set():
                raise PolicyStoreError("the shard pool is closed")
            admissible = ("up", "restarting") if during_restart else ("up",)
            if runtime.status not in admissible:
                raise self._unavailable(runtime)
            call = _PendingCall(shard_id, runtime.next_tag)
            runtime.next_tag += 1
            runtime.pending[call.tag] = call
            commands = runtime.commands
        if self._injector is not None:
            self._injector.on_command(self, shard_id, op)
            if call.event.is_set():
                return call  # the injector retired this generation
        try:
            commands.put((op, call.tag, *args))
        except BaseException:
            with runtime.lock:
                runtime.pending.pop(call.tag, None)
            raise
        return call

    def _await(self, call: _PendingCall):
        """Wait out one pending call; a timed-out tag is unregistered so
        the dispatcher drops its late response instead of completing a
        call nobody is waiting on."""
        try:
            return call.wait(self.RESPONSE_TIMEOUT)
        except PolicyStoreError:
            runtime = self._runtimes[call.shard_id]
            with runtime.lock:
                runtime.pending.pop(call.tag, None)
            raise

    def _replicate(
        self, shard_id: int, op: str, payload, sequence, during_restart: bool = False
    ) -> None:
        """Apply one shard-level store op on the worker and wait for
        its acknowledgement.  ``load`` carries the policy and its
        pinned sequence, ``update`` the policy, ``remove`` the id."""
        args = (payload, sequence) if op == "load" else (payload,)
        self._await(
            self._submit(shard_id, op, *args, during_restart=during_restart)
        )

    def _dispatch_loop(self, runtime: _ShardRuntime, process, results) -> None:
        """One worker generation's dispatcher: route responses to their
        pending tag.

        Also the liveness monitor for its generation — a worker that
        died without responding is retired within a poll interval, so
        no driver ever waits out the full response timeout on a queue
        that cannot fill.  The dispatcher dies with its generation; the
        restart spawns a fresh one.
        """
        shard_id = runtime.shard_id
        while True:
            try:
                message = results.get(timeout=self.POLL_INTERVAL)
            except pyqueue.Empty:
                if self._shutdown.is_set():
                    return
                if not process.is_alive():
                    self._retire(
                        runtime,
                        process,
                        f"shard worker {shard_id} died "
                        f"(exit code {process.exitcode})",
                    )
                    return
                continue
            except (OSError, ValueError, EOFError):
                return  # queue torn down under us: generation replaced
            kind, tag, payload = message
            with runtime.lock:
                call = runtime.pending.pop(tag, None)
            if call is None:
                continue  # caller gave up on this tag; drop the response
            if kind == "error":
                call.fail(PolicyStoreError(
                    f"shard worker {shard_id} failed on {tag!r}: {payload}"
                ))
            else:
                call.value = payload
                call.event.set()

    def _on_shard_op(self, shard_id: int, op: str, payload, sequence) -> None:
        """Mirror one shard-level store operation into its worker.

        Runs under the store's mutation lock.  A shard that is down or
        restarting queues the op for catch-up replay and returns — a
        mutation never blocks on (or fails because of) a dead shard; a
        degraded shard drops it (the parent store stays authoritative
        and the fallback reads it live).  A live worker whose mirror is
        dropped or rejected has a diverged replica and is retired
        before the mutation returns — the supervised rebuild from
        parent state is the repair.  The store itself is never
        affected: it applied the mutation before notifying, and the
        bus event still goes out.
        """
        runtime = self._runtimes[shard_id]
        with runtime.lock:
            if runtime.status == "degraded":
                return
            if runtime.status != "up":
                runtime.catchup.append((op, payload, sequence))
                return
            process = runtime.process
        if self._injector is not None:
            if self._injector.on_mirror(self, shard_id, op) == "drop":
                self._retire(runtime, process, "mirror dropped by fault injection")
                return
        try:
            self._replicate(shard_id, op, payload, sequence)
        except ShardUnavailableError:
            # Retired under the mirror; harmless — the rebuild
            # snapshots the store *after* this mutation was applied.
            pass
        except PolicyStoreError as error:
            if not self._shutdown.is_set():
                self._retire(
                    runtime, process, f"worker rejected mirrored {op}: {error}"
                )

    # -- evaluation -------------------------------------------------------------

    def _evaluate_fallback(self, shard_id: int, chunk: List[Request]):
        """Answer a down shard's requests from the authoritative parent
        replica — decision-identical to the worker (same store, same
        index discipline, same combining), each candidate read
        serialised behind the store's mutation lock so it never races
        a mutation.  Cache-less on purpose: no listener registration,
        no shared mutable cache state, safe from any driver thread."""
        responses = [
            decide(
                self.store.shard_policies_for(shard_id, request),
                request,
                self._combining,
            )
            for request in chunk
        ]
        with self._counter_lock:
            self.fallback_evaluations += len(chunk)
        return responses

    def _evaluate_routed(self, requests, per_shard, responses, merge_scatter) -> None:
        """Callable from any number of driver threads concurrently; each
        call only ever waits on (and is completed by) its own tagged
        batches.  Chunks whose shard is unavailable — refused at
        submission or failed by a mid-flight worker death — follow the
        ``on_unavailable`` policy: answered by the parent-side
        fallback, or surfaced as one ShardUnavailableError after every
        other chunk has been collected (never stranding results
        mid-protocol).
        """
        if self._shutdown.is_set():
            raise PolicyStoreError("the shard pool is closed")
        # Ship every chunk before collecting anything: queue puts are
        # asynchronous (feeder threads), so all workers start promptly
        # and evaluate while the parent handles the scatter share.
        in_flight: List[Tuple[_PendingCall, List[int]]] = []
        unavailable: List[Tuple[int, List[int], ShardUnavailableError]] = []
        for shard_id in sorted(per_shard):
            indices = per_shard[shard_id]
            for start in range(0, len(indices), self.BATCH_SIZE):
                chunk = indices[start:start + self.BATCH_SIZE]
                try:
                    call = self._submit(
                        shard_id, "eval", [requests[i] for i in chunk]
                    )
                except ShardUnavailableError as error:
                    unavailable.append((shard_id, chunk, error))
                else:
                    in_flight.append((call, chunk))
        merge_scatter()
        # Collect every batch before surfacing any error, so one failed
        # chunk never strands the others' results mid-protocol (late
        # responses to an abandoned tag are dropped by the dispatcher).
        errors: List[str] = []
        for call, chunk in in_flight:
            try:
                payload = self._await(call)
            except ShardUnavailableError as error:
                unavailable.append((call.shard_id, chunk, error))
                continue
            except PolicyStoreError as error:
                errors.append(str(error))
                continue
            for index, response in zip(chunk, payload):
                responses[index] = response
        refusal: Optional[ShardUnavailableError] = None
        for shard_id, chunk, error in unavailable:
            if self.on_unavailable == "fallback":
                fallback = self._evaluate_fallback(
                    shard_id, [requests[i] for i in chunk]
                )
                for index, response in zip(chunk, fallback):
                    responses[index] = response
            else:
                with self._counter_lock:
                    self.unavailable_errors += 1
                if refusal is None:
                    refusal = error
        if errors:
            raise PolicyStoreError("; ".join(errors))
        if refusal is not None:
            raise refusal

    # -- monitoring -------------------------------------------------------------

    def health(self) -> dict:
        """A pure snapshot of supervision state, per shard and pooled;
        every shard of a closed pool reads ``closed``."""
        closed = self._shutdown.is_set()
        shards = []
        for runtime in self._runtimes:
            with runtime.lock:
                shards.append({
                    "shard_id": runtime.shard_id,
                    "status": "closed" if closed else runtime.status,
                    "restarts": runtime.restarts,
                    "catchup_pending": len(runtime.catchup),
                    "last_error": runtime.last_error,
                })
        return {
            "closed": closed,
            "on_unavailable": self.on_unavailable,
            "shards": shards,
            "statuses": [entry["status"] for entry in shards],
            "degraded_shards": [
                entry["shard_id"] for entry in shards
                if entry["status"] == "degraded"
            ],
            **self._robustness_counters(),
        }

    def _robustness_counters(self) -> Dict[str, int]:
        with self._counter_lock:
            return {
                "worker_restarts": self.worker_restarts,
                "fallback_evaluations": self.fallback_evaluations,
                "unavailable_errors": self.unavailable_errors,
            }

    def _ask_live_workers(self, op: str) -> list:
        """Send *op* to every shard and return the answers of those
        that are up and stayed up — a down shard is skipped."""
        calls = []
        for shard_id in range(self.n_shards):
            try:
                calls.append(self._submit(shard_id, op))
            except PolicyStoreError:    # down, degraded, or the pool closed
                continue
        answers = []
        for call in calls:
            try:
                answers.append(self._await(call))
            except PolicyStoreError:    # died, or the pool closed meanwhile
                continue
        return answers

    def _flush_shard_caches(self) -> None:
        # A down shard's next generation starts cache-cold by construction.
        self._ask_live_workers("flush")

    def _shard_cache_stats(self) -> List[dict]:
        # A down/degraded shard's counters died with its worker.
        return self._ask_live_workers("stats")

    def cache_stats(self) -> dict:
        """The :meth:`ShardRouter.cache_stats` snapshot aggregated over
        the live workers, plus the robustness counters; shards that
        could not report are counted in ``shards_unavailable``."""
        shard_stats = self._shard_cache_stats()
        totals = self._aggregate_cache_stats(shard_stats)
        totals.update(self._robustness_counters())
        totals["shards_unavailable"] = self.n_shards - len(shard_stats)
        return totals

    def __repr__(self) -> str:
        if self._shutdown.is_set():
            return f"ProcessShardPool(shards={self.n_shards}, closed)"
        statuses = ",".join(
            runtime.status for runtime in self._runtimes
        )
        return f"ProcessShardPool(shards={self.n_shards}, [{statuses}])"
