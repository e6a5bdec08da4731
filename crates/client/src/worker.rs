//! The fleet worker: a process that registers with a coordinator
//! (`simdsim-serve`), leases cells, simulates them with the very same
//! in-process engine, and reports per-cell results.
//!
//! The loop is deliberately simple — the coordinator owns all the hard
//! state (leases, timeouts, re-queueing):
//!
//! 1. `POST /v1/workers/register`, learning the heartbeat cadence and
//!    lease TTL.
//! 2. Optionally warm-start the local result store from the
//!    coordinator's snapshot (`GET /v1/store/snapshot`).
//! 3. Long-poll `POST /v1/workers/{id}/lease`; every fleet call doubles
//!    as a liveness signal, and while cells execute the loop heartbeats
//!    to keep the registration alive.
//! 4. Hand the leased cells to the worker's simulation slots and report
//!    the batch.  Slots are long-lived threads owned by the worker loop,
//!    started on demand (never more than the largest lease, nor
//!    `slots`), so the simulator's per-thread machine, pipeline and
//!    decode memo stay warm from one lease to the next.  Each slot
//!    consults the local store, then simulates
//!    ([`simdsim_sweep::execute_cell`]) under `catch_unwind`: a panicking
//!    cell becomes an error result and the slot lives on.  Completion is
//!    event-driven — the loop blocks on the slots' result channel and
//!    wakes only to heartbeat when the next beat falls due.
//!
//! Getting `unknown_worker` (404) anywhere means the coordinator evicted
//! us (a pause longer than the liveness contract, or a coordinator
//! restart): the worker silently re-registers and carries on.  A crashed
//! worker needs no cleanup at all — its leases expire and the cells are
//! re-offered to the rest of the fleet.

use crate::{ClientError, SimdsimClient};
use simdsim_api::{
    CellPhases, DebugEvent, ErrorCode, Lease, LeaseRequest, LeasedCell, RegisterRequest,
    ReportRequest, UnitResult,
};
use simdsim_obs::now_ms;
use simdsim_sweep::{cell_key, execute_cell, JobPanic, ResultStore, StoredCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a worker process needs to join a fleet.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The coordinator's `host:port`.
    pub addr: String,
    /// Name shown in `sweepctl fleet status`.
    pub name: String,
    /// Warm simulation threads (started on demand, kept across leases);
    /// also the most cells one lease asks for.
    pub slots: u64,
    /// Local content-addressed store (results are checked before
    /// simulating and saved after).  `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Import the coordinator's store snapshot into the local store on
    /// startup, so a fresh worker skips everything the fleet already
    /// simulated.
    pub warm_start: bool,
    /// Socket timeout for every request.
    pub timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8844".to_owned(),
            name: "worker".to_owned(),
            slots: 1,
            cache_dir: None,
            warm_start: false,
            timeout: Duration::from_secs(60),
        }
    }
}

/// What a worker did over its lifetime, returned when it stops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Leases granted to this worker.
    pub leases: u64,
    /// Cells simulated.
    pub simulated: u64,
    /// Cells answered from the local store.
    pub cached: u64,
}

/// Runs the worker loop until `stop` is set, returning the tallies.
///
/// # Errors
///
/// Transport, protocol, or typed API errors other than the
/// `unknown_worker` eviction (which re-registers instead of failing).
pub fn run_worker(cfg: &WorkerConfig, stop: &AtomicBool) -> Result<WorkerStats, ClientError> {
    let mut client = SimdsimClient::connect(&cfg.addr, cfg.timeout)?;
    let store = cfg.cache_dir.clone().map(ResultStore::new);
    // Advertise the local cache contents so the coordinator can lease
    // with affinity.  Recomputed at every (re-)registration: the store
    // grows as the worker runs, and an evicted worker that comes back
    // should advertise everything it has accumulated since.
    let register = |store: Option<&ResultStore>| RegisterRequest {
        name: cfg.name.clone(),
        slots: cfg.slots.max(1),
        cache_keys: store
            .map(|s| s.keys().iter().map(|k| k.as_str().to_owned()).collect())
            .unwrap_or_default(),
    };
    let mut reg = client.register_worker(&register(store.as_ref()))?;
    if cfg.warm_start {
        if let Some(store) = &store {
            let snapshot = client.store_export()?;
            store.import(snapshot.entries.iter().map(|e| {
                (
                    e.key.as_str(),
                    StoredCell {
                        label: e.label.clone(),
                        stats: e.stats.clone(),
                    },
                )
            }));
        }
    }
    let heartbeat = Duration::from_millis(reg.heartbeat_interval_ms.max(1));
    // The lease long-poll is the idle-time heartbeat: short enough that
    // the coordinator sees us well inside the liveness window, and also
    // how often the stop flag is observed.
    let wait = (heartbeat / 2).max(Duration::from_millis(10));

    let slot_store = store.clone();
    let mut slots = SlotPool::new(cfg.slots.max(1) as usize, move |leased: LeasedCell| {
        execute_one(&leased, slot_store.as_ref())
    });

    let mut stats = WorkerStats::default();
    while !stop.load(Ordering::Relaxed) {
        let request = LeaseRequest {
            max_cells: cfg.slots.max(1),
            wait_ms: wait.as_millis() as u64,
        };
        let lease = match client.lease(reg.worker_id, &request) {
            Ok(resp) => match resp.lease {
                Some(lease) => lease,
                None => continue, // no work arrived within the poll
            },
            Err(e) if is_eviction(&e) => {
                reg = client.register_worker(&register(store.as_ref()))?;
                continue;
            }
            Err(e) => return Err(e),
        };
        stats.leases += 1;
        let results = execute_lease(&mut client, reg.worker_id, &lease, &mut slots, heartbeat)?;
        for r in &results {
            if r.cached {
                stats.cached += 1;
            } else {
                stats.simulated += 1;
            }
        }
        let spans = unit_spans(&lease, &results, reg.worker_id);
        let report = ReportRequest {
            lease_id: lease.lease_id,
            results,
            spans,
        };
        match client.report(reg.worker_id, &report) {
            // Evicted mid-lease: the cells were re-queued (or our late
            // report raced a re-execution — either way the coordinator
            // resolved them).  Rejoin and keep going.
            Err(e) if is_eviction(&e) => {
                reg = client.register_worker(&register(store.as_ref()))?;
            }
            Err(e) => return Err(e),
            Ok(_) => {}
        }
    }
    Ok(stats)
}

fn is_eviction(e: &ClientError) -> bool {
    e.api_error()
        .is_some_and(|err| err.code == ErrorCode::UnknownWorker)
}

/// One `worker.unit` span per resolved cell, tagged with the lease's
/// trace/job ids — shipped inside the report so the coordinator's flight
/// recorder shows the worker's side of the fan-out.
fn unit_spans(lease: &Lease, results: &[UnitResult], worker: u64) -> Vec<DebugEvent> {
    results
        .iter()
        .map(|r| {
            let leased = lease.cells.iter().find(|c| c.unit == r.unit);
            DebugEvent {
                seq: 0,
                ts_ms: now_ms(),
                kind: "worker.unit".to_owned(),
                trace: leased.and_then(|c| c.trace.clone()),
                job: leased.and_then(|c| c.job),
                worker: Some(worker),
                unit: Some(r.unit),
                dur_ms: Some(r.wall_ms),
                detail: match leased {
                    Some(c) => {
                        let mut d = format!(
                            "{} {}",
                            c.cell.label(),
                            if r.cached { "cached" } else { "simulated" }
                        );
                        // Freshly simulated cells carry superblock-engine
                        // counters; cached cells replay stored stats.
                        if let Some(s) = r.stats.as_ref().filter(|_| !r.cached) {
                            d.push_str(&format!(
                                " blocks={} hits={} side_exits={}",
                                s.blocks_cached, s.block_hits, s.side_exits
                            ));
                            if let Some(top) = s.profile.as_ref().and_then(top_stall) {
                                d.push_str(&format!(" top_stall={top}"));
                            }
                        }
                        d
                    }
                    None => String::new(),
                },
            }
        })
        .collect()
}

/// The dominant stall cause of one cell's CPI stack as `cause:slots`
/// (slots summed across regions); `None` for a stall-free cell.
fn top_stall(stack: &simdsim_sweep::CpiStack) -> Option<String> {
    use simdsim_sweep::{StallCause, NUM_REGIONS};
    StallCause::ALL
        .iter()
        .map(|c| {
            let slots: u64 = (0..NUM_REGIONS).map(|r| stack.stall(*c, r)).sum();
            (c.label(), slots)
        })
        .max_by_key(|&(_, slots)| slots)
        .filter(|&(_, slots)| slots > 0)
        .map(|(label, slots)| format!("{label}:{slots}"))
}

/// Runs every cell of one lease on the worker's slots, heartbeating
/// whenever a beat falls due so a long lease cannot get the worker
/// evicted mid-execution.  Results come back in unit order.
fn execute_lease(
    client: &mut SimdsimClient,
    worker: u64,
    lease: &Lease,
    slots: &mut SlotPool<LeasedCell, UnitResult>,
    heartbeat: Duration,
) -> Result<Vec<UnitResult>, ClientError> {
    let outcomes = slots.run(lease.cells.clone(), heartbeat, || {
        // Liveness only; an eviction here surfaces on the next
        // lease/report call, which re-registers.
        let _ = client.heartbeat(worker);
    })?;
    let mut results: Vec<UnitResult> = lease
        .cells
        .iter()
        .zip(outcomes)
        .map(|(leased, outcome)| {
            outcome.unwrap_or_else(|panic| UnitResult {
                unit: leased.unit,
                cached: false,
                wall_ms: 0.0,
                stats: None,
                error: Some(panic.to_string()),
                phases: None,
            })
        })
        .collect();
    results.sort_by_key(|r| r.unit);
    Ok(results)
}

/// One unit of slot work: the item's index in its batch, the item, and
/// the batch's result channel.  The sender travels with the job, so a
/// job lost with its slot closes the batch channel instead of leaving the
/// caller waiting on it.
type SlotJob<T, R> = (usize, T, Sender<(usize, Result<R, JobPanic>)>);

/// Long-lived simulation threads fed through one work channel.
///
/// Threads are started on demand, up to `min(max, largest batch so
/// far)`, and live until the pool is dropped, so whatever per-thread
/// state the work function builds (the simulator's scratch machine,
/// pooled pipeline and decode memo) is reused from one batch to the
/// next.  Every item runs under `catch_unwind`; a panic becomes that
/// item's `Err(JobPanic)` and the thread carries on.
struct SlotPool<T, R> {
    max: usize,
    run: Arc<dyn Fn(T) -> R + Send + Sync>,
    work: Option<Sender<SlotJob<T, R>>>,
    queue: Arc<Mutex<Receiver<SlotJob<T, R>>>>,
    threads: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static, R: Send + 'static> SlotPool<T, R> {
    fn new(max: usize, run: impl Fn(T) -> R + Send + Sync + 'static) -> Self {
        let (work, queue) = mpsc::channel();
        Self {
            max: max.max(1),
            run: Arc::new(run),
            work: Some(work),
            queue: Arc::new(Mutex::new(queue)),
            threads: Vec::new(),
        }
    }

    /// Starts threads until the pool holds `min(max, want)`.
    fn grow(&mut self, want: usize) -> Result<(), ClientError> {
        while self.threads.len() < want.min(self.max) {
            let queue = Arc::clone(&self.queue);
            let run = Arc::clone(&self.run);
            let thread = std::thread::Builder::new()
                .name(format!("fleet-slot-{}", self.threads.len()))
                .spawn(move || loop {
                    // The guard is a temporary: the lock is released as
                    // soon as a job arrives, before it runs.
                    let job = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok((index, item, results)) = job else {
                        break; // the pool closed the work channel
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| run(item)))
                        .map_err(|payload| JobPanic::from_payload(payload.as_ref()));
                    let _ = results.send((index, outcome));
                })
                .map_err(ClientError::Io)?;
            self.threads.push(thread);
        }
        Ok(())
    }

    /// Runs `items` on the slots and returns one outcome per item, in
    /// item order.  The calling thread blocks on the result channel and
    /// calls `tick` each time `tick_every` passes without the batch
    /// finishing.
    ///
    /// # Errors
    ///
    /// A thread could not be started, or slots died holding work (the
    /// batch can never complete).
    fn run(
        &mut self,
        items: Vec<T>,
        tick_every: Duration,
        mut tick: impl FnMut(),
    ) -> Result<Vec<Result<R, JobPanic>>, ClientError> {
        let slots_died = || ClientError::Protocol("simulation slots died mid-lease".to_owned());
        let n = items.len();
        self.grow(n)?;
        let work = self.work.as_ref().expect("work channel open until drop");
        let (tx, rx) = mpsc::channel();
        for (index, item) in items.into_iter().enumerate() {
            work.send((index, item, tx.clone()))
                .expect("the pool holds the work receiver");
        }
        drop(tx);

        let mut outcomes: Vec<Option<Result<R, JobPanic>>> = (0..n).map(|_| None).collect();
        let mut pending = n;
        let mut next_tick = Instant::now() + tick_every;
        while pending > 0 {
            match rx.recv_timeout(next_tick.saturating_duration_since(Instant::now())) {
                Ok((index, outcome)) => {
                    outcomes[index] = Some(outcome);
                    pending -= 1;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Every slot gone: the queued jobs (and their result
                    // senders) sit in a channel no one reads.
                    if self.threads.iter().all(JoinHandle::is_finished) {
                        return Err(slots_died());
                    }
                    tick();
                    next_tick = Instant::now() + tick_every;
                }
                // Every job's sender dropped with results missing: a slot
                // died holding one.
                Err(RecvTimeoutError::Disconnected) => return Err(slots_died()),
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("every pending item delivered"))
            .collect())
    }
}

impl<T, R> Drop for SlotPool<T, R> {
    /// Closes the work channel and joins every slot.
    fn drop(&mut self) {
        self.work = None;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Simulates (or loads) one leased cell, timing each phase: the store
/// probe, the engine's decode/simulate split, and the store write-back.
fn execute_one(leased: &LeasedCell, store: Option<&ResultStore>) -> UnitResult {
    let probe = Instant::now();
    let key = leased
        .cell
        .config()
        .ok()
        .map(|cfg| cell_key(&leased.cell, &cfg));
    if let (Some(store), Some(key)) = (store, &key) {
        if let Some(hit) = store.load(key) {
            return UnitResult {
                unit: leased.unit,
                cached: true,
                wall_ms: 0.0,
                stats: Some(hit.stats),
                error: None,
                phases: Some(CellPhases {
                    probe_ms: probe.elapsed().as_secs_f64() * 1e3,
                    ..CellPhases::default()
                }),
            };
        }
    }
    let probe_ms = probe.elapsed().as_secs_f64() * 1e3;
    let run = execute_cell(&leased.cell);
    let mut phases = run.phases;
    phases.probe_ms = probe_ms;
    match run.stats {
        Ok(stats) => {
            if let (Some(store), Some(key)) = (store, &key) {
                let write = Instant::now();
                store.save(
                    key,
                    &StoredCell {
                        label: leased.cell.label(),
                        stats: stats.clone(),
                    },
                );
                phases.store_ms = write.elapsed().as_secs_f64() * 1e3;
            }
            UnitResult {
                unit: leased.unit,
                cached: false,
                wall_ms: run.wall.as_secs_f64() * 1000.0,
                stats: Some(stats),
                error: None,
                phases: Some(phases),
            }
        }
        Err(e) => UnitResult {
            unit: leased.unit,
            cached: false,
            wall_ms: run.wall.as_secs_f64() * 1000.0,
            stats: None,
            error: Some(e.message),
            phases: Some(phases),
        },
    }
}

/// An in-process worker (tests, `loadgen`): [`run_worker`] on its own
/// thread with a stop flag.
#[derive(Debug)]
pub struct WorkerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Result<WorkerStats, ClientError>>>,
}

impl WorkerHandle {
    /// Signals the loop to stop and joins it, returning its tallies.
    ///
    /// # Errors
    ///
    /// Whatever error stopped the loop first, if any.
    pub fn stop(mut self) -> Result<WorkerStats, ClientError> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .expect("worker thread present until stop")
            .join()
            .unwrap_or_else(|_| Err(ClientError::Protocol("worker thread panicked".to_owned())))
    }

    /// The shared stop flag (lets embedders stop many workers at once).
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }
}

/// Spawns [`run_worker`] on a background thread.
#[must_use]
pub fn spawn_worker(cfg: WorkerConfig) -> WorkerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name(format!("fleet-worker-{}", cfg.name))
        .spawn(move || run_worker(&cfg, &flag))
        .expect("spawn fleet worker");
    WorkerHandle {
        stop,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    const TICK: Duration = Duration::from_millis(10);

    fn ok<R>(outcomes: Vec<Result<R, JobPanic>>) -> Vec<R> {
        outcomes.into_iter().map(|o| o.expect("no panic")).collect()
    }

    #[test]
    fn consecutive_batches_run_on_the_same_threads() {
        // The barrier forces each two-item batch onto two distinct
        // threads at once, so both batches use the whole pool.
        let barrier = Arc::new(Barrier::new(2));
        let mut pool = SlotPool::new(2, move |(): ()| {
            barrier.wait();
            std::thread::current().id()
        });
        let first: HashSet<ThreadId> = ok(pool.run(vec![(), ()], TICK, || {}).expect("batch"))
            .into_iter()
            .collect();
        let second: HashSet<ThreadId> = ok(pool.run(vec![(), ()], TICK, || {}).expect("batch"))
            .into_iter()
            .collect();
        assert_eq!(first.len(), 2);
        assert_eq!(first, second, "warm slots are reused across batches");
        assert!(!first.contains(&std::thread::current().id()));
    }

    #[test]
    fn a_panicking_item_is_an_error_and_the_slot_survives() {
        let mut pool = SlotPool::new(1, |x: u32| {
            assert!(x != 13, "unlucky {x}");
            (x, std::thread::current().id())
        });
        let out = pool.run(vec![1, 13, 2], TICK, || {}).expect("batch");
        assert_eq!(out[0].as_ref().expect("ok").0, 1);
        let panic = out[1].as_ref().expect_err("item 13 panics");
        assert_eq!(panic.to_string(), "job panicked: unlucky 13");
        assert_eq!(out[2].as_ref().expect("ok").0, 2);
        let slot = out[0].as_ref().expect("ok").1;

        let next = ok(pool.run(vec![3], TICK, || {}).expect("next batch"));
        assert_eq!(next, vec![(3, slot)], "the same slot ran the next batch");
        assert_eq!(pool.threads.len(), 1);
    }

    #[test]
    fn the_pool_never_exceeds_min_of_slots_and_largest_batch() {
        let mut pool = SlotPool::new(8, |x: usize| x * 2);
        assert_eq!(pool.threads.len(), 0, "no thread before the first batch");
        for (batch, want) in [(3, 3), (2, 3), (5, 5), (1, 5), (8, 8), (11, 8), (4, 8)] {
            let items: Vec<usize> = (0..batch).collect();
            let out = ok(pool.run(items, TICK, || {}).expect("batch"));
            assert_eq!(out, (0..batch).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(pool.threads.len(), want, "after a batch of {batch}");
        }
        let mut small = SlotPool::new(3, |x: usize| x);
        assert_eq!(
            ok(small.run((0..7).collect(), TICK, || {}).expect("batch")).len(),
            7
        );
        assert_eq!(small.threads.len(), 3);
    }

    /// A panic payload whose destructor panics again, after
    /// `catch_unwind` returned: the only way out of a slot's loop short
    /// of the pool closing.
    struct SlotKiller;

    impl Drop for SlotKiller {
        fn drop(&mut self) {
            panic!("slot killed");
        }
    }

    #[test]
    fn dead_slots_fail_the_batch_instead_of_hanging() {
        let mut pool = SlotPool::new(1, |kill: bool| {
            if kill {
                std::panic::panic_any(SlotKiller);
            }
        });
        let err = pool
            .run(vec![true, false], TICK, || {})
            .expect_err("the only slot died with work queued");
        assert!(err.to_string().contains("slots died"), "{err}");
        drop(pool); // joins the dead slot without panicking
    }
}
