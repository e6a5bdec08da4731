//! `fleet_cold`: closed-loop sweeps through an in-process `serve`
//! coordinator with one in-process fleet worker (`spawn_worker`, one
//! slot) and a fresh result store.
//!
//! Two client connections, driven from this process, each submit their
//! next sweep only after the last one has returned every cell, and follow
//! a job through the `cells?since=&wait_ms=` long-poll, never by polling
//! status on a fixed interval.  Every sweep is three fig4 kernels on one
//! extension at 2-way with a `redirect_penalty` of its own, so nothing
//! coalesces and no cell hits the store; each cell is simulated by the
//! fleet worker.

use crate::gen::{self, Job, KERNELS_PER_JOB, WAY};
use crate::golden::{slots_balance, Golden};
use crate::layers::{self, key};
use crate::stats::{hd_quantile, median, windowed_tail};
use crate::trace::Spans;
use crate::{host, EndToEnd, Opts, Outcome};
use simdsim_api::{CellResult, SweepRequest};
use simdsim_client::{spawn_worker, SimdsimClient, WorkerConfig, WorkerHandle};
use simdsim_serve::{metrics::MetricsSnapshot, Server, ServerConfig};
use simdsim_sweep::{catalog, cell_key, Cell, CellStats, EngineOptions};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Set-up repetitions; `setup_s` is their median and the last one's
/// service carries the timed phase.
const SETUP_REPS: usize = 9;
/// Sweeps each client runs to warm a fresh service up: the fixed,
/// seed-independent head of the job list (see [`gen::jobs`]), so every
/// set-up does the same work.
const WARMUP_JOBS: usize = 4;
/// Sweeps generated per run: far more than a run can complete.
const JOBS: usize = 16_384;
/// Finished jobs the coordinator retains.  Small enough that retention
/// is full within the first seconds of the timed phase, so the peak
/// resident set does not grow with the number of sweeps a run completes
/// (which would tie `peak_rss_mb` to `jobs_per_s`).
const JOB_RETENTION: usize = 256;
/// Long-poll hold requested from the `cells` endpoint.
const LONG_POLL: Duration = Duration::from_millis(2000);
/// Socket timeout for every client request.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Latencies per tail window (see [`crate::stats::windowed_tail`]).
const TAIL_WINDOW: usize = 200;
/// In-process runs of the fig4 grid in the traced run; the engine
/// overhead is their median.
const ENGINE_RUNS: usize = 3;

/// One completed (or failed) sweep as a client saw it.
#[derive(Debug, Default)]
struct JobRecord {
    /// Index of the sweep in the workload's job list.
    job: usize,
    /// Completion time, from the start of the timed phase.
    done_at: Duration,
    /// Submit → last cell.
    latency_ms: f64,
    /// The `POST /v1/sweeps` round trip.
    submit_ms: f64,
    /// Submit → first page carrying a cell.
    first_cell_ms: f64,
    /// `cells` pages fetched, and how many of them carried no cell.
    pages: u64,
    empty_pages: u64,
    deduped: bool,
    /// The cells, dropped once the sweep is checked and summarised, so
    /// the benchmark's own memory does not grow with the run.
    cells: Vec<CellResult>,
    cell_count: usize,
    /// A transport or protocol error that ended the sweep.
    error: Option<String>,
    /// Why the sweep counts as failed: `error`, or a failed output check.
    failure: Option<String>,
    /// Σ worker-reported `decode_ms + simulate_ms` over the cells.
    busy_ms: f64,
    /// Instructions of the cells simulated afresh.
    fresh_instrs: u64,
}

/// A running coordinator with its fleet worker.
struct Service {
    server: Server,
    worker: WorkerHandle,
    store: PathBuf,
}

impl Service {
    fn start(store: PathBuf) -> Result<Self, String> {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: Some(store.clone()),
            job_retention: JOB_RETENTION,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("starting the coordinator: {e}"))?;
        let worker = spawn_worker(WorkerConfig {
            addr: server.addr().to_string(),
            name: "bench-w0".to_owned(),
            slots: 1,
            cache_dir: None,
            ..WorkerConfig::default()
        });
        let service = Self {
            server,
            worker,
            store,
        };
        let deadline = Instant::now() + TIMEOUT;
        while service.server.metrics_snapshot().fleet_workers_live == 0 {
            if Instant::now() >= deadline {
                service.stop()?;
                return Err("the fleet worker never registered".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(service)
    }

    fn clients(&self) -> Result<Vec<SimdsimClient>, String> {
        (0..CLIENTS)
            .map(|_| {
                SimdsimClient::connect(self.server.addr(), TIMEOUT)
                    .map_err(|e| format!("connecting a client: {e}"))
            })
            .collect()
    }

    fn stop(self) -> Result<(), String> {
        let worker = self.worker.stop();
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.store);
        worker
            .map(|_| ())
            .map_err(|e| format!("the fleet worker failed: {e}"))
    }
}

/// Submits `job` and follows it to its last cell (and on to the job's
/// terminal page, so the closed loop never overlaps a client's jobs).
fn run_job(client: &mut SimdsimClient, index: usize, job: &Job, t0: Instant) -> JobRecord {
    let mut rec = JobRecord {
        job: index,
        ..JobRecord::default()
    };
    let start = Instant::now();
    let elapsed_ms = || start.elapsed().as_secs_f64() * 1.0e3;
    let result = (|| {
        let sub = client
            .submit(&SweepRequest::inline(job.scenario()))
            .map_err(|e| format!("submit: {e}"))?;
        rec.submit_ms = elapsed_ms();
        rec.deduped = sub.deduped;
        let mut since = 0;
        loop {
            let page = client
                .cells(sub.id, since, LONG_POLL)
                .map_err(|e| format!("cells: {e}"))?;
            rec.pages += 1;
            if page.cells.is_empty() {
                rec.empty_pages += 1;
            } else if rec.cells.is_empty() {
                rec.first_cell_ms = elapsed_ms();
            }
            rec.cells.extend(page.cells);
            if rec.latency_ms == 0.0 && rec.cells.len() >= KERNELS_PER_JOB {
                rec.latency_ms = elapsed_ms();
            }
            since = page.next;
            if page.done {
                return Ok(());
            }
        }
    })();
    rec.error = result.err();
    rec.done_at = t0.elapsed();
    rec
}

/// Checks one completed sweep; returns why it fails, if it does.
type Check<'a> = &'a (dyn Fn(&JobRecord) -> Option<String> + Sync);

/// Runs closed-loop clients until `until` has elapsed since `t0`, each
/// taking its next job from `next` (`None` ends that client).  Every
/// sweep is checked as it lands.
fn closed_loop(
    clients: &mut [SimdsimClient],
    jobs: &[Job],
    next: &(dyn Fn(usize) -> Option<usize> + Sync),
    check: Check<'_>,
    t0: Instant,
    until: Duration,
) -> Vec<JobRecord> {
    let mut records: Vec<JobRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while t0.elapsed() < until {
                        let Some(i) = next(c) else { break };
                        let mut rec = run_job(client, i, &jobs[i], t0);
                        rec.failure = rec.error.clone().or_else(|| check(&rec));
                        rec.cell_count = rec.cells.len();
                        rec.busy_ms = rec
                            .cells
                            .iter()
                            .filter_map(|c| c.phases)
                            .map(|p| p.decode_ms + p.simulate_ms)
                            .sum();
                        rec.fresh_instrs = rec
                            .cells
                            .iter()
                            .filter(|c| !c.cached)
                            .filter_map(|c| c.stats.as_ref().map(|s| s.instrs))
                            .sum();
                        rec.cells = Vec::new();
                        let broken = rec.error.is_some();
                        out.push(rec);
                        if broken {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    records.sort_by_key(|r| r.done_at);
    records
}

/// Checks one sweep's cells; returns why it fails, if it does.
fn check_job(rec: &JobRecord, job: &Job, golden: &Golden) -> Option<String> {
    if rec.cells.len() != KERNELS_PER_JOB {
        return Some(format!(
            "{} cells, expected {KERNELS_PER_JOB}",
            rec.cells.len()
        ));
    }
    for cell in &rec.cells {
        let Some(stats) = &cell.stats else {
            return Some(format!(
                "{}: {}",
                cell.label,
                cell.error.as_deref().unwrap_or("no stats")
            ));
        };
        let Some(kernel) = usize::try_from(cell.index)
            .ok()
            .and_then(|i| job.kernels.get(i))
        else {
            return Some(format!("{}: no such cell in the sweep", cell.label));
        };
        let golden_label = format!("fig4/{kernel}/{}/{WAY}way", job.ext);
        if cell.cached {
            return Some(format!("{}: served from the store", cell.label));
        }
        if !golden.matches_architectural(&golden_label, stats) {
            return Some(format!(
                "{}: instrs/counts differ from {golden_label}",
                cell.label
            ));
        }
        if !slots_balance(stats, WAY) {
            return Some(format!("{}: issue + stalls != cycles x way", cell.label));
        }
    }
    None
}

/// Runs the workload.
///
/// # Errors
///
/// A message when the service cannot start or set-up fails.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let golden = Golden::load()?;
    let warmup = CLIENTS * WARMUP_JOBS;
    let jobs = gen::jobs(opts.seed, warmup, JOBS);
    let check = |r: &JobRecord| check_job(r, &jobs[r.job], &golden);
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // Set-up: start, join and warm up a fresh service SETUP_REPS times;
    // the last one stays up for the timed phase.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let service = Service::start(opts.work.join(format!("store-{rep}")))?;
        let mut clients = service.clients()?;
        let cursors: Vec<AtomicUsize> = (0..CLIENTS).map(|_| AtomicUsize::new(0)).collect();
        let next = |c: usize| {
            let k = cursors[c].fetch_add(1, Ordering::Relaxed);
            (k < WARMUP_JOBS).then_some(c * WARMUP_JOBS + k)
        };
        let records = closed_loop(&mut clients, &jobs, &next, &check, Instant::now(), TIMEOUT);
        setup.push(t.elapsed().as_secs_f64());
        for rec in &records {
            attempted += 1;
            if let Some(why) = &rec.failure {
                failed += 1;
                eprintln!("perfbench: set-up job {}: {why}", rec.job);
            }
        }
        if records.len() != warmup {
            drop(clients);
            service.stop()?;
            return Err(format!(
                "set-up completed {} of {warmup} jobs",
                records.len()
            ));
        }
        if rep + 1 < SETUP_REPS {
            drop(clients);
            service.stop()?;
        } else {
            live = Some((service, clients));
        }
    }
    let (service, mut clients) = live.expect("SETUP_REPS > 0");

    // Timed phase.
    let before = service.server.metrics_snapshot();
    let cursor = AtomicUsize::new(warmup);
    let next = |_: usize| Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < jobs.len());
    let t0 = Instant::now();
    let records = closed_loop(&mut clients, &jobs, &next, &check, t0, opts.seconds);
    let timed_s = t0.elapsed().as_secs_f64();
    let after = service.server.metrics_snapshot();
    let peak_rss_mb = host::peak_rss_mb();
    drop(clients);
    service.stop()?;

    // Output checks and self-checks.
    let mut bad = 0u64;
    for rec in &records {
        if let Some(why) = &rec.failure {
            bad += 1;
            eprintln!("perfbench: job {}: {why}", rec.job);
        }
    }
    attempted += records.len() as u64;
    failed += bad;
    let ok: Vec<&JobRecord> = records.iter().filter(|r| r.error.is_none()).collect();
    if ok.is_empty() {
        return Err("no sweep completed in the timed phase".to_owned());
    }
    let jobs_done = ok.len() as f64;
    let deduped = records.iter().filter(|r| r.deduped).count();
    let delta = |f: fn(&MetricsSnapshot) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    let cached = delta(|m| m.cells_cached);
    let resolved = cached + delta(|m| m.cells_simulated);
    let hit_ratio = if resolved > 0.0 {
        cached / resolved
    } else {
        0.0
    };
    let mut keys = HashSet::new();
    let mut cells = 0usize;
    for i in (0..warmup).chain(records.iter().map(|r| r.job)) {
        for cell in jobs[i].scenario().expand() {
            let cfg = cell.config()?;
            keys.insert(cell_key(&cell, &cfg));
            cells += 1;
        }
    }
    let checks = vec![
        (
            format!(
                "{} of {} timed sweeps pass their output checks",
                records.len() as u64 - bad,
                records.len()
            ),
            bad == 0,
        ),
        (
            format!(
                "serve.deduped_ratio = {} (must be 0)",
                deduped as f64 / records.len() as f64
            ),
            deduped == 0,
        ),
        (
            format!("sweep.store_hit_ratio = {hit_ratio} (must be 0)"),
            hit_ratio == 0.0 && resolved > 0.0,
        ),
        (
            format!("{} distinct cell keys over {cells} cold cells", keys.len()),
            keys.len() == cells,
        ),
    ];

    let latencies: Vec<f64> = ok.iter().map(|r| r.latency_ms).collect();
    let fresh_instrs: u64 = ok.iter().map(|r| r.fresh_instrs).sum();
    let e2e = EndToEnd {
        setup_s: median(&setup).expect("SETUP_REPS > 0"),
        jobs_per_s: jobs_done / timed_s,
        job_p50_ms: hd_quantile(&latencies, 0.5).expect("a sweep completed"),
        job_tail: windowed_tail(&latencies, TAIL_WINDOW)
            .ok_or_else(|| format!("{} sweeps are too few for a tail", latencies.len()))?,
        peak_rss_mb,
        sim_mips: fresh_instrs as f64 / timed_s / 1.0e6,
        wall_s: None,
    };
    let notes = vec![format!(
        "fleet_cold: {} sweeps by {CLIENTS} closed-loop clients in {timed_s:.3} s; set-up s: {}",
        records.len(),
        setup
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    )];

    let (mut layer_values, mut spans) = Default::default();
    if opts.trace {
        (layer_values, spans) = trace_layers(opts, &golden, &ok, timed_s, &before, &after)?;
        layer_values.insert(key("sweep.store_hit_ratio"), hit_ratio);
        layer_values.insert(
            key("serve.deduped_ratio"),
            deduped as f64 / records.len() as f64,
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        checks,
        e2e,
        layers: layer_values,
        spans,
        notes,
    })
}

/// The traced run's per-layer figures: service-side ratios from the
/// timed phase's records and counters, then the simulator-core probe over
/// the fig4 grid run in-process.
fn trace_layers(
    opts: &Opts,
    golden: &Golden,
    ok: &[&JobRecord],
    timed_s: f64,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Result<(layers::Layers, Spans), String> {
    let n = ok.len() as f64;
    let mut out = layers::Layers::new();
    let submit: Vec<f64> = ok.iter().map(|r| r.submit_ms).collect();
    out.insert(key("serve.submit_ms.p50"), median(&submit).unwrap_or(0.0));
    out.insert(
        key("serve.submit_ms.tail"),
        windowed_tail(&submit, TAIL_WINDOW).map_or(0.0, |t| t.value),
    );
    let first: Vec<f64> = ok.iter().map(|r| r.first_cell_ms).collect();
    out.insert(key("serve.first_cell_ms"), median(&first).unwrap_or(0.0));
    let pages: u64 = ok.iter().map(|r| r.pages).sum();
    let empty: u64 = ok.iter().map(|r| r.empty_pages).sum();
    out.insert(key("serve.pages_per_job"), pages as f64 / n);
    out.insert(
        key("serve.empty_page_ratio"),
        empty as f64 / pages.max(1) as f64,
    );
    out.insert(
        key("serve.http_requests_per_job"),
        after
            .requests_total()
            .saturating_sub(before.requests_total()) as f64
            / n,
    );
    let overhead: Vec<f64> = ok
        .iter()
        .map(|r| (r.latency_ms - r.busy_ms) / r.cell_count.max(1) as f64)
        .collect();
    out.insert(
        key("serve.fleet_overhead_ms"),
        median(&overhead).unwrap_or(0.0),
    );
    let leases = after
        .fleet_leases_granted
        .saturating_sub(before.fleet_leases_granted);
    let reported = after
        .fleet_cells_reported
        .saturating_sub(before.fleet_cells_reported);
    out.insert(
        key("serve.leases_per_cell"),
        if reported > 0 {
            leases as f64 / reported as f64
        } else {
            0.0
        },
    );
    let busy: f64 = ok.iter().map(|r| r.busy_ms).sum();
    out.insert(key("client.worker_busy_ratio"), busy / (timed_s * 1.0e3));

    let (overhead_ms, cells) = fig4_in_process(golden)?;
    let (core, spans) = layers::probe_core(&cells, &opts.work)?;
    out.extend(core);
    out.insert(key("sweep.engine_overhead_ms"), overhead_ms);
    Ok((out, spans))
}

/// Runs the fig4 grid — every kernel on every extension at 2-way, the
/// population the workload's sweeps draw from, at the paper's
/// configuration — in-process on one engine thread [`ENGINE_RUNS`] times.
/// Returns the median engine overhead (run wall minus the cells'
/// simulation walls) and the last run's cells, each checked against the
/// golden fixture.  The cell set depends on neither the seed nor the
/// host's speed, so every traced run probes the same cells.
fn fig4_in_process(golden: &Golden) -> Result<(f64, Vec<(Cell, CellStats)>), String> {
    let scenario = catalog::fig4();
    let engine = EngineOptions::default().jobs(1);
    let mut samples = Vec::with_capacity(ENGINE_RUNS);
    let mut cells = Vec::new();
    for _ in 0..ENGINE_RUNS {
        let t = Instant::now();
        let report = simdsim_sweep::run(&scenario, &engine);
        let wall = t.elapsed().as_secs_f64() * 1.0e3;
        let mut cells_ms = 0.0;
        cells.clear();
        for o in report.outcomes {
            cells_ms += o.wall.as_secs_f64() * 1.0e3;
            let label = o.cell.label();
            match o.stats {
                Ok(st) if golden.matches_all(&label, &st) => cells.push((o.cell, st)),
                Ok(_) => {
                    return Err(format!(
                        "in-process {label} differs from the golden fixture"
                    ))
                }
                Err(e) => return Err(format!("in-process {label}: {e}")),
            }
        }
        samples.push(wall - cells_ms);
    }
    Ok((median(&samples).expect("ENGINE_RUNS > 0"), cells))
}
