//! The per-layer metrics of the traced run, and the probe that times the
//! simulator core layer by layer.
//!
//! The probe replays a workload's cells through each crate's public
//! entry points in turn — build, predecode, functional emulation alone,
//! emulation plus timing (with and without cycle accounting), and the
//! cell's memory-access stream through the cache hierarchy alone — and
//! takes each layer's cost as the difference between adjacent passes
//! over the same cell, run back to back so that they share the host's
//! current speed.

use crate::trace::Spans;
use simdsim_emu::{DynInstr, MemAccess, NullSink, TraceSink};
use simdsim_isa::{DecodedInstr, Ext, Instr, Program, Region};
use simdsim_mem::MemSystem;
use simdsim_pipe::{simulate_decoded, simulate_decoded_profiled, PipeConfig};
use simdsim_sweep::{cell_key, Cell, CellStats, ResultStore, StoredCell, WorkloadRef};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric with its unit and direction, in report order.
/// A traced run prints all of them; a layer a workload does not exercise
/// reads 0 (see `perfbench/NOTES.md`).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("kernels.build_ms", "ms", "lower"),
    ("apps.build_ms", "ms", "lower"),
    ("isa.decode_us", "us", "lower"),
    ("emu.ns_per_instr", "ns", "lower"),
    ("emu.ns_per_instr.mmx64", "ns", "lower"),
    ("emu.ns_per_instr.mmx128", "ns", "lower"),
    ("emu.ns_per_instr.vmmx64", "ns", "lower"),
    ("emu.ns_per_instr.vmmx128", "ns", "lower"),
    ("pipe.ns_per_instr", "ns", "lower"),
    ("pipe.ns_per_instr.mmx64", "ns", "lower"),
    ("pipe.ns_per_instr.mmx128", "ns", "lower"),
    ("pipe.ns_per_instr.vmmx64", "ns", "lower"),
    ("pipe.ns_per_instr.vmmx128", "ns", "lower"),
    ("pipe.profile_ns_per_instr", "ns", "lower"),
    ("pipe.cell_fixed_us.mmx64.2way", "us", "lower"),
    ("pipe.cell_fixed_us.mmx64.4way", "us", "lower"),
    ("pipe.cell_fixed_us.mmx64.8way", "us", "lower"),
    ("pipe.cell_fixed_us.mmx128.2way", "us", "lower"),
    ("pipe.cell_fixed_us.mmx128.4way", "us", "lower"),
    ("pipe.cell_fixed_us.mmx128.8way", "us", "lower"),
    ("pipe.cell_fixed_us.vmmx64.2way", "us", "lower"),
    ("pipe.cell_fixed_us.vmmx64.4way", "us", "lower"),
    ("pipe.cell_fixed_us.vmmx64.8way", "us", "lower"),
    ("pipe.cell_fixed_us.vmmx128.2way", "us", "lower"),
    ("pipe.cell_fixed_us.vmmx128.4way", "us", "lower"),
    ("pipe.cell_fixed_us.vmmx128.8way", "us", "lower"),
    ("mem.ns_per_access", "ns", "lower"),
    ("mem.accesses_per_instr", "count", "lower"),
    ("sweep.engine_overhead_ms", "ms", "lower"),
    ("sweep.cell_key_us", "us", "lower"),
    ("sweep.store_load_us", "us", "lower"),
    ("sweep.store_save_us", "us", "lower"),
    ("sweep.store_hit_ratio", "ratio", "lower"),
    ("serve.deduped_ratio", "ratio", "lower"),
    ("serve.submit_ms.p50", "ms", "lower"),
    ("serve.submit_ms.tail", "ms", "lower"),
    ("serve.first_cell_ms", "ms", "lower"),
    ("serve.pages_per_job", "count", "lower"),
    ("serve.empty_page_ratio", "ratio", "lower"),
    ("serve.http_requests_per_job", "count", "lower"),
    ("serve.fleet_overhead_ms", "ms", "lower"),
    ("serve.leases_per_cell", "count", "lower"),
    ("client.worker_busy_ratio", "ratio", "higher"),
    ("traced.setup_s", "s", "lower"),
    ("traced.jobs_per_s", "1/s", "higher"),
    ("traced.job_p50_ms", "ms", "lower"),
    ("traced.job_tail_ms", "ms", "lower"),
    ("traced.peak_rss_mb", "MB", "lower"),
    ("traced.sim_mips", "Minstr/s", "higher"),
];

/// The processor widths the paper evaluates, in fig5 grid order.
pub const WAYS: [usize; 3] = [2, 4, 8];

/// Interleaved repetitions of a cell's emulate / simulate / profiled
/// runs; each layer takes the median.
const PROBE_REPS: usize = 3;

/// Halt-only simulations per (machine, width) when timing per-cell
/// fixed cost.
const FIXED_REPS: usize = 5;

/// Per-layer values by metric name; names never set print as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// The `PER_LAYER` name for `name`, so values are keyed by the canonical
/// `'static` strings.
///
/// # Panics
///
/// On a name missing from [`PER_LAYER`] (a bug in this benchmark).
#[must_use]
pub fn key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(n, _, _)| *n)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
}

/// A sink that keeps only the memory accesses of the dynamic stream, in
/// commit order.
#[derive(Default)]
struct MemTrace(Vec<MemAccess>);

impl TraceSink for MemTrace {
    fn push(&mut self, di: &DynInstr, _dec: &DecodedInstr) {
        if let Some(m) = di.mem {
            self.0.push(m);
        }
    }
}

/// Per-extension instruction-weighted totals.
#[derive(Default, Clone, Copy)]
struct ExtTotals {
    instrs: f64,
    emu_ns: f64,
    pipe_ns: f64,
}

/// Times the simulator-core layers over every one of `cells` (each with
/// the stats the workload produced for it).  Callers pass a fixed cell
/// set, so every traced run of a workload reduces over the same cells.
/// Store probes write to a scratch store under `work`, which is removed
/// afterwards.  Returns the layer values and the spans they were reduced
/// from.
///
/// # Errors
///
/// A message when a cell fails to build or simulate, or when a probe
/// disagrees with the workload's own result for the cell.
pub fn probe_core(cells: &[(Cell, CellStats)], work: &Path) -> Result<(Layers, Spans), String> {
    let mut spans = Spans::default();
    let store = ResultStore::new(work.join("probe-store"));
    let halt = Program::new(vec![Instr::Halt], vec![Region::Scalar]).decode();

    // The cells grouped by (workload, ext): one build and predecode each.
    type Pair<'a> = (&'a WorkloadRef, Ext, Vec<&'a (Cell, CellStats)>);
    let mut pairs: Vec<Pair<'_>> = Vec::new();
    for entry in cells {
        let (c, _) = entry;
        match pairs
            .iter_mut()
            .find(|(w, e, _)| **w == c.workload && *e == c.ext)
        {
            Some((_, _, v)) => v.push(entry),
            None => pairs.push((&c.workload, c.ext, vec![entry])),
        }
    }
    let mut per_ext: BTreeMap<&'static str, ExtTotals> = BTreeMap::new();
    let (mut prof_ns, mut instrs_total) = (0.0, 0.0);
    let (mut accesses, mut access_ns, mut mem_instrs) = (0.0, 0.0, 0.0);
    let mut fixed: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (workload, ext, group) in pairs {
        let build_span = match workload {
            WorkloadRef::Kernel(_) => "kernels.build",
            WorkloadRef::App(_) => "apps.build",
        };
        let built = spans.time(build_span, || workload.build(ext))?;
        let dec = spans.time("isa.decode", || built.program.decode());
        let mut scratch = built.machine.clone();
        for (cell, stats) in group {
            let label = cell.label();
            let cfg = cell.config()?;
            let limit = cell.instr_limit;
            let fail = |e: simdsim_emu::EmuError| format!("{label}: {e}");

            // Untimed first run: it allocates the pipeline's per-thread
            // scratch machine and warms the caches for the timed ones.
            let (_, ps) = simulate_decoded(&dec, &built.machine, &cfg, limit).map_err(fail)?;
            if ps.instrs != stats.instrs {
                return Err(format!(
                    "{label}: probe ran {} instructions, the workload reported {}",
                    ps.instrs, stats.instrs
                ));
            }
            let mut reps = [Vec::new(), Vec::new(), Vec::new()];
            for _ in 0..PROBE_REPS {
                scratch.reset_from(&built.machine);
                let t = Instant::now();
                scratch
                    .run_decoded(&dec, &mut NullSink, limit)
                    .map_err(fail)?;
                reps[0].push(t.elapsed().as_secs_f64() * 1.0e9);
                let t = Instant::now();
                simulate_decoded(&dec, &built.machine, &cfg, limit).map_err(fail)?;
                reps[1].push(t.elapsed().as_secs_f64() * 1.0e9);
                let t = Instant::now();
                simulate_decoded_profiled(&dec, &built.machine, &cfg, limit).map_err(fail)?;
                reps[2].push(t.elapsed().as_secs_f64() * 1.0e9);
            }
            let [emu, sim, prof] = reps.map(|r| crate::stats::median(&r).expect("PROBE_REPS > 0"));
            spans.record("emu.run_decoded", emu);
            spans.record("pipe.simulate_decoded", sim);
            spans.record("pipe.simulate_decoded_profiled", prof);

            let n = stats.instrs as f64;
            let tot = per_ext.entry(ext.name()).or_default();
            tot.instrs += n;
            tot.emu_ns += emu;
            tot.pipe_ns += sim - emu;
            prof_ns += prof - sim;
            instrs_total += n;

            scratch.reset_from(&built.machine);
            let mut trace = MemTrace::default();
            scratch.run_decoded(&dec, &mut trace, limit).map_err(fail)?;
            let mut mem = MemSystem::new(cfg.mem);
            let t = Instant::now();
            for (now, acc) in (0u64..).zip(&trace.0) {
                if acc.vector_path {
                    mem.vector_access(now, acc);
                } else {
                    mem.scalar_access(now, acc.addr, u64::from(acc.row_bytes), acc.store);
                }
            }
            let replay = t.elapsed().as_secs_f64() * 1.0e9;
            spans.record("mem.access_stream", replay);
            accesses += trace.0.len() as f64;
            access_ns += replay;
            mem_instrs += n;

            let key = spans.time("sweep.cell_key", || cell_key(cell, &cfg));
            let stored = StoredCell {
                label: label.clone(),
                stats: stats.clone(),
            };
            spans.time("sweep.store_save", || store.save(&key, &stored));
            let loaded = spans.time("sweep.store_load", || store.load(&key));
            if loaded.as_ref() != Some(&stored) {
                return Err(format!("{label}: the result store lost the saved cell"));
            }
        }
        for way in WAYS {
            let cfg = PipeConfig::paper(way, ext);
            let mut reps = Vec::with_capacity(FIXED_REPS);
            for _ in 0..FIXED_REPS {
                let t = Instant::now();
                simulate_decoded(&halt, &built.machine, &cfg, 1)
                    .map_err(|e| format!("halt-only {ext}/{way}way: {e}"))?;
                reps.push(t.elapsed().as_secs_f64() * 1.0e6);
            }
            let us = crate::stats::median(&reps).expect("FIXED_REPS > 0");
            fixed
                .entry(format!("pipe.cell_fixed_us.{}.{way}way", ext.name()))
                .or_default()
                .push(us);
        }
    }
    let _ = std::fs::remove_dir_all(store.dir());

    let mut out = Layers::new();
    out.insert(
        key("kernels.build_ms"),
        spans.median("kernels.build") / 1.0e6,
    );
    out.insert(key("apps.build_ms"), spans.median("apps.build") / 1.0e6);
    out.insert(key("isa.decode_us"), spans.median("isa.decode") / 1.0e3);
    let all = per_ext
        .values()
        .fold(ExtTotals::default(), |a, t| ExtTotals {
            instrs: a.instrs + t.instrs,
            emu_ns: a.emu_ns + t.emu_ns,
            pipe_ns: a.pipe_ns + t.pipe_ns,
        });
    let per = |ns: f64, n: f64| if n > 0.0 { ns / n } else { 0.0 };
    out.insert(key("emu.ns_per_instr"), per(all.emu_ns, all.instrs));
    out.insert(key("pipe.ns_per_instr"), per(all.pipe_ns, all.instrs));
    for (ext, t) in &per_ext {
        out.insert(
            key(&format!("emu.ns_per_instr.{ext}")),
            per(t.emu_ns, t.instrs),
        );
        out.insert(
            key(&format!("pipe.ns_per_instr.{ext}")),
            per(t.pipe_ns, t.instrs),
        );
    }
    out.insert(key("pipe.profile_ns_per_instr"), per(prof_ns, instrs_total));
    for (name, us) in &fixed {
        out.insert(key(name), crate::stats::median(us).unwrap_or(0.0));
    }
    out.insert(key("mem.ns_per_access"), per(access_ns, accesses));
    out.insert(key("mem.accesses_per_instr"), per(accesses, mem_instrs));
    out.insert(
        key("sweep.cell_key_us"),
        spans.median("sweep.cell_key") / 1.0e3,
    );
    out.insert(
        key("sweep.store_load_us"),
        spans.median("sweep.store_load") / 1.0e3,
    );
    out.insert(
        key("sweep.store_save_us"),
        spans.median("sweep.store_save") / 1.0e3,
    );
    Ok((out, spans))
}
