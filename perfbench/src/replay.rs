//! `replay`: the paper's full fig4 + fig5 grid (116 cells, 57.8 M dynamic
//! instructions), cold, in-process through `sweep::run` on one engine
//! thread with profiling at the engine default.
//!
//! The timed phase repeats whole passes over the grid while another pass
//! still fits in `--seconds`, each pass pinned to the next of the CPUs
//! the process may use.  Other tenants of the host slow each CPU down in
//! phases of seconds to minutes, largely independently of the other CPU,
//! so a cell's repetitions land in different phases of both.  Each
//! cell's wall time is the fastest of its repetitions (slow phases only
//! ever add time), and the grid's wall time is the sum of those minima
//! plus the median engine overhead; `jobs_per_s` is cells per second of
//! that wall time.  The latency median and tail are taken over the same
//! per-cell minima.  The grid itself is fixed (it is the paper's); the
//! seed only draws the order of the two scenarios within each pass.

use crate::gen::Rng;
use crate::golden::{slots_balance, Golden};
use crate::layers::{self, key, WAYS};
use crate::stats::{hd_quantile, median, per_cell_minima, tail};
use crate::{host, EndToEnd, Opts, Outcome};
use simdsim_isa::Ext;
use simdsim_sweep::{catalog, Cell, CellStats, EngineOptions, Scenario, WorkloadRef};
use std::time::Instant;

/// Set-up repetitions made before the timed phase and again after each
/// pass; `setup_s` is the median of all of them.  One set-up takes about
/// 70 ms, so a block of them made at one moment would all land in the
/// same slow or fast phase of the host; spread over the run, they see
/// the same mix of phases as the timed passes.
const SETUP_REPS: usize = 3;

/// The fixed subset of the grid the traced run probes layer by layer:
/// every fig4 cell, and for the `k`-th (app, ext) pair of fig5 in grid
/// order the cell at width `WAYS[k % 3]`, so each extension is probed at
/// every width (twice each over the six apps).  That is 68 of the 116
/// cells and a third of the grid's instructions: a probe over the whole
/// grid would not fit the run's time limit after a full timed phase.
fn probe_cells(grid: Vec<(Cell, CellStats)>) -> Vec<(Cell, CellStats)> {
    let mut app_pairs: Vec<(WorkloadRef, Ext)> = Vec::new();
    grid.into_iter()
        .filter(|(c, _)| match c.workload {
            WorkloadRef::Kernel(_) => true,
            WorkloadRef::App(_) => {
                let k = match app_pairs
                    .iter()
                    .position(|(w, e)| *w == c.workload && *e == c.ext)
                {
                    Some(k) => k,
                    None => {
                        app_pairs.push((c.workload.clone(), c.ext));
                        app_pairs.len() - 1
                    }
                };
                c.way == WAYS[k % WAYS.len()]
            }
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// A message when set-up cannot build a workload or a pass produces
/// fewer cells than the grid.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let golden = Golden::load()?;
    let scenarios: [Scenario; 2] = [catalog::fig4(), catalog::fig5()];
    let grid: Vec<Vec<Cell>> = scenarios.iter().map(Scenario::expand).collect();
    let offsets = [0, grid[0].len()];
    let total = grid[0].len() + grid[1].len();

    // Set-up: build and predecode every distinct (workload, ext) pair,
    // before the timed phase and again after each pass.
    let mut pairs: Vec<(WorkloadRef, Ext)> = Vec::new();
    for c in grid.iter().flatten() {
        if !pairs.iter().any(|(w, e)| *w == c.workload && *e == c.ext) {
            pairs.push((c.workload.clone(), c.ext));
        }
    }
    let mut setup = Vec::new();
    let mut set_up = || -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            for (w, e) in &pairs {
                let built = w.build(*e)?;
                std::hint::black_box(built.program.decode());
            }
            setup.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    };
    set_up()?;

    // Timed phase: whole passes, round-robin over the grid, each pinned to
    // the next CPU the process may use (see the module docs).
    let engine = EngineOptions::default().jobs(1);
    let mut rng = Rng::new(opts.seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut unbalanced = 0u64;
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();
    let mut pass_walls: Vec<f64> = Vec::new();
    let mut last: Vec<Option<(Cell, CellStats)>> = vec![None; total];
    let mut instrs = 0u64;
    let cpus = host::allowed_cpus();
    let start = Instant::now();
    loop {
        if cpus.len() > 1 {
            host::pin_to(&[cpus[rounds.len() % cpus.len()]]);
        }
        let first = rng.below(2);
        let mut walls = vec![0.0; total];
        let mut overhead = 0.0;
        let pass = Instant::now();
        for k in 0..2 {
            let s = (first + k) % 2;
            let t = Instant::now();
            let report = simdsim_sweep::run(&scenarios[s], &engine);
            let wall_ms = t.elapsed().as_secs_f64() * 1.0e3;
            if report.outcomes.len() != grid[s].len() {
                return Err(format!(
                    "{} ran {} cells, expected {}",
                    scenarios[s].name,
                    report.outcomes.len(),
                    grid[s].len()
                ));
            }
            let mut cells_ms = 0.0;
            for (i, o) in report.outcomes.into_iter().enumerate() {
                let ms = o.wall.as_secs_f64() * 1.0e3;
                cells_ms += ms;
                walls[offsets[s] + i] = ms;
                attempted += 1;
                let label = o.cell.label();
                match o.stats {
                    Ok(st) if !o.cached && golden.matches_all(&label, &st) => {
                        if !slots_balance(&st, o.cell.way) {
                            unbalanced += 1;
                        }
                        instrs += st.instrs;
                        last[offsets[s] + i] = Some((o.cell, st));
                    }
                    Ok(_) => {
                        failed += 1;
                        eprintln!("perfbench: {label}: stats differ from the golden fixture");
                    }
                    Err(e) => {
                        failed += 1;
                        eprintln!("perfbench: {e}");
                    }
                }
            }
            overhead += wall_ms - cells_ms;
        }
        let pass = pass.elapsed();
        pass_walls.push(pass.as_secs_f64());
        rounds.push(walls);
        overheads.push(overhead);
        set_up()?;
        if start.elapsed() + pass > opts.seconds {
            break;
        }
    }
    if cpus.len() > 1 {
        host::pin_to(&cpus);
    }
    let peak_rss_mb = host::peak_rss_mb();

    let per_cell = per_cell_minima(&rounds);
    let overhead_ms = median(&overheads).expect("at least one pass");
    let wall_s = (per_cell.iter().sum::<f64>() + overhead_ms) / 1.0e3;
    let passes = rounds.len();
    let grid_instrs = instrs as f64 / passes as f64;
    let e2e = EndToEnd {
        setup_s: median(&setup).expect("SETUP_REPS > 0"),
        jobs_per_s: total as f64 / wall_s,
        job_p50_ms: hd_quantile(&per_cell, 0.5).expect("the grid has cells"),
        job_tail: tail(&per_cell).ok_or("the grid has too few cells for a tail")?,
        peak_rss_mb,
        sim_mips: grid_instrs / wall_s / 1.0e6,
        wall_s: Some(wall_s),
    };
    let notes = vec![
        format!(
            "replay: {passes} passes over {total} cells ({:.1} M instrs each), taking turns on CPUs {cpus:?}; pass wall s: {}",
            grid_instrs / 1.0e6,
            pass_walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "replay: wall_s is the sum of per-cell minima plus the median engine overhead ({overhead_ms:.3} ms); \
             the median pass's cells took {:.3} s",
            median(&rounds.iter().map(|r| r.iter().sum::<f64>() / 1.0e3).collect::<Vec<_>>())
                .expect("at least one pass")
        ),
        format!("replay: setup_s is the median of {} set-ups", setup.len()),
    ];
    let checks = vec![
        (
            format!(
                "{} of {attempted} cell runs equal tests/golden/pipestats.json",
                attempted - failed
            ),
            failed == 0,
        ),
        (
            format!("{unbalanced} cells break issue + stalls == cycles x way"),
            unbalanced == 0,
        ),
    ];

    let (mut layer_values, mut spans) = Default::default();
    if opts.trace {
        let cells = probe_cells(last.into_iter().flatten().collect());
        (layer_values, spans) = layers::probe_core(&cells, &opts.work)?;
        layer_values.insert(key("sweep.engine_overhead_ms"), overhead_ms);
    }
    Ok(Outcome {
        attempted,
        failed: failed + unbalanced,
        checks,
        e2e,
        layers: layer_values,
        spans,
        notes,
    })
}
