//! Seeded workload generators.  Every generator is a pure function of
//! the `--seed` argument: the same seed yields the same jobs, and the
//! program under test only ever sees the generated sweep requests.

use simdsim_isa::Ext;
use simdsim_sweep::Scenario;

/// Kernels per service sweep.
pub const KERNELS_PER_JOB: usize = 3;

/// Processor width of every service sweep (the paper's 2-way core).
pub const WAY: usize = 2;

/// The first `redirect_penalty` a generated job uses.  Jobs count up
/// from here, so no two jobs of one run share a configuration, and none
/// shares the paper's default penalty (5) with the golden fig4 cells.
const FIRST_PENALTY: u64 = 6;

/// SplitMix64: a tiny, well-mixed generator whose whole state is the
/// seed, so workloads are reproducible from `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One service sweep: three distinct fig4 kernels on one extension at the
/// paper's 2-way width, with its own branch-redirect penalty so that no
/// two jobs coalesce or share a store entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The kernels, in scenario order.
    pub kernels: [String; KERNELS_PER_JOB],
    /// The extension every cell runs on.
    pub ext: Ext,
    /// The job's `redirect_penalty` override.
    pub penalty: u64,
}

impl Job {
    /// The job as an inline scenario document.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        Scenario::new(
            &format!("bench-{}", self.penalty),
            "benchmark sweep: fig4 kernels with a per-job redirect penalty",
        )
        .kernels(self.kernels.iter().cloned())
        .exts([self.ext])
        .ways([WAY])
        .override_axis("redirect_penalty", [self.penalty])
    }
}

/// The fig4 kernel names, in registry order.
#[must_use]
pub fn kernel_names() -> Vec<String> {
    simdsim_kernels::registry()
        .iter()
        .map(|k| k.spec().name.to_owned())
        .collect()
}

/// `count` jobs, the `i`-th with penalty `FIRST_PENALTY + i`.  The
/// first `warmup` are the same for every seed: job `w` runs the kernels
/// `3w, 3w + 1, 3w + 2` (mod the registry size) on extension `w mod 4`,
/// so a set-up that runs them does the same work in every run.  The rest
/// are drawn from `seed`.
#[must_use]
pub fn jobs(seed: u64, warmup: usize, count: usize) -> Vec<Job> {
    let names = kernel_names();
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            let mut picked: Vec<usize> = Vec::with_capacity(KERNELS_PER_JOB);
            while picked.len() < KERNELS_PER_JOB {
                let k = if i < warmup {
                    (KERNELS_PER_JOB * i + picked.len()) % names.len()
                } else {
                    rng.below(names.len())
                };
                if !picked.contains(&k) {
                    picked.push(k);
                }
            }
            let ext = if i < warmup {
                Ext::ALL[i % Ext::ALL.len()]
            } else {
                Ext::ALL[rng.below(Ext::ALL.len())]
            };
            Job {
                kernels: std::array::from_fn(|j| names[picked[j]].clone()),
                ext,
                penalty: FIRST_PENALTY + i as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(jobs(7, 8, 50), jobs(7, 8, 50));
        assert_ne!(jobs(7, 8, 50), jobs(8, 8, 50));
        // A longer draw extends a shorter one: run length never changes
        // which jobs come first.
        assert_eq!(jobs(7, 8, 10)[..], jobs(7, 8, 50)[..10]);
        // The warm-up prefix does not depend on the seed at all.
        assert_eq!(jobs(7, 8, 50)[..8], jobs(8, 8, 50)[..8]);
        assert_ne!(jobs(7, 8, 50)[8..], jobs(8, 8, 50)[8..]);
    }

    #[test]
    fn jobs_have_distinct_kernels_and_distinct_penalties() {
        let js = jobs(11, 8, 200);
        let names: HashSet<String> = kernel_names().into_iter().collect();
        for j in &js {
            let ks: HashSet<&String> = j.kernels.iter().collect();
            assert_eq!(ks.len(), KERNELS_PER_JOB);
            assert!(j.kernels.iter().all(|k| names.contains(k)));
            assert_ne!(j.penalty, 5);
        }
        let penalties: HashSet<u64> = js.iter().map(|j| j.penalty).collect();
        assert_eq!(penalties.len(), js.len());
        assert_eq!(js[0].penalty, FIRST_PENALTY);
    }

    #[test]
    fn a_job_expands_to_three_two_way_cells_with_its_penalty() {
        let job = &jobs(1, 0, 1)[0];
        let cells = job.scenario().expand();
        assert_eq!(cells.len(), KERNELS_PER_JOB);
        for c in &cells {
            assert_eq!((c.ext, c.way), (job.ext, WAY));
            let cfg = c.config().expect("paper config with an override");
            assert_eq!(cfg.redirect_penalty, job.penalty);
        }
    }
}
