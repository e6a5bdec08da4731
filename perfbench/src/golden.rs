//! Output checks against the committed golden fixture
//! `tests/golden/pipestats.json` (every fig4 + fig5 cell's `PipeStats`).

use serde::Value;
use simdsim_pipe::PipeStats;
use simdsim_sweep::CellStats;
use std::collections::HashMap;

const FIXTURE: &str = include_str!("../../tests/golden/pipestats.json");

/// The golden cells, by label (`fig4/idct/mmx64/2way`).
pub struct Golden {
    cells: HashMap<String, Value>,
}

impl Golden {
    /// Parses the fixture.
    ///
    /// # Errors
    ///
    /// A message when the fixture is not a JSON object.
    pub fn load() -> Result<Self, String> {
        match serde_json::from_str::<Value>(FIXTURE) {
            Ok(Value::Object(pairs)) => Ok(Self {
                cells: pairs.into_iter().collect(),
            }),
            Ok(_) => Err("golden fixture is not a JSON object".to_owned()),
            Err(e) => Err(format!("golden fixture does not parse: {e}")),
        }
    }

    /// `true` when `stats` equals the fixture's full `PipeStats` for
    /// `label`, compared as canonical JSON exactly as the golden-parity
    /// suite compares them.
    #[must_use]
    pub fn matches_all(&self, label: &str, stats: &CellStats) -> bool {
        let Some(expected) = self.cells.get(label) else {
            return false;
        };
        let got = PipeStats {
            cycles: stats.cycles,
            instrs: stats.instrs,
            counts: stats.counts,
            scalar_region_cycles: stats.scalar_cycles,
            vector_region_cycles: stats.vector_cycles,
            branches: stats.branches,
            mispredicts: stats.mispredicts,
            l1: stats.l1,
            l2: stats.l2,
            memsys: stats.memsys,
        };
        serde_json::to_string(&got).ok() == serde_json::to_string(expected).ok()
    }

    /// `true` when `stats` has the fixture's architectural numbers for
    /// `label` — committed instructions and per-class counts, which no
    /// timing parameter can change.
    #[must_use]
    pub fn matches_architectural(&self, label: &str, stats: &CellStats) -> bool {
        let Some(expected) = self.cells.get(label) else {
            return false;
        };
        let instrs = serde_json::to_string(&stats.instrs).ok();
        let counts = serde_json::to_string(&stats.counts).ok();
        expected
            .get("instrs")
            .and_then(|v| serde_json::to_string(v).ok())
            == instrs
            && expected
                .get("counts")
                .and_then(|v| serde_json::to_string(v).ok())
                == counts
    }
}

/// `true` when the cell's CPI stack accounts for every commit slot:
/// `issue + Σ stalls == cycles × way`.  A cell without a stack fails.
#[must_use]
pub fn slots_balance(stats: &CellStats, way: usize) -> bool {
    stats.profile.as_ref().is_some_and(|p| {
        p.issue_total() + p.stall_total() == stats.cycles * way as u64
            && p.slots == stats.cycles * way as u64
    })
}
