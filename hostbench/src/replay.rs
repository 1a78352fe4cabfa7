//! Coherence-layer timing by replay: a check-armed run's `mem_events`, in
//! grant order, are fed through a fresh `MemorySystem` with the same
//! configuration. The replay must reproduce the run's per-core memory
//! stats and data-OCN traffic exactly, or its timing does not describe
//! the coherence work the run did.

use bigtiny_coherence::MemorySystem;
use bigtiny_engine::{MemOp, RunReport, SystemConfig};

/// Replays `report.mem_events` on a fresh memory system of `sys`, and
/// fails unless the replayed `CoreMemStats` and `TrafficStats` equal the
/// run's `mem_stats` and `traffic`. Returns the memory operations
/// replayed (loads, stores, AMOs and bulk cache operations).
pub fn replay(sys: &SystemConfig, report: &RunReport) -> Result<u64, String> {
    let mut mem = MemorySystem::new(&sys.mem_config());
    let mut accesses = 0u64;
    for e in &report.mem_events {
        let (core, now) = (e.core, e.cycle);
        match e.op {
            MemOp::Load { addr, racy: None } => {
                mem.load(core, addr, now);
            }
            MemOp::Load { addr, racy: Some(_) } => {
                mem.load_racy(core, addr, now);
            }
            MemOp::Store { addr, .. } => {
                mem.store(core, addr, now);
            }
            MemOp::Amo { addr } => {
                mem.amo(core, addr, now);
            }
            MemOp::InvalidateAll => {
                mem.invalidate_all(core, now);
            }
            MemOp::FlushAll => {
                mem.flush_all(core, now);
            }
            MemOp::Sync(_) => continue,
        }
        accesses += 1;
    }
    if mem.all_stats() != report.mem_stats.as_slice() {
        let core = (0..report.mem_stats.len())
            .find(|&c| mem.all_stats()[c] != report.mem_stats[c])
            .unwrap_or(0);
        return Err(format!(
            "replayed memory stats differ on core {core}: replay {:?} vs run {:?}",
            mem.all_stats().get(core),
            report.mem_stats.get(core)
        ));
    }
    if *mem.traffic() != report.traffic {
        return Err(format!(
            "replayed traffic differs: replay {:?} vs run {:?}",
            mem.traffic(),
            report.traffic
        ));
    }
    Ok(accesses)
}
