//! Shape-level regression tests for the paper's headline claims, at
//! evaluation scale. The four take about 9 s together in a release build
//! on a 2-vCPU host; they are `#[ignore]`d so tier-1 stays fast, and CI
//! runs them with:
//!
//! ```text
//! cargo test --release -p bigtiny-tests --test paper_claims -- --ignored
//! ```

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{geomean, run_app, Setup};
use bigtiny_core::RuntimeKind;
use bigtiny_engine::Protocol;

const SUBSET: [&str; 3] = ["cilk5-cs", "ligra-bfs", "ligra-cc"];

/// big.TINY/MESI outperforms the area-equivalent O3x8 (paper: 16.9 vs 14.7
/// geomean over serial).
#[test]
#[ignore = "evaluation-scale; ~9 s for all four in --release"]
fn big_tiny_beats_area_equivalent_o3x8() {
    let mut ratios = Vec::new();
    for name in SUBSET {
        let app = app_by_name(name).unwrap();
        let o3 = run_app(&Setup::o3(8), &app, AppSize::Eval, 0).cycles;
        let bt = run_app(&Setup::bt_mesi(), &app, AppSize::Eval, 0).cycles;
        ratios.push(o3 as f64 / bt as f64);
    }
    let g = geomean(ratios.iter().copied());
    assert!(g > 1.0, "b.T/MESI vs O3x8 geomean speedup {g:.2} must exceed 1");
}

/// DTS recovers the HCC performance loss on GPU-WB (paper: 0.96 -> 1.21;
/// here we require DTS to clearly beat the HCC runtime it replaces).
#[test]
#[ignore = "evaluation-scale; ~9 s for all four in --release"]
fn dts_beats_hcc_runtime_on_gwb() {
    let mut ratios = Vec::new();
    for name in SUBSET {
        let app = app_by_name(name).unwrap();
        let hcc = run_app(&Setup::bt_hcc(Protocol::GpuWb, false), &app, AppSize::Eval, 0).cycles;
        let dts = run_app(&Setup::bt_hcc(Protocol::GpuWb, true), &app, AppSize::Eval, 0).cycles;
        ratios.push(hcc as f64 / dts as f64);
    }
    let g = geomean(ratios.iter().copied());
    assert!(g > 1.05, "DTS vs HCC geomean speedup {g:.2} must be clearly above 1");
}

/// At 256 cores the DTS advantage grows and exceeds full hardware coherence
/// (Table V's headline).
#[test]
#[ignore = "evaluation-scale; ~9 s for all four in --release"]
fn dts_exceeds_mesi_at_256_cores() {
    // The 256-core machine needs the Large inputs to have enough
    // parallelism (Table V's setup).
    let app = app_by_name("ligra-cc").unwrap();
    let mesi =
        run_app(&Setup::bt_256(Protocol::Mesi, RuntimeKind::Baseline), &app, AppSize::Large, 0);
    let dts = run_app(&Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts), &app, AppSize::Large, 0);
    let ratio = mesi.cycles as f64 / dts.cycles as f64;
    assert!(ratio > 1.0, "256-core DTS-gwb vs MESI: {ratio:.2} must exceed 1");
}

/// Table IV's mechanism: DTS cuts tiny-core line invalidations and flushes
/// substantially at evaluation scale.
#[test]
#[ignore = "evaluation-scale; ~9 s for all four in --release"]
fn dts_cuts_invalidations_and_flushes_at_scale() {
    let app = app_by_name("ligra-bfs").unwrap();
    let hcc = run_app(&Setup::bt_hcc(Protocol::GpuWb, false), &app, AppSize::Eval, 0);
    let dts = run_app(&Setup::bt_hcc(Protocol::GpuWb, true), &app, AppSize::Eval, 0);
    let (hi, di) = (hcc.tiny_mem().lines_invalidated, dts.tiny_mem().lines_invalidated);
    let (hf, df) = (hcc.tiny_mem().lines_flushed, dts.tiny_mem().lines_flushed);
    assert!((di as f64) < 0.5 * hi as f64, "InvDec: {di} vs {hi}");
    assert!((df as f64) < 0.4 * hf as f64, "FlsDec: {df} vs {hf}");
    assert!(dts.l1d_hit_rate() > hcc.l1d_hit_rate(), "hit rate must increase");
}
