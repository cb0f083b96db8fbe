//! One `RecipePool` shared by datapaths that synthesize the same recipes
//! but cost them differently must still charge each datapath its own
//! cycles and energy.
//!
//! RACER, RACER with bit-pipelining off, and a NOR datapath with its own
//! micro-op costs agree on logic family, temporary registers, optimizer
//! configuration and VRF geometry. A pool keyed on those alone served all
//! three the compiled costs and fused traces of whichever ran first, so
//! `sobel` on the unpipelined RACER read RACER's pipelined stage times.

use mastodon::{ExecutionMode, RecipePool, SimConfig};
use pum_backend::{DatapathBuilder, DatapathKind, LogicFamily, MicroOpKind};
use std::sync::Arc;
use workloads::{all_kernels, run_kernel, run_kernel_pooled};

/// An unpipelined NOR datapath on RACER's default geometry with the given
/// micro-op costs.
fn nor(name: &str, cycles: u64, pj: [f64; 3]) -> SimConfig {
    let dp = DatapathBuilder::new(name, LogicFamily::Nor)
        .uop(MicroOpKind::Nor, cycles, pj[0])
        .uop(MicroOpKind::Copy, cycles, pj[1])
        .uop(MicroOpKind::Set, cycles, pj[2])
        .build();
    SimConfig::new(dp, ExecutionMode::Mpu)
}

#[test]
fn a_shared_pool_charges_each_datapath_its_own_costs() {
    let kernels = all_kernels();
    let sobel = kernels.iter().find(|k| k.name() == "sobel").expect("sobel kernel");
    let configs = [
        SimConfig::mpu(DatapathKind::Racer),
        nor("RACER-nopipe", 2, [0.020, 0.025, 0.012]),
        nor("NOR-slow", 7, [0.5; 3]),
    ];
    let pool = Arc::new(RecipePool::new());
    for config in &configs {
        let shared = run_kernel_pooled(sobel.as_ref(), config, 4096, 1, Some(&pool))
            .expect("sobel on the shared pool");
        let private = run_kernel(sobel.as_ref(), config, 4096, 1).expect("sobel on its own pool");
        assert_eq!(shared.wave, private.wave, "{}: shared-pool stats", config.label());
    }
}
