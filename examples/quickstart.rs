//! Quickstart: write a small MPU program with ezpim, run it gate-exactly
//! on the simulated RACER datapath, and read back results and costs.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mpu::backend::DatapathKind;
use mpu::ezpim::{Cond, EzProgram};
use mpu::isa::RegId;
use mpu::mastodon::{run_single, SimConfig};

fn r(i: u16) -> RegId {
    RegId(i)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A per-lane dynamic computation: keep halving r0 until it drops
    // below the threshold in r1, counting iterations in r4.
    //
    //   while (r0 > r1) { r0 = r0 / r2; r4 += 1 }
    let mut ez = EzProgram::new();
    ez.ensemble(&[(0, 0)], |b| {
        b.init0(r(4));
        b.while_loop(Cond::Gt(r(0), r(1)), |b| {
            b.qdiv(r(0), r(2), r(3));
            b.mov(r(3), r(0));
            b.inc(r(4), r(4));
        });
    })?;
    let program = ez.assemble()?;

    println!("ezpim statements: {}", ez.statements());
    println!("lowered MPU ISA ({} instructions):\n{program}", program.len());

    // Load data: 64 lanes, each with its own starting value — lanes
    // diverge and the EFI exits the loop only when every lane is done.
    let starts: Vec<u64> = (0..64).map(|i| 1 << (i % 20)).collect();
    let config = SimConfig::mpu(DatapathKind::Racer);
    let (stats, mut mpu) = run_single(
        config,
        &program,
        &[((0, 0, 0), starts.clone()), ((0, 0, 1), vec![2; 64]), ((0, 0, 2), vec![2; 64])],
    )?;

    let counts = mpu.read_register(0, 0, 4)?;
    for lane in [0usize, 5, 13, 19] {
        println!("lane {lane:2}: start {:>8} -> {} halvings", starts[lane], counts[lane]);
        // Cross-check against the obvious host computation.
        let mut x = starts[lane];
        let mut n = 0;
        while x > 2 {
            x /= 2;
            n += 1;
        }
        assert_eq!(counts[lane], n);
    }

    println!(
        "\n{} ISA instructions executed as {} micro-ops in {} cycles ({:.2} us)",
        stats.instructions,
        stats.uops,
        stats.cycles,
        stats.time_us()
    );
    println!(
        "energy: datapath {:.1} nJ, front end {:.1} nJ (recipe-cache hit rate {:.0}%)",
        stats.energy.datapath_fj as f64 / 1e6,
        stats.energy.frontend_fj as f64 / 1e6,
        100.0 * stats.recipe_hit_rate()
    );
    println!("no host CPU was involved: {} offload events", stats.offload_events);
    Ok(())
}
