//! Multi-dimensional REMD at paper scale on the virtual cluster: a TSU
//! (temperature × salt × umbrella) simulation with 512 replicas on
//! Stampede, shown twice — Execution Mode I (512 cores) and Execution
//! Mode II (64 cores) — from the *same* configuration, changing only the
//! core count. This is the decoupling the paper's design is about.
//!
//! ```sh
//! cargo run --release -p repex-examples --bin multidim_tsu
//! ```

use repex::config::{DimensionConfig, SimulationConfig};
use repex::simulation::RemdSimulation;

fn base_config() -> SimulationConfig {
    let mut cfg = SimulationConfig::t_remd(8, 6000, 2);
    cfg.title = "TSU 8x8x8".into();
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 8 },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 8 },
        DimensionConfig::Umbrella { dihedral: "phi".into(), count: 8, k_deg: 0.02 },
    ];
    cfg.resource.cluster = "stampede".into();
    cfg.surrogate_steps = 10;
    cfg
}

fn main() {
    println!("TSU-REMD, 512 replicas, simulated Stampede backend.\n");
    for cores in [None, Some(64)] {
        let mut cfg = base_config();
        cfg.resource.cores = cores;
        let label = match cores {
            None => "Execution Mode I  (512 cores)".to_string(),
            Some(c) => format!("Execution Mode II ({c} cores)"),
        };
        let report = RemdSimulation::new(cfg).expect("valid config").run().expect("run");
        println!("--- {label} ---");
        println!("{}", report.summary());
        let avg = report.average_timing();
        println!("  MD: {:.1}s across 3 dimension passes", avg.t_md);
        for (kind, t) in &avg.t_ex {
            println!("  {kind} exchange: {t:.1}s");
        }
        for (letter, acc) in &report.acceptance {
            println!("  {letter} acceptance: {:.0}%", acc.ratio() * 100.0);
        }
        println!();
    }
    println!(
        "Same simulation, same physics — only `resource.cores` changed. The pilot's\n\
         core timeline batches the replicas into waves automatically in Mode II."
    );
}
