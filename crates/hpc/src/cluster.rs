//! Cluster descriptions and presets for the machines the paper used.

/// Static description of an HPC resource.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub name: String,
    pub nodes: usize,
    pub cores_per_node: usize,
    /// Relative per-core speed (1.0 = the SuperMIC Ivy Bridge cores the
    /// paper's timings are calibrated against).
    pub core_speed: f64,
    /// Per-task launch latency contributed by the resource manager (seconds).
    pub task_launch_latency: f64,
    /// Shared-filesystem parameters.
    pub fs: FilesystemSpec,
}

/// Parallel-filesystem performance model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilesystemSpec {
    /// Per-operation latency in seconds (metadata + open/close).
    pub latency: f64,
    /// Aggregate bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Number of concurrent streams the FS sustains at full aggregate
    /// bandwidth; beyond this, streams share.
    pub stripe_width: usize,
}

impl ClusterSpec {
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// TACC Stampede (Sandy Bridge, 16 cores/node) — the paper's M-REMD and
    /// multi-core-replica experiments ran here.
    pub fn stampede() -> Self {
        ClusterSpec {
            name: "stampede".into(),
            nodes: 6400,
            cores_per_node: 16,
            core_speed: 0.85,
            task_launch_latency: 0.10,
            fs: FilesystemSpec { latency: 0.012, bandwidth: 60e9, stripe_width: 160 },
        }
    }

    /// LSU SuperMIC (Ivy Bridge, 20 cores/node) — the paper's 1-D REMD and
    /// overhead-characterization experiments ran here.
    pub fn supermic() -> Self {
        ClusterSpec {
            name: "supermic".into(),
            nodes: 360,
            cores_per_node: 20,
            core_speed: 1.0,
            task_launch_latency: 0.08,
            fs: FilesystemSpec { latency: 0.010, bandwidth: 40e9, stripe_width: 112 },
        }
    }

    /// A small departmental cluster (the paper's motivating Execution Mode II
    /// scenario: 128 cores, 10 000 replicas).
    pub fn small_cluster(cores: usize) -> Self {
        let cores_per_node = 16;
        ClusterSpec {
            name: format!("small-{cores}"),
            nodes: cores.div_ceil(cores_per_node),
            cores_per_node,
            core_speed: 0.9,
            task_launch_latency: 0.15,
            fs: FilesystemSpec { latency: 0.02, bandwidth: 5e9, stripe_width: 16 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let s = ClusterSpec::stampede();
        assert!(s.total_cores() >= 100_000, "Stampede had >100k cores");
        let m = ClusterSpec::supermic();
        assert_eq!(m.cores_per_node, 20);
        assert!(m.total_cores() >= 7000);
    }

    #[test]
    fn small_cluster_rounds_nodes_up() {
        let c = ClusterSpec::small_cluster(130);
        assert!(c.total_cores() >= 130);
        assert_eq!(c.nodes, 9);
    }
}
