//! Weighted fair-share scheduling over one shared core pool.
//!
//! Tenants are charged `core-seconds / weight` for every slice their
//! campaigns run; the planner always serves the least-charged tenant
//! first (deficit fairness), with priority-then-FIFO order within equal
//! charge. Admission into a planning round is head-of-line: the scan
//! stops at the first candidate that does not fit, so a wide campaign
//! cannot be starved by a stream of narrow ones slipping past it — the
//! cores it is waiting for drain and it starts on the next tick.
//!
//! Combined with sliced execution (a running campaign checkpoints,
//! releases its cores and re-queues every few cycles), this converges to
//! long-run busy-core shares proportional to tenant weights whenever the
//! queue is saturated — the property tests below drive exactly that.

use hpc::pool::{CorePool, PoolError};
use std::collections::HashMap;

/// Weights below this are clamped — a zero or negative weight would make
/// normalized usage meaningless (admission rejects them anyway).
const MIN_WEIGHT: f64 = 1e-6;

/// One schedulable candidate (a queued job, or a queued slice of one).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub id: String,
    pub tenant: String,
    pub weight: f64,
    pub priority: u8,
    pub seq: u64,
    pub cores: usize,
}

/// The fair-share planner: a [`CorePool`] plus per-tenant normalized
/// usage accounting.
#[derive(Debug)]
pub struct FairShare {
    pool: CorePool,
    /// Cumulative normalized usage (core-seconds / weight) per tenant.
    charged: HashMap<String, f64>,
    /// Latest weight seen per tenant (updated at start time).
    weights: HashMap<String, f64>,
    peak_leased: usize,
}

impl FairShare {
    pub fn new(pool_cores: usize) -> Self {
        FairShare {
            pool: CorePool::new(pool_cores),
            charged: HashMap::new(),
            weights: HashMap::new(),
            peak_leased: 0,
        }
    }

    /// The underlying pool (read-only).
    pub fn pool(&self) -> &CorePool {
        &self.pool
    }

    /// Cores available right now.
    pub fn free_cores(&self) -> usize {
        self.pool.free()
    }

    /// High-water mark of simultaneously leased cores.
    pub fn peak_leased(&self) -> usize {
        self.peak_leased
    }

    /// Normalized usage of a tenant (0 for tenants never charged).
    pub fn usage(&self, tenant: &str) -> f64 {
        self.charged.get(tenant).copied().unwrap_or(0.0)
    }

    /// Plan which queued candidates start now. Pure: the caller commits a
    /// planned start with [`Self::start`] (and the plan is recomputed
    /// every scheduling tick, so a plan is never stale for long).
    pub fn plan(&self, queued: &[Candidate]) -> Vec<Candidate> {
        let mut order: Vec<&Candidate> = queued.iter().collect();
        order.sort_by(|a, b| {
            self.usage(&a.tenant)
                .partial_cmp(&self.usage(&b.tenant))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.priority.cmp(&a.priority))
                .then(a.seq.cmp(&b.seq))
        });
        let mut free = self.pool.free();
        let mut out = Vec::new();
        for c in order {
            if c.cores <= free {
                free -= c.cores;
                out.push(c.clone());
            } else {
                // Head-of-line blocking: leave the remaining cores idle
                // for this round rather than let later (more-charged or
                // newer) candidates jump past a wide campaign forever.
                break;
            }
        }
        out
    }

    /// Commit a planned start: lease the candidate's cores.
    pub fn start(&mut self, c: &Candidate) -> Result<(), PoolError> {
        self.pool.try_lease(&c.id, &c.tenant, c.cores)?;
        self.weights.insert(c.tenant.clone(), c.weight.max(MIN_WEIGHT));
        self.peak_leased = self.peak_leased.max(self.pool.leased());
        Ok(())
    }

    /// Charge a tenant the *predicted* cost of a campaign up front, at
    /// admission time (DESIGN.md §14). Until the estimate is credited
    /// back at the job's terminal state, the tenant's fair-share rank
    /// already reflects the allocation it has spoken for — a tenant
    /// cannot jump the queue by front-loading expensive campaigns that
    /// have not started burning cores yet.
    pub fn charge_estimate(&mut self, tenant: &str, weight: f64, core_seconds: f64) {
        let w = weight.max(MIN_WEIGHT);
        *self.charged.entry(tenant.to_string()).or_default() += core_seconds.max(0.0) / w;
    }

    /// Credit an up-front estimate back once the job reaches a terminal
    /// state: from then on only the *actual* slice charges (see
    /// [`Self::finish`]) remain on the tenant's account. Pass the same
    /// weight used at [`Self::charge_estimate`] so the two cancel
    /// exactly; the balance is floored at zero.
    pub fn credit_estimate(&mut self, tenant: &str, weight: f64, core_seconds: f64) {
        let w = weight.max(MIN_WEIGHT);
        let e = self.charged.entry(tenant.to_string()).or_default();
        *e = (*e - core_seconds.max(0.0) / w).max(0.0);
    }

    /// Release a job's cores and charge its tenant for the slice it ran.
    /// The cores are free for the very next [`Self::plan`] call — which
    /// is what "cancellation frees cores within one scheduling tick"
    /// means operationally.
    pub fn finish(
        &mut self,
        id: &str,
        tenant: &str,
        elapsed_seconds: f64,
    ) -> Result<usize, PoolError> {
        let cores = self.pool.release(id)?;
        let weight = self.weights.get(tenant).copied().unwrap_or(1.0).max(MIN_WEIGHT);
        *self.charged.entry(tenant.to_string()).or_default() +=
            cores as f64 * elapsed_seconds.max(0.0) / weight;
        Ok(cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: &str, tenant: &str, weight: f64, cores: usize, seq: u64) -> Candidate {
        Candidate {
            id: id.to_string(),
            tenant: tenant.to_string(),
            weight,
            priority: 0,
            seq,
            cores,
        }
    }

    #[test]
    fn plan_fills_the_pool_in_fifo_order_when_usage_is_equal() {
        let fs = FairShare::new(8);
        let queued = vec![
            cand("a", "t1", 1.0, 4, 0),
            cand("b", "t2", 1.0, 4, 1),
            cand("c", "t3", 1.0, 4, 2),
        ];
        let planned = fs.plan(&queued);
        let ids: Vec<&str> = planned.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, vec!["a", "b"], "third 4-core job cannot fit in 8 cores");
    }

    #[test]
    fn least_charged_tenant_is_served_first() {
        let mut fs = FairShare::new(4);
        fs.start(&cand("warm", "hog", 1.0, 4, 0)).unwrap();
        fs.finish("warm", "hog", 100.0).unwrap();
        let queued = vec![cand("h2", "hog", 1.0, 4, 1), cand("n1", "newcomer", 1.0, 4, 2)];
        let planned = fs.plan(&queued);
        assert_eq!(planned[0].id, "n1", "uncharged tenant outranks the charged one");
    }

    #[test]
    fn weights_scale_the_charge() {
        let mut fs = FairShare::new(8);
        fs.start(&cand("a", "heavy", 2.0, 4, 0)).unwrap();
        fs.start(&cand("b", "light", 1.0, 4, 1)).unwrap();
        fs.finish("a", "heavy", 10.0).unwrap();
        fs.finish("b", "light", 10.0).unwrap();
        // Same core-seconds, but the weight-2 tenant is charged half.
        assert!((fs.usage("heavy") - 20.0).abs() < 1e-9);
        assert!((fs.usage("light") - 40.0).abs() < 1e-9);
    }

    #[test]
    fn upfront_estimate_reorders_the_plan_until_credited() {
        let mut fs = FairShare::new(4);
        // "greedy" has admitted a huge predicted campaign; until it
        // terminates, the estimate outranks it against a fresh tenant.
        fs.charge_estimate("greedy", 1.0, 500.0);
        let queued = vec![cand("g", "greedy", 1.0, 4, 0), cand("f", "fresh", 1.0, 4, 1)];
        assert_eq!(fs.plan(&queued)[0].id, "f", "estimate must count against the tenant");
        // Credit with the same weight: the balance cancels exactly and
        // FIFO order (seq) decides again.
        fs.credit_estimate("greedy", 1.0, 500.0);
        assert_eq!(fs.usage("greedy"), 0.0);
        assert_eq!(fs.plan(&queued)[0].id, "g");
        // Over-crediting floors at zero rather than going negative.
        fs.credit_estimate("greedy", 1.0, 100.0);
        assert_eq!(fs.usage("greedy"), 0.0);
    }

    #[test]
    fn head_of_line_blocking_protects_wide_jobs() {
        let mut fs = FairShare::new(8);
        // The wide job is first in line (lowest seq, equal usage): nothing
        // may jump past it even though the narrow job would fit.
        fs.start(&cand("running", "t0", 1.0, 6, 0)).unwrap();
        let queued = vec![cand("wide", "t1", 1.0, 8, 1), cand("narrow", "t2", 1.0, 2, 2)];
        assert!(fs.plan(&queued).is_empty(), "narrow job must not starve the wide one");
        // Once the running job finishes, the wide one starts.
        fs.finish("running", "t0", 1.0).unwrap();
        let planned = fs.plan(&queued);
        assert_eq!(planned.len(), 1);
        assert_eq!(planned[0].id, "wide");
    }

    #[test]
    fn priority_breaks_ties_within_equal_usage() {
        let fs = FairShare::new(4);
        let mut urgent = cand("urgent", "t1", 1.0, 4, 5);
        urgent.priority = 9;
        let queued = vec![cand("old", "t2", 1.0, 4, 0), urgent];
        assert_eq!(fs.plan(&queued)[0].id, "urgent");
    }

    #[test]
    fn cancellation_frees_cores_within_one_tick() {
        let mut fs = FairShare::new(8);
        fs.start(&cand("a", "t1", 1.0, 8, 0)).unwrap();
        let queued = vec![cand("b", "t2", 1.0, 8, 1)];
        assert!(fs.plan(&queued).is_empty(), "pool is full");
        // Cancel: finish releases the lease; the very next plan admits b.
        fs.finish("a", "t1", 0.5).unwrap();
        assert_eq!(fs.plan(&queued).len(), 1);
        assert_eq!(fs.free_cores(), 8);
    }

    /// Saturating round-based simulation: every tenant keeps an unbounded
    /// backlog of `cores`-wide unit-time jobs; each round plans, starts
    /// everything planned, runs one time unit, finishes everything.
    /// Returns per-tenant total core-seconds.
    fn saturate(weights: &[f64], cores_per_job: usize, pool: usize, rounds: usize) -> Vec<f64> {
        let mut fs = FairShare::new(pool);
        let mut served = vec![0.0f64; weights.len()];
        let mut seq = 0u64;
        for _ in 0..rounds {
            let queued: Vec<Candidate> = weights
                .iter()
                .enumerate()
                .flat_map(|(t, &w)| {
                    // Enough backlog per tenant to saturate the pool alone.
                    (0..pool / cores_per_job + 1).map(move |k| Candidate {
                        id: format!("t{t}-job{k}"),
                        tenant: format!("t{t}"),
                        weight: w,
                        priority: 0,
                        seq: 0,
                        cores: cores_per_job,
                    })
                })
                .collect();
            // Re-number seqs in submission order for a stable FIFO.
            let queued: Vec<Candidate> = queued
                .into_iter()
                .map(|mut c| {
                    c.seq = seq;
                    seq += 1;
                    c
                })
                .collect();
            let planned = fs.plan(&queued);
            for c in &planned {
                fs.start(c).unwrap();
            }
            for c in &planned {
                let t: usize = c.tenant[1..].parse().unwrap();
                served[t] += c.cores as f64;
                fs.finish(&c.id, &c.tenant, 1.0).unwrap();
            }
        }
        served
    }

    #[test]
    fn saturated_queue_converges_to_weighted_shares() {
        let weights = [2.0, 1.0, 1.0];
        let served = saturate(&weights, 1, 8, 400);
        let total: f64 = served.iter().sum();
        assert!((total - 8.0 * 400.0).abs() < 1e-6, "saturated pool stays full: {served:?}");
        let wsum: f64 = weights.iter().sum();
        for (t, &s) in served.iter().enumerate() {
            let expect = total * weights[t] / wsum;
            let rel = (s - expect).abs() / expect;
            assert!(rel < 0.05, "tenant {t}: served {s}, expected {expect} (rel {rel:.3})");
        }
    }

    /// Invariant: a plan never over-commits the pool, whatever the mix
    /// of candidate widths; and with 1-core saturation it fills it.
    #[test]
    fn plan_never_exceeds_free_cores() {
        rng::check(256, |r| {
            let len = r.range(1..20usize);
            let widths: Vec<usize> = (0..len).map(|_| r.range(1usize..12)).collect();
            let pool = r.range(1usize..32);
            let fs = FairShare::new(pool);
            let queued: Vec<Candidate> = widths
                .iter()
                .enumerate()
                .map(|(i, &w)| cand(&format!("j{i}"), &format!("t{}", i % 3), 1.0, w, i as u64))
                .collect();
            let planned = fs.plan(&queued);
            let sum: usize = planned.iter().map(|c| c.cores).sum();
            assert!(sum <= pool, "planned {sum} cores into a {pool}-core pool");
            // Committing the whole plan must succeed exactly as planned.
            let mut fs = FairShare::new(pool);
            for c in &planned {
                assert!(fs.start(c).is_ok());
            }
            assert_eq!(fs.pool().leased(), sum);
        });
    }

    /// No tenant starves: under a saturating queue of equal-width jobs,
    /// every tenant with nonzero weight is served, with long-run shares
    /// within 10% of its weight fraction.
    #[test]
    fn no_tenant_starves_under_saturation() {
        rng::check(256, |r| {
            let len = r.range(2..5usize);
            let weights: Vec<f64> = (0..len).map(|_| r.range(0.5..4.0)).collect();
            let served = saturate(&weights, 1, 8, 600);
            let total: f64 = served.iter().sum();
            let wsum: f64 = weights.iter().sum();
            for (t, &s) in served.iter().enumerate() {
                assert!(s > 0.0, "tenant {} starved: {:?}", t, served);
                let expect = total * weights[t] / wsum;
                let rel = (s - expect).abs() / expect;
                assert!(
                    rel < 0.10,
                    "tenant {} served {} vs expected {} (weights {:?})",
                    t,
                    s,
                    expect,
                    weights
                );
            }
        });
    }

    /// Cancellation (or any finish) frees capacity for the immediately
    /// following plan: after filling the pool and releasing one lease,
    /// a candidate no wider than the released width is planned.
    #[test]
    fn release_is_visible_to_the_next_plan() {
        rng::check(256, |r| {
            let len = r.range(2..8usize);
            let widths: Vec<usize> = (0..len).map(|_| r.range(1usize..6)).collect();
            let pool: usize = widths.iter().sum();
            let mut fs = FairShare::new(pool);
            for (i, &w) in widths.iter().enumerate() {
                fs.start(&cand(&format!("j{i}"), "t", 1.0, w, i as u64)).unwrap();
            }
            assert_eq!(fs.free_cores(), 0);
            let victim = widths.len() / 2;
            fs.finish(&format!("j{victim}"), "t", 1.0).unwrap();
            let queued = vec![cand("next", "u", 1.0, widths[victim], 99)];
            assert_eq!(fs.plan(&queued).len(), 1, "freed cores not replannable");
        });
    }
}
