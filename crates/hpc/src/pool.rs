//! Shared-pool core accounting for multi-campaign scheduling.
//!
//! A [`CorePool`] tracks how many cores of one shared virtual cluster are
//! leased out to concurrently running campaigns. It is deliberately dumb:
//! no policy, no time, just conservation of cores with typed errors — the
//! fair-share planner in the campaign service layers policy on top, and
//! property tests there lean on the invariant enforced here (the sum of
//! live leases never exceeds the pool).

use std::collections::HashMap;

/// Why a lease operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A lease for zero cores is meaningless and almost certainly a bug.
    ZeroCores { id: String },
    /// The request can never fit, even on an idle pool.
    ExceedsPool { id: String, want: usize, pool: usize },
    /// The request does not fit right now.
    Exhausted { id: String, want: usize, free: usize },
    /// A lease with this id is already live.
    DuplicateLease { id: String },
    /// No live lease with this id.
    UnknownLease { id: String },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ZeroCores { id } => write!(f, "lease {id:?} requests zero cores"),
            PoolError::ExceedsPool { id, want, pool } => {
                write!(f, "lease {id:?} requests {want} cores but the shared pool has only {pool}")
            }
            PoolError::Exhausted { id, want, free } => {
                write!(f, "lease {id:?} requests {want} cores but only {free} are free")
            }
            PoolError::DuplicateLease { id } => write!(f, "lease {id:?} is already live"),
            PoolError::UnknownLease { id } => write!(f, "no live lease {id:?}"),
        }
    }
}

#[derive(Debug, Clone)]
struct Lease {
    cores: usize,
    tenant: String,
}

/// A fixed pool of cores shared by many tenants' pilots.
#[derive(Debug, Clone)]
pub struct CorePool {
    total: usize,
    leases: HashMap<String, Lease>,
}

impl CorePool {
    /// A pool of `total` cores with no live leases.
    pub fn new(total: usize) -> Self {
        CorePool { total, leases: HashMap::new() }
    }

    /// Pool capacity.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Cores currently leased out.
    pub fn leased(&self) -> usize {
        self.leases.values().map(|l| l.cores).sum()
    }

    /// Cores available for new leases.
    pub fn free(&self) -> usize {
        self.total - self.leased()
    }

    /// Number of live leases.
    pub fn active(&self) -> usize {
        self.leases.len()
    }

    /// Cores held by lease `id`, if live.
    pub fn lease_cores(&self, id: &str) -> Option<usize> {
        self.leases.get(id).map(|l| l.cores)
    }

    /// Cores held by `tenant` across all of its live leases.
    pub fn tenant_cores(&self, tenant: &str) -> usize {
        self.leases.values().filter(|l| l.tenant == tenant).map(|l| l.cores).sum()
    }

    /// Take `cores` out of the pool for lease `id` owned by `tenant`.
    /// Distinguishes "can never fit" ([`PoolError::ExceedsPool`], an
    /// admission-time rejection) from "does not fit now"
    /// ([`PoolError::Exhausted`], a wait-your-turn condition).
    pub fn try_lease(&mut self, id: &str, tenant: &str, cores: usize) -> Result<(), PoolError> {
        if cores == 0 {
            return Err(PoolError::ZeroCores { id: id.to_string() });
        }
        if cores > self.total {
            return Err(PoolError::ExceedsPool {
                id: id.to_string(),
                want: cores,
                pool: self.total,
            });
        }
        if self.leases.contains_key(id) {
            return Err(PoolError::DuplicateLease { id: id.to_string() });
        }
        let free = self.free();
        if cores > free {
            return Err(PoolError::Exhausted { id: id.to_string(), want: cores, free });
        }
        self.leases.insert(id.to_string(), Lease { cores, tenant: tenant.to_string() });
        Ok(())
    }

    /// Return lease `id`'s cores to the pool; yields the core count so the
    /// caller can charge the tenant for the slice that just ended.
    pub fn release(&mut self, id: &str) -> Result<usize, PoolError> {
        match self.leases.remove(id) {
            Some(l) => Ok(l.cores),
            None => Err(PoolError::UnknownLease { id: id.to_string() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_conserve_cores() {
        let mut p = CorePool::new(16);
        assert_eq!(p.free(), 16);
        p.try_lease("a", "t1", 8).unwrap();
        p.try_lease("b", "t2", 4).unwrap();
        assert_eq!(p.leased(), 12);
        assert_eq!(p.free(), 4);
        assert_eq!(p.active(), 2);
        assert_eq!(p.lease_cores("a"), Some(8));
        assert_eq!(p.tenant_cores("t1"), 8);
        assert_eq!(p.release("a").unwrap(), 8);
        assert_eq!(p.free(), 12);
        assert_eq!(p.lease_cores("a"), None);
    }

    #[test]
    fn typed_rejections() {
        let mut p = CorePool::new(8);
        assert_eq!(p.try_lease("z", "t", 0), Err(PoolError::ZeroCores { id: "z".into() }));
        assert_eq!(
            p.try_lease("big", "t", 9),
            Err(PoolError::ExceedsPool { id: "big".into(), want: 9, pool: 8 })
        );
        p.try_lease("a", "t", 6).unwrap();
        assert_eq!(
            p.try_lease("b", "t", 4),
            Err(PoolError::Exhausted { id: "b".into(), want: 4, free: 2 })
        );
        assert_eq!(p.try_lease("a", "t", 1), Err(PoolError::DuplicateLease { id: "a".into() }));
        assert_eq!(p.release("nope"), Err(PoolError::UnknownLease { id: "nope".into() }));
        // A failed lease leaves the pool untouched.
        assert_eq!(p.leased(), 6);
        // Errors render human-readable text.
        let msg = PoolError::Exhausted { id: "b".into(), want: 4, free: 2 }.to_string();
        assert!(msg.contains("only 2 are free"), "{msg}");
    }

    #[test]
    fn exact_fit_fills_the_pool() {
        let mut p = CorePool::new(4);
        p.try_lease("a", "t", 4).unwrap();
        assert_eq!(p.free(), 0);
        assert!(matches!(p.try_lease("b", "t", 1), Err(PoolError::Exhausted { .. })));
        p.release("a").unwrap();
        p.try_lease("b", "t", 1).unwrap();
    }
}
