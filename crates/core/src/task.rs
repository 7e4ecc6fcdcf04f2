//! Task payload results flowing back from compute units.

/// What a completed unit's payload returns to the framework.
#[derive(Debug, Clone)]
pub enum TaskResult {
    Md(MdTaskReport),
    Exchange(ExchangeReport),
}

/// Result of one replica's MD segment.
#[derive(Debug, Clone)]
pub struct MdTaskReport {
    pub replica: usize,
    pub slot: usize,
    pub cycle: u64,
    /// Total potential energy at segment end (kcal/mol).
    pub potential: f64,
    /// Potential excluding restraint bias (what T-exchange uses).
    pub physical_potential: f64,
    /// Instantaneous temperature at segment end.
    pub measured_temperature: f64,
    /// Sampled (phi, psi) in radians, empty unless sampling is enabled.
    pub trace: Vec<(f64, f64)>,
}

/// Result of one dimension's exchange phase.
#[derive(Debug, Clone)]
pub struct ExchangeReport {
    /// Dimension index the exchange ran in.
    pub dim: usize,
    /// Every attempted pair, in order: (slot_lo, slot_hi, accepted). The
    /// driver's ledger counts them and swaps the walk at the accepted ones;
    /// they also feed per-pair acceptance (ladder optimization).
    pub pair_outcomes: Vec<(usize, usize, bool)>,
}

impl TaskResult {
    pub fn as_md(&self) -> Option<&MdTaskReport> {
        match self {
            TaskResult::Md(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_exchange(&self) -> Option<&ExchangeReport> {
        match self {
            TaskResult::Exchange(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let md = TaskResult::Md(MdTaskReport {
            replica: 1,
            slot: 2,
            cycle: 3,
            potential: -10.0,
            physical_potential: -12.0,
            measured_temperature: 305.0,
            trace: vec![],
        });
        assert!(md.as_md().is_some());
        assert!(md.as_exchange().is_none());
        let ex = TaskResult::Exchange(ExchangeReport { dim: 0, pair_outcomes: vec![(0, 1, true)] });
        assert!(ex.as_exchange().is_some());
        assert!(ex.as_md().is_none());
    }
}
