//! Compute-unit descriptions — the declarative half of the API.

/// How a unit's wall-clock duration is determined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationSpec {
    /// Run the payload and charge its real wall time (LocalExecutor).
    Measured,
    /// Charge a modeled duration with lognormal straggler noise
    /// (SimExecutor); the payload still executes so results are real.
    Modeled { seconds: f64, sigma: f64 },
}

impl DurationSpec {
    pub fn modeled(seconds: f64, sigma: f64) -> Self {
        DurationSpec::Modeled { seconds, sigma }
    }
}

/// Declarative description of one compute unit (RP's ComputeUnitDescription).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitDescription {
    /// Human-readable name ("md-r0042-c003", "exchange-T-c003").
    pub name: String,
    /// Executable label carried for bookkeeping ("sander", "namd2", ...).
    pub executable: &'static str,
    /// Cores required.
    pub cores: usize,
    /// Duration semantics.
    pub duration: DurationSpec,
    /// Replica this unit works for, when it works for exactly one — keys
    /// stable per-replica placement effects (heterogeneous node speeds).
    /// `None` for collective units such as exchanges.
    pub replica: Option<usize>,
}

impl UnitDescription {
    pub fn new(name: impl Into<String>, executable: &'static str, cores: usize) -> Self {
        UnitDescription {
            name: name.into(),
            executable,
            cores,
            duration: DurationSpec::Measured,
            replica: None,
        }
    }

    pub fn with_duration(mut self, d: DurationSpec) -> Self {
        self.duration = d;
        self
    }

    pub fn with_replica(mut self, replica: usize) -> Self {
        self.replica = Some(replica);
        self
    }

    /// [`UnitDescription::validate`], and no wider than a pilot of `cores`.
    pub fn check_fits(&self, cores: usize) -> Result<(), String> {
        self.validate()?;
        if self.cores > cores {
            let (name, wanted) = (&self.name, self.cores);
            return Err(format!("unit {name} needs {wanted} cores but the pilot has {cores}"));
        }
        Ok(())
    }

    /// Basic validity: nonzero cores, nonempty name.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("unit name is empty".into());
        }
        if self.cores == 0 {
            return Err(format!("unit {} requests zero cores", self.name));
        }
        if let DurationSpec::Modeled { seconds, sigma } = self.duration {
            // NaN fails both comparisons, which is exactly what we want.
            let ok = seconds >= 0.0 && sigma >= 0.0;
            if !ok {
                return Err(format!("unit {}: bad modeled duration {seconds}/{sigma}", self.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_builder_and_validation() {
        let u = UnitDescription::new("md-r0-c0", "sander", 1)
            .with_duration(DurationSpec::modeled(139.6, 0.03))
            .with_replica(4);
        assert!(u.validate().is_ok());
        assert_eq!((u.executable, u.replica), ("sander", Some(4)));

        assert!(UnitDescription::new("", "x", 1).validate().is_err());
        assert!(UnitDescription::new("a", "x", 0).validate().is_err());
        let bad = UnitDescription::new("a", "x", 1)
            .with_duration(DurationSpec::Modeled { seconds: -1.0, sigma: 0.0 });
        assert!(bad.validate().is_err());
    }
}
