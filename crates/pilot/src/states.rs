//! Task (compute-unit) and pilot state machines.
//!
//! Mirrors the RADICAL-Pilot state models closely enough that framework code
//! reads like code written against RP: units go NEW → SCHEDULING → EXECUTING
//! → DONE/FAILED/CANCELED; pilots go NEW → QUEUED → ACTIVE → DONE/FAILED.

/// Compute-unit lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitState {
    New,
    Scheduling,
    Executing,
    Done,
    Failed,
    Canceled,
}

impl UnitState {
    /// Whether the state is terminal.
    pub fn is_final(self) -> bool {
        matches!(self, UnitState::Done | UnitState::Failed | UnitState::Canceled)
    }

    /// Whether `self -> next` is a legal transition.
    pub fn can_transition_to(self, next: UnitState) -> bool {
        use UnitState::*;
        matches!(
            (self, next),
            (New, Scheduling)
                | (New, Canceled)
                | (Scheduling, Executing)
                | (Scheduling, Canceled)
                | (Scheduling, Failed)
                | (Executing, Done)
                | (Executing, Failed)
                | (Executing, Canceled)
        )
    }
}

/// Pilot lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PilotState {
    New,
    Queued,
    Active,
    Done,
    Failed,
}

impl PilotState {
    pub fn is_final(self) -> bool {
        matches!(self, PilotState::Done | PilotState::Failed)
    }

    pub fn can_transition_to(self, next: PilotState) -> bool {
        use PilotState::*;
        matches!(
            (self, next),
            (New, Queued) | (Queued, Active) | (Queued, Failed) | (Active, Done) | (Active, Failed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_unit() {
        use UnitState::*;
        assert!(New.can_transition_to(Scheduling));
        assert!(Scheduling.can_transition_to(Executing));
        assert!(Executing.can_transition_to(Done));
        assert!(Done.is_final());
    }

    #[test]
    fn illegal_unit_transitions() {
        use UnitState::*;
        assert!(!New.can_transition_to(Done));
        assert!(!Done.can_transition_to(Executing));
        assert!(!Failed.can_transition_to(Scheduling));
        assert!(!Executing.can_transition_to(New));
    }

    #[test]
    fn failure_paths() {
        use UnitState::*;
        assert!(Executing.can_transition_to(Failed));
        assert!(Scheduling.can_transition_to(Failed));
        assert!(Failed.is_final());
        assert!(Canceled.is_final());
    }

    #[test]
    fn pilot_lifecycle() {
        use PilotState::*;
        assert!(New.can_transition_to(Queued));
        assert!(Queued.can_transition_to(Active));
        assert!(Active.can_transition_to(Done));
        assert!(!New.can_transition_to(Active));
        assert!(!Done.can_transition_to(Active));
    }

    #[test]
    fn no_state_transitions_to_itself() {
        use UnitState::*;
        for s in [New, Scheduling, Executing, Done, Failed, Canceled] {
            assert!(!s.can_transition_to(s));
        }
    }
}
