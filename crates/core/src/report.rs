//! Reports returned by the dissemination algorithms.

use std::fmt;

/// One phase of a multi-phase algorithm (e.g. "latency discovery", "spanner
/// construction", "round-robin broadcast") and the rounds it consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Human-readable phase name.
    pub name: String,
    /// Rounds spent in this phase.
    pub rounds: u64,
    /// Exchanges initiated during the phase (0 if the phase is purely local computation).
    pub activations: u64,
}

impl Phase {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, rounds: u64, activations: u64) -> Self {
        Phase {
            name: name.into(),
            rounds,
            activations,
        }
    }
}

/// The outcome of running one dissemination algorithm on one graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisseminationReport {
    /// Name of the algorithm.
    pub algorithm: String,
    /// Total rounds consumed (sum over phases).
    pub rounds: u64,
    /// Total exchanges initiated.
    pub activations: u64,
    /// Whether the dissemination goal was reached.
    pub completed: bool,
    /// Per-phase breakdown.
    pub phases: Vec<Phase>,
    /// The engine's full deterministic memory counters (paged-set
    /// live/peak pages, saturated node counts, delta-window peaks, and the
    /// headline `peak_engine_bytes`), when the underlying simulation
    /// reported them; `None` for purely analytical phases.  Deterministic,
    /// so usable as a regression gate.
    pub mem: Option<gossip_sim::MemStats>,
}

impl DisseminationReport {
    /// Builds a report from phases; `completed` is supplied by the caller.
    pub fn from_phases(algorithm: impl Into<String>, phases: Vec<Phase>, completed: bool) -> Self {
        let rounds = phases.iter().map(|p| p.rounds).sum();
        let activations = phases.iter().map(|p| p.activations).sum();
        DisseminationReport {
            algorithm: algorithm.into(),
            rounds,
            activations,
            completed,
            phases,
            mem: None,
        }
    }

    /// Builds a single-phase report.
    pub fn single(
        algorithm: impl Into<String>,
        rounds: u64,
        activations: u64,
        completed: bool,
    ) -> Self {
        let algorithm = algorithm.into();
        DisseminationReport {
            phases: vec![Phase::new(algorithm.clone(), rounds, activations)],
            algorithm,
            rounds,
            activations,
            completed,
            mem: None,
        }
    }

    /// Builds the single-phase report of one engine run, with the run's
    /// deterministic memory counters.
    pub fn from_run(algorithm: impl Into<String>, run: gossip_sim::RunReport) -> Self {
        DisseminationReport {
            mem: run.mem,
            ..Self::single(algorithm, run.rounds, run.activations, run.completed)
        }
    }

    /// Rounds spent in the named phase (0 if the phase does not exist).
    pub fn phase_rounds(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.rounds)
            .sum()
    }
}

impl fmt::Display for DisseminationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} rounds ({} activations, completed = {})",
            self.algorithm, self.rounds, self.activations, self.completed
        )?;
        if self.phases.len() > 1 {
            write!(f, " [")?;
            for (i, p) in self.phases.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {}", p.name, p.rounds)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_phases_sums_rounds_and_activations() {
        let r = DisseminationReport::from_phases(
            "spanner-broadcast",
            vec![
                Phase::new("discovery", 100, 40),
                Phase::new("rr-broadcast", 50, 30),
            ],
            true,
        );
        assert_eq!(r.rounds, 150);
        assert_eq!(r.activations, 70);
        assert_eq!(r.phase_rounds("discovery"), 100);
        assert_eq!(r.phase_rounds("unknown"), 0);
        assert!(r.completed);
    }

    #[test]
    fn single_phase_report() {
        let r = DisseminationReport::single("push-pull", 42, 99, true);
        assert_eq!(r.rounds, 42);
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phase_rounds("push-pull"), 42);
    }

    #[test]
    fn display_contains_phase_breakdown() {
        let r = DisseminationReport::from_phases(
            "x",
            vec![Phase::new("a", 1, 0), Phase::new("b", 2, 0)],
            false,
        );
        let s = r.to_string();
        assert!(s.contains("a: 1"));
        assert!(s.contains("b: 2"));
        assert!(s.contains("completed = false"));
    }
}
