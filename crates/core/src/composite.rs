//! The composed MLFS scheduler and its evaluated variants.
//!
//! The paper evaluates three of its own configurations (Figs. 4–5):
//!
//! * **MLF-H** — the heuristic scheduler alone;
//! * **MLF-RL** — imitation-bootstrapped RL scheduling (no load
//!   control);
//! * **MLFS** — MLF-RL plus MLF-C load control ("MLFS improves MLF-RL
//!   … due to additional MLF-C").
//!
//! [`Mlfs`] wraps all three behind one type so the simulation engine
//! and bench harness treat them uniformly, and threads the ablation
//! switches in [`crate::Params`] through every component.

use crate::mlfc::{MlfC, MlfCState};
use crate::mlfh::{MlfH, MlfHState};
use crate::mlfrl::{MlfRl, MlfRlConfig, MlfRlState};
use crate::params::Params;
use crate::scheduler::{
    state_from_json, state_to_json, Action, RewardComponents, Scheduler, SchedulerContext,
};
use serde::{Deserialize, Serialize};

/// Which MLFS configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlfsVariant {
    /// Heuristic only.
    H,
    /// RL (with imitation bootstrap), no load control.
    Rl,
    /// Full system: RL + MLF-C.
    Full,
}

/// Configuration of the composite scheduler.
#[derive(Debug, Clone)]
pub struct MlfsConfig {
    /// Scheduling parameters and ablation switches.
    pub params: Params,
    /// RL hyperparameters (ignored by the `H` variant).
    pub rl: MlfRlConfig,
    /// Which variant to run.
    pub variant: MlfsVariant,
}

impl Default for MlfsConfig {
    fn default() -> Self {
        MlfsConfig {
            params: Params::default(),
            rl: MlfRlConfig::default(),
            variant: MlfsVariant::Full,
        }
    }
}

/// Evolving state of the composite: one slot per live component.
/// A slot's presence must match the variant's wiring for import to
/// succeed (a mismatch means the state came from a different variant).
#[derive(Serialize, Deserialize)]
struct MlfsState {
    h: Option<MlfHState>,
    rl: Option<MlfRlState>,
    c: Option<MlfCState>,
}

/// The composed MLFS scheduler.
pub struct Mlfs {
    variant: MlfsVariant,
    h: Option<MlfH>,
    rl: Option<MlfRl>,
    c: Option<MlfC>,
    /// Times MLF-C's per-round control as the `mlfc_control` span.
    tracer: Option<std::sync::Arc<obs::Tracer>>,
}

impl Mlfs {
    /// Build the requested variant.
    pub fn new(cfg: MlfsConfig) -> Self {
        let (h, rl) = match cfg.variant {
            MlfsVariant::H => (Some(MlfH::new(cfg.params)), None),
            MlfsVariant::Rl | MlfsVariant::Full => {
                (None, Some(MlfRl::new(cfg.params, cfg.rl.clone())))
            }
        };
        let c = if cfg.variant == MlfsVariant::Full {
            Some(MlfC::new(cfg.params))
        } else {
            None
        };
        Mlfs {
            variant: cfg.variant,
            h,
            rl,
            c,
            tracer: None,
        }
    }

    /// Convenience constructors for the three evaluated lines.
    pub fn heuristic(params: Params) -> Self {
        Mlfs::new(MlfsConfig {
            params,
            variant: MlfsVariant::H,
            ..Default::default()
        })
    }

    /// MLF-RL variant.
    pub fn rl(params: Params, rl: MlfRlConfig) -> Self {
        Mlfs::new(MlfsConfig {
            params,
            rl,
            variant: MlfsVariant::Rl,
        })
    }

    /// Full MLFS.
    pub fn full(params: Params, rl: MlfRlConfig) -> Self {
        Mlfs::new(MlfsConfig {
            params,
            rl,
            variant: MlfsVariant::Full,
        })
    }

    /// The active variant.
    pub fn variant(&self) -> MlfsVariant {
        self.variant
    }

    /// Mutable access to the RL component (policy transfer), if any.
    pub fn rl_mut(&mut self) -> Option<&mut MlfRl> {
        self.rl.as_mut()
    }
}

impl Scheduler for Mlfs {
    fn name(&self) -> &'static str {
        match self.variant {
            MlfsVariant::H => "MLF-H",
            MlfsVariant::Rl => "MLF-RL",
            MlfsVariant::Full => "MLFS",
        }
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        // Load control first: stopping a job this round frees capacity
        // that the engine reflects before the *next* round (the paper's
        // components also interleave at round granularity).
        let mut actions = Vec::new();
        if let Some(c) = &mut self.c {
            let _span = self.tracer.as_ref().map(|t| obs::span!(t, mlfc_control));
            actions.extend(c.control(ctx));
        }
        let stopped: Vec<cluster::JobId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::StopJob { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        let mut placement = match (&mut self.h, &mut self.rl) {
            (Some(h), _) => h.schedule(ctx),
            (_, Some(rl)) => rl.schedule(ctx),
            // Constructors always install a scheduling component; if
            // none exists, an idle round is strictly better than
            // aborting the simulation.
            _ => Vec::new(),
        };
        // Don't place/migrate tasks of jobs MLF-C just stopped.
        placement.retain(|a| match a {
            Action::Place { task, .. } | Action::Migrate { task, .. } | Action::Evict { task } => {
                !stopped.contains(&task.job)
            }
            _ => true,
        });
        actions.extend(placement);
        actions
    }

    fn observe_reward(&mut self, reward: &RewardComponents) {
        if let Some(rl) = &mut self.rl {
            rl.observe_reward(reward);
        }
    }

    fn attach_tracer(&mut self, tracer: std::sync::Arc<obs::Tracer>) {
        // MLF-C stop decisions surface as engine-side `JobStopped`
        // events, so only the placement components take the handle;
        // the composite keeps one to time MLF-C's control pass.
        self.tracer = Some(tracer.clone());
        if let Some(h) = &mut self.h {
            h.attach_tracer(tracer.clone());
        }
        if let Some(rl) = &mut self.rl {
            rl.attach_tracer(tracer);
        }
    }

    fn export_state(&self) -> Option<String> {
        Some(state_to_json(&MlfsState {
            h: self.h.as_ref().map(MlfH::state),
            rl: self.rl.as_ref().map(MlfRl::state),
            c: self.c.as_ref().map(MlfC::state),
        }))
    }

    fn import_state(&mut self, state: &str) -> bool {
        let Some(st) = state_from_json::<MlfsState>(state) else {
            return false;
        };
        // Component wiring must match the exporting variant; refuse
        // (without mutating) otherwise.
        if st.h.is_some() != self.h.is_some()
            || st.rl.is_some() != self.rl.is_some()
            || st.c.is_some() != self.c.is_some()
        {
            return false;
        }
        if let (Some(h), Some(hs)) = (&mut self.h, st.h) {
            h.restore_state(hs);
        }
        if let (Some(rl), Some(rs)) = (&mut self.rl, st.rl) {
            rl.restore_state(rs);
        }
        if let (Some(c), Some(cs)) = (&mut self.c, st.c) {
            c.restore_state(cs);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper_legends() {
        let p = Params::default();
        assert_eq!(Mlfs::heuristic(p).name(), "MLF-H");
        assert_eq!(Mlfs::rl(p, MlfRlConfig::default()).name(), "MLF-RL");
        assert_eq!(Mlfs::full(p, MlfRlConfig::default()).name(), "MLFS");
    }

    #[test]
    fn variants_wire_the_right_components() {
        let p = Params::default();
        let h = Mlfs::heuristic(p);
        assert!(h.h.is_some() && h.rl.is_none() && h.c.is_none());
        let r = Mlfs::rl(p, MlfRlConfig::default());
        assert!(r.h.is_none() && r.rl.is_some() && r.c.is_none());
        let f = Mlfs::full(p, MlfRlConfig::default());
        assert!(f.h.is_none() && f.rl.is_some() && f.c.is_some());
    }
}
