//! Flaky-server blacklist with exponential backoff.
//!
//! Schedulers observe cluster health once per round. A server that
//! goes down earns a *strike*; when it comes back up it is banned from
//! placement for `base_rounds * 2^(strikes-1)` rounds (capped), so
//! repeat offenders are avoided for exponentially longer. Down and
//! draining servers are already refused by [`cluster::Server::can_host`];
//! the blacklist adds memory of *past* crashes on top of that.
//!
//! The ban is a soft preference: callers fall back to the unfiltered
//! candidate set when every feasible host is banned, so a mostly-dead
//! cluster still schedules rather than stalling.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::params::Params;
use crate::placement::{select_host, select_host_filtered};
use cluster::{ClusterView, HealthState, ServerId, TaskId};
use workload::JobArena;

#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Entry {
    /// How many distinct crashes this server has accumulated.
    strikes: u32,
    /// Whether the server was observed down last round (edge detection).
    down: bool,
    /// First round at which the server may host tasks again.
    banned_until: u64,
}

/// Tracks crash history per server and answers "should placement
/// avoid this server right now?".
///
/// Serializable so schedulers can carry crash memory across a service
/// restart (`Scheduler::export_state`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerBlacklist {
    /// Backoff after the first crash, in scheduler rounds.
    base_rounds: u64,
    /// Ceiling on any single backoff, in scheduler rounds.
    max_rounds: u64,
    round: u64,
    entries: BTreeMap<ServerId, Entry>,
    /// Strikes registered by the most recent `observe` call, as
    /// `(server, total strikes)` — consumed by telemetry.
    new_strikes: Vec<(ServerId, u32)>,
}

impl Default for ServerBlacklist {
    fn default() -> Self {
        Self {
            base_rounds: 3,
            max_rounds: 120,
            round: 0,
            entries: BTreeMap::new(),
            new_strikes: Vec::new(),
        }
    }
}

impl ServerBlacklist {
    /// Advance one scheduler round and fold in the current health of
    /// every server. Call exactly once per `plan()`. Returns the
    /// number of *new* strikes (crash edges) seen this round;
    /// [`ServerBlacklist::recent_strikes`] lists them.
    pub fn observe<V: ClusterView>(&mut self, view: &V) -> u32 {
        self.round += 1;
        self.new_strikes.clear();
        for i in 0..view.server_count() {
            let sid = ServerId(i as u32);
            let down = matches!(view.server(sid).health(), HealthState::Down { .. });
            let e = self.entries.entry(sid).or_default();
            if down && !e.down {
                // Crash edge: one strike per distinct outage.
                e.strikes += 1;
                self.new_strikes.push((sid, e.strikes));
            } else if !down && e.down {
                // Recovery edge: start the backoff window.
                let shift = e.strikes.min(20).saturating_sub(1);
                let backoff = self
                    .base_rounds
                    .saturating_mul(1u64 << shift)
                    .min(self.max_rounds);
                e.banned_until = self.round + backoff;
            }
            e.down = down;
        }
        self.new_strikes.len() as u32
    }

    /// The `(server, total strikes)` pairs struck by the most recent
    /// `observe` call (crash edges only; empty on healthy rounds).
    pub fn recent_strikes(&self) -> &[(ServerId, u32)] {
        &self.new_strikes
    }

    /// Whether placement should avoid `server` this round.
    pub fn is_banned(&self, server: ServerId) -> bool {
        self.entries
            .get(&server)
            .is_some_and(|e| e.down || self.round < e.banned_until)
    }

    /// Whether any server is currently banned (used to decide whether
    /// an unfiltered retry could possibly help).
    pub fn any_banned(&self) -> bool {
        self.entries
            .values()
            .any(|e| e.down || self.round < e.banned_until)
    }

    /// Count `strikes` (the return of [`ServerBlacklist::observe`]) and
    /// emit one `BlacklistStrike` event per struck server, at `now_mins`.
    pub fn report_strikes(&self, strikes: u32, tracer: &obs::Tracer, now_mins: f64) {
        if strikes == 0 {
            return;
        }
        tracer.add(obs::Counter::BlacklistStrikes, u64::from(strikes));
        for &(sid, total) in self.recent_strikes() {
            obs::event!(
                tracer,
                BlacklistStrike {
                    t: now_mins,
                    server: sid.0,
                    strikes: total,
                }
            );
        }
    }

    /// [`select_host`] avoiding banned servers, falling back to the
    /// unfiltered pick so bans never stall the queue. With no crash
    /// history this is `select_host` exactly.
    pub fn select_host<V: ClusterView>(
        &self,
        plan: &V,
        jobs: &JobArena,
        task: TaskId,
        migration_from: Option<ServerId>,
        p: &Params,
    ) -> Option<ServerId> {
        select_host_filtered(plan, jobs, task, migration_from, p, |sid| {
            self.is_banned(sid)
        })
        .or_else(|| {
            if self.any_banned() {
                select_host(plan, jobs, task, migration_from, p)
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterConfig, Topology};

    fn cluster() -> Cluster {
        Cluster::new(&ClusterConfig {
            servers: 3,
            gpus_per_server: 4,
            gpu_capacity: 1.0,
            cpu_cores: 32.0,
            memory_gb: 128.0,
            nic_mbps: 1000.0,
            topology: Topology::default_flat(),
        })
    }

    #[test]
    fn backoff_doubles_per_strike_and_caps() {
        let mut c = cluster();
        let mut bl = ServerBlacklist::default();
        let sid = ServerId(1);

        // Healthy cluster: nothing banned.
        bl.observe(&c);
        assert!(!bl.any_banned());

        // First crash: banned while down, then 3 rounds after recovery.
        c.fail_server(sid, None);
        bl.observe(&c);
        assert!(bl.is_banned(sid));
        assert!(!bl.is_banned(ServerId(0)));
        c.recover_server(sid);
        bl.observe(&c);
        for _ in 0..3 {
            assert!(bl.is_banned(sid));
            bl.observe(&c);
        }
        assert!(!bl.is_banned(sid));

        // Second crash: the window doubles to 6 rounds.
        c.fail_server(sid, None);
        bl.observe(&c);
        c.recover_server(sid);
        bl.observe(&c);
        for _ in 0..6 {
            assert!(bl.is_banned(sid));
            bl.observe(&c);
        }
        assert!(!bl.is_banned(sid));
        assert!(!bl.any_banned());
    }

    #[test]
    fn observe_reports_new_strikes() {
        let mut c = cluster();
        let mut bl = ServerBlacklist::default();
        assert_eq!(bl.observe(&c), 0);
        c.fail_server(ServerId(0), None);
        c.fail_server(ServerId(2), None);
        assert_eq!(bl.observe(&c), 2);
        assert_eq!(bl.recent_strikes(), &[(ServerId(0), 1), (ServerId(2), 1)]);
        // Staying down is not a new strike.
        assert_eq!(bl.observe(&c), 0);
        assert!(bl.recent_strikes().is_empty());
    }

    #[test]
    fn draining_is_not_a_strike() {
        let mut c = cluster();
        let mut bl = ServerBlacklist::default();
        c.drain_server(ServerId(2));
        bl.observe(&c);
        assert!(!bl.is_banned(ServerId(2)));
        c.recover_server(ServerId(2));
        bl.observe(&c);
        assert!(!bl.any_banned());
    }
}
