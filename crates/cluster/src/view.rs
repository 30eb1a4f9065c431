//! Read views over cluster state and a copy-on-write overlay.
//!
//! Schedulers plan speculatively: they "virtually place" tasks, test
//! overload, roll back, and only then emit actions. The seed did this
//! by cloning the entire [`Cluster`] every round — O(servers + placed
//! tasks) per decision. [`ClusterOverlay`] replaces that with a
//! copy-on-write view: reads fall through to the base cluster, writes
//! copy only the touched server, and the overloaded-server set is
//! carried over from the base's incremental index and updated in
//! place. Placement logic is generic over [`ClusterView`], so the
//! same code serves the real cluster (tests, baselines) and the
//! overlay (the MLF-H / MLF-RL hot path). The overlay also keeps a
//! [`HostIndex`] of servers by load, built on first use, which RIAL
//! host selection reads instead of scanning every server.

use crate::host_index::HostIndex;
use crate::ids::{ServerId, TaskId};
use crate::resources::ResourceVec;
use crate::server::{Server, TaskPlacement};
use crate::state::{Cluster, PlaceError};
use crate::topology::Topology;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

/// Read-only access to (possibly speculative) cluster state.
pub trait ClusterView {
    /// Number of servers.
    fn server_count(&self) -> usize;

    /// Immutable access to a server.
    fn server(&self, id: ServerId) -> &Server;

    /// The inter-server topology.
    fn topology(&self) -> &Topology;

    /// Where a task currently runs, if placed.
    fn locate(&self, task: TaskId) -> Option<ServerId>;

    /// Append the ids of servers overloaded at `h_r`, in id order.
    fn overloaded_into(&self, h_r: f64, out: &mut Vec<ServerId>);

    /// Ids of servers overloaded at `h_r`, in id order.
    fn overloaded_servers(&self, h_r: f64) -> Vec<ServerId> {
        let mut out = Vec::new();
        self.overloaded_into(h_r, &mut out);
        out
    }

    /// The view's load index, if it keeps one (only the overlay does).
    fn host_index(&self) -> Option<&HostIndex> {
        None
    }
}

impl ClusterView for Cluster {
    fn server_count(&self) -> usize {
        Cluster::server_count(self)
    }

    fn server(&self, id: ServerId) -> &Server {
        Cluster::server(self, id)
    }

    fn topology(&self) -> &Topology {
        Cluster::topology(self)
    }

    fn locate(&self, task: TaskId) -> Option<ServerId> {
        Cluster::locate(self, task)
    }

    fn overloaded_into(&self, h_r: f64, out: &mut Vec<ServerId>) {
        if h_r == self.tracked_overload_threshold() {
            out.extend(self.overloaded_set().iter().copied());
        } else {
            out.extend(
                self.servers()
                    .iter()
                    .filter(|s| s.is_overloaded(h_r))
                    .map(|s| s.id),
            );
        }
    }
}

/// A copy-on-write speculative view over a base [`Cluster`].
///
/// Mutations (`place`, `remove`, `migrate`) copy the touched server
/// into the overlay on first write and maintain a task→server index
/// delta plus an incrementally-updated overloaded-server set at the
/// overlay's threshold. The [`HostIndex`] is built on the first
/// [`ClusterView::host_index`] call and then kept up to date the same
/// way, unless some resource then has no server at exactly zero. No
/// pick can be certified in that state, and exact zeros come back
/// mid-round only when a speculative remove undoes a place, so the
/// overlay keeps no index rather than maintain one it cannot use.
/// Dropping the overlay discards the speculation; the base cluster is
/// never modified.
#[derive(Debug, Clone)]
pub struct ClusterOverlay<'a> {
    base: &'a Cluster,
    h_r: f64,
    /// Copy-on-write server states, only for servers written to.
    touched: BTreeMap<ServerId, Server>,
    /// Tasks placed (or moved) by the speculation.
    index_add: BTreeMap<TaskId, ServerId>,
    /// Tasks removed from their base placement by the speculation.
    index_del: BTreeSet<TaskId>,
    /// Servers overloaded at `h_r` under the speculative state.
    overloaded: BTreeSet<ServerId>,
    /// Load index of the speculative state, once asked for; `None` if
    /// it could certify nothing then.
    index: OnceCell<Option<HostIndex>>,
}

impl<'a> ClusterOverlay<'a> {
    /// Start a speculation over `base`, tracking overload at `h_r`.
    /// Seeding the overload set is O(|overloaded|) when `h_r` matches
    /// the base's tracked threshold, O(servers) single-compare scans
    /// otherwise — never a full utilization recomputation.
    pub fn new(base: &'a Cluster, h_r: f64) -> Self {
        let overloaded: BTreeSet<ServerId> = if h_r == base.tracked_overload_threshold() {
            base.overloaded_set().clone()
        } else {
            base.servers()
                .iter()
                .filter(|s| s.is_overloaded(h_r))
                .map(|s| s.id)
                .collect()
        };
        ClusterOverlay {
            base,
            h_r,
            touched: BTreeMap::new(),
            index_add: BTreeMap::new(),
            index_del: BTreeSet::new(),
            overloaded,
            index: OnceCell::new(),
        }
    }

    /// The threshold this overlay's overload set tracks.
    pub fn tracked_overload_threshold(&self) -> f64 {
        self.h_r
    }

    /// Number of servers written to so far (diagnostics).
    pub fn touched_count(&self) -> usize {
        self.touched.len()
    }

    /// Mutable access to a server, copying it from the base on first
    /// write.
    fn server_mut(&mut self, id: ServerId) -> &mut Server {
        self.touched
            .entry(id)
            .or_insert_with(|| self.base.server(id).clone())
    }

    /// Bring the overload set and the load index up to date with
    /// server `id` after a write.
    fn sync(&mut self, id: ServerId) {
        let srv = self.server(id);
        let (overloaded, util) = (srv.is_overloaded(self.h_r), srv.utilization().0);
        if overloaded {
            self.overloaded.insert(id);
        } else {
            self.overloaded.remove(&id);
        }
        if let Some(Some(ix)) = self.index.get_mut() {
            ix.update(id, &util);
        }
    }

    /// Speculatively place `task` on `server`'s least-loaded GPU.
    pub fn place(
        &mut self,
        task: TaskId,
        server: ServerId,
        demand: ResourceVec,
        gpu_share: f64,
    ) -> Result<usize, PlaceError> {
        if let Some(existing) = self.locate(task) {
            return Err(PlaceError::AlreadyPlaced(existing));
        }
        if server.0 as usize >= self.base.server_count() {
            return Err(PlaceError::NoSuchServer);
        }
        if !self.server(server).is_up() {
            return Err(PlaceError::ServerDown);
        }
        let gpu = self.server_mut(server).place(task, demand, gpu_share);
        self.index_add.insert(task, server);
        self.index_del.remove(&task);
        self.sync(server);
        Ok(gpu)
    }

    /// Speculatively remove `task` from wherever the view has it.
    pub fn remove(&mut self, task: TaskId) -> Option<(ServerId, TaskPlacement)> {
        let server = self.locate(task)?;
        let p = self.server_mut(server).remove(task)?;
        self.index_add.remove(&task);
        if self.base.locate(task).is_some() {
            // The base also places this task (directly, or before a
            // speculative move); shadow it so it stays gone.
            self.index_del.insert(task);
        }
        self.sync(server);
        Some((server, p))
    }

    /// Speculatively move a placed task to `dst` (keeping its demand).
    /// Transfer accounting is the real cluster's job; the overlay only
    /// models state. As in [`Cluster::migrate`], the destination is
    /// validated before the source is touched, so a refused move
    /// (unknown or down destination) leaves the task exactly where it
    /// was, on the same GPU.
    pub fn migrate(&mut self, task: TaskId, dst: ServerId) -> Result<usize, PlaceError> {
        if dst.0 as usize >= self.base.server_count() {
            return Err(PlaceError::NoSuchServer);
        }
        if !self.server(dst).is_up() {
            return Err(PlaceError::ServerDown);
        }
        let (src, p) = self.remove(task).ok_or(PlaceError::NoSuchServer)?;
        match self.place(task, dst, p.demand, p.gpu_share) {
            Ok(gpu) => Ok(gpu),
            Err(e) => {
                // The destination was validated above, so this arm is
                // unreachable in practice; if it fires, put the task
                // back on the source it just vacated.
                let _ = self.place(task, src, p.demand, p.gpu_share);
                Err(e)
            }
        }
    }
}

impl ClusterView for ClusterOverlay<'_> {
    fn server_count(&self) -> usize {
        self.base.server_count()
    }

    fn server(&self, id: ServerId) -> &Server {
        self.touched
            .get(&id)
            .unwrap_or_else(|| self.base.server(id))
    }

    fn topology(&self) -> &Topology {
        self.base.topology()
    }

    fn locate(&self, task: TaskId) -> Option<ServerId> {
        if let Some(&s) = self.index_add.get(&task) {
            return Some(s);
        }
        if self.index_del.contains(&task) {
            return None;
        }
        self.base.locate(task)
    }

    fn overloaded_into(&self, h_r: f64, out: &mut Vec<ServerId>) {
        if h_r == self.h_r {
            out.extend(self.overloaded.iter().copied());
        } else {
            out.extend(
                (0..self.server_count())
                    .map(|i| ServerId(i as u32))
                    .filter(|&id| self.server(id).is_overloaded(h_r)),
            );
        }
    }

    fn host_index(&self) -> Option<&HostIndex> {
        self.index
            .get_or_init(|| Some(HostIndex::build(self)).filter(HostIndex::zero_in_every_resource))
            .as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;
    use crate::state::ClusterConfig;
    use crate::topology::Topology;

    fn tid(j: u32, i: u16) -> TaskId {
        TaskId::new(JobId(j), i)
    }

    fn base() -> Cluster {
        let mut c = Cluster::new(&ClusterConfig {
            servers: 4,
            gpus_per_server: 2,
            gpu_capacity: 1.0,
            cpu_cores: 8.0,
            memory_gb: 64.0,
            nic_mbps: 1000.0,
            topology: Topology::default_flat(),
        });
        c.place(
            tid(1, 0),
            ServerId(0),
            ResourceVec::new(0.5, 1.0, 4.0, 50.0),
            0.5,
        )
        .unwrap();
        c.place(
            tid(1, 1),
            ServerId(1),
            ResourceVec::new(0.5, 1.0, 4.0, 50.0),
            0.5,
        )
        .unwrap();
        c
    }

    #[test]
    fn reads_fall_through_to_base() {
        let c = base();
        let v = ClusterOverlay::new(&c, 0.9);
        assert_eq!(v.server_count(), 4);
        assert_eq!(v.locate(tid(1, 0)), Some(ServerId(0)));
        assert_eq!(v.server(ServerId(0)).task_count(), 1);
        assert_eq!(v.touched_count(), 0);
    }

    #[test]
    fn writes_copy_only_touched_servers() {
        let c = base();
        let mut v = ClusterOverlay::new(&c, 0.9);
        v.place(tid(2, 0), ServerId(2), ResourceVec::splat(1.0), 0.5)
            .unwrap();
        assert_eq!(v.touched_count(), 1);
        assert_eq!(v.locate(tid(2, 0)), Some(ServerId(2)));
        assert_eq!(v.server(ServerId(2)).task_count(), 1);
        // The base never sees speculative writes.
        assert_eq!(c.locate(tid(2, 0)), None);
        assert_eq!(c.server(ServerId(2)).task_count(), 0);
    }

    #[test]
    fn remove_shadows_base_placements() {
        let c = base();
        let mut v = ClusterOverlay::new(&c, 0.9);
        let (srv, p) = v.remove(tid(1, 0)).unwrap();
        assert_eq!(srv, ServerId(0));
        assert!((p.gpu_share - 0.5).abs() < 1e-12);
        assert_eq!(v.locate(tid(1, 0)), None);
        assert_eq!(v.server(ServerId(0)).task_count(), 0);
        assert_eq!(c.locate(tid(1, 0)), Some(ServerId(0)));
        // Re-placing after a shadow-remove works (rollback pattern).
        v.place(tid(1, 0), ServerId(3), p.demand, p.gpu_share)
            .unwrap();
        assert_eq!(v.locate(tid(1, 0)), Some(ServerId(3)));
    }

    #[test]
    fn double_place_is_an_error() {
        let c = base();
        let mut v = ClusterOverlay::new(&c, 0.9);
        assert_eq!(
            v.place(tid(1, 0), ServerId(3), ResourceVec::splat(0.1), 0.1),
            Err(PlaceError::AlreadyPlaced(ServerId(0)))
        );
    }

    #[test]
    fn overload_set_tracks_speculative_state() {
        let c = base();
        let mut v = ClusterOverlay::new(&c, 0.9);
        assert!(v.overloaded_servers(0.9).is_empty());
        // Overload server 3's memory speculatively.
        v.place(
            tid(3, 0),
            ServerId(3),
            ResourceVec::new(0.0, 0.0, 60.0, 0.0),
            0.0,
        )
        .unwrap();
        assert_eq!(v.overloaded_servers(0.9), vec![ServerId(3)]);
        v.remove(tid(3, 0)).unwrap();
        assert!(v.overloaded_servers(0.9).is_empty());
        // The base index is untouched.
        assert!(c.overloaded_servers(0.9).is_empty());
    }

    #[test]
    fn overlay_seeds_from_overloaded_base() {
        let mut c = base();
        c.place(
            tid(4, 0),
            ServerId(2),
            ResourceVec::new(0.0, 7.9, 0.0, 0.0),
            0.0,
        )
        .unwrap();
        let mut v = ClusterOverlay::new(&c, 0.9);
        assert_eq!(v.overloaded_servers(0.9), vec![ServerId(2)]);
        // Shedding the load speculatively clears the overlay's set.
        v.remove(tid(4, 0)).unwrap();
        assert!(v.overloaded_servers(0.9).is_empty());
        assert_eq!(c.overloaded_servers(0.9), vec![ServerId(2)]);
    }

    #[test]
    fn migrate_moves_within_overlay() {
        let c = base();
        let mut v = ClusterOverlay::new(&c, 0.9);
        v.migrate(tid(1, 0), ServerId(3)).unwrap();
        assert_eq!(v.locate(tid(1, 0)), Some(ServerId(3)));
        assert_eq!(v.server(ServerId(0)).task_count(), 0);
        assert_eq!(v.server(ServerId(3)).task_count(), 1);
        assert_eq!(c.locate(tid(1, 0)), Some(ServerId(0)));
    }

    #[test]
    fn remove_after_migrate_does_not_resurrect_base_placement() {
        let c = base();
        let mut v = ClusterOverlay::new(&c, 0.9);
        v.migrate(tid(1, 0), ServerId(3)).unwrap();
        v.remove(tid(1, 0)).unwrap();
        assert_eq!(v.locate(tid(1, 0)), None);
        assert_eq!(c.locate(tid(1, 0)), Some(ServerId(0)));
    }

    #[test]
    fn overlay_refuses_down_servers_and_restores_failed_migrations() {
        let mut c = base();
        c.fail_server(ServerId(3), None);
        let mut v = ClusterOverlay::new(&c, 0.9);
        assert_eq!(
            v.place(tid(5, 0), ServerId(3), ResourceVec::splat(0.1), 0.1),
            Err(PlaceError::ServerDown)
        );
        // A migration to the down server keeps the task on its source.
        assert_eq!(
            v.migrate(tid(1, 0), ServerId(3)),
            Err(PlaceError::ServerDown)
        );
        assert_eq!(v.locate(tid(1, 0)), Some(ServerId(0)));
        assert_eq!(v.server(ServerId(0)).task_count(), 1);
        // The refusal never touched the source: nothing was copied.
        assert_eq!(v.touched_count(), 0);
    }

    #[test]
    fn host_index_is_kept_only_while_every_resource_has_a_zero() {
        // Two idle servers: every resource has an exact zero.
        let c = base();
        let mut v = ClusterOverlay::new(&c, 0.9);
        assert!(v.host_index().is_some());
        v.place(tid(2, 0), ServerId(2), ResourceVec::splat(0.1), 0.1)
            .unwrap();
        assert_eq!(
            v.host_index().map(|ix| ix.key(ServerId(2)) > 0.0),
            Some(true)
        );
        // Load every server in every resource: nothing to certify.
        let mut full = base();
        for s in 2..4 {
            full.place(
                tid(3, s),
                ServerId(u32::from(s)),
                ResourceVec::splat(0.1),
                0.1,
            )
            .unwrap();
        }
        assert!(ClusterOverlay::new(&full, 0.9).host_index().is_none());
    }

    #[test]
    fn non_tracked_threshold_falls_back_to_scan() {
        let c = base();
        let v = ClusterOverlay::new(&c, 0.9);
        // At a 1% threshold both loaded servers count as overloaded.
        assert_eq!(v.overloaded_servers(0.01), vec![ServerId(0), ServerId(1)]);
    }
}
