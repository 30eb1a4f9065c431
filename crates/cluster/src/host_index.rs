//! An ordered load index over a cluster's servers, the data behind
//! RIAL host selection's exact fast path.
//!
//! RIAL (§3.3.2) scores every feasible server by its squared Euclidean
//! distance to an ideal point whose utilization part is the
//! per-resource minimum over the candidates. When that minimum is zero
//! on every resource, a server's utilization distance no longer depends
//! on the candidate set: it is the server's own key
//! `0.0 + Σ_d (u_d − 0.0)²`, summed in resource order exactly as the
//! scan sums it. [`HostIndex`] keeps those keys sorted, so the host
//! choice becomes a walk from the front instead of a scan of every
//! server. Per resource, it also keeps the servers at exactly zero
//! utilization, which certify the zero ideal point
//! ([`HostIndex::zero_in`]).
//!
//! The index is O(servers) in memory, independent of jobs and tasks.
//! [`ClusterOverlay`](crate::ClusterOverlay) builds it on first use,
//! keeps it only if every resource then has a server at exactly zero,
//! and updates it on every speculative place or remove.

use crate::ids::ServerId;
use crate::resources::NUM_RESOURCES;
use crate::view::ClusterView;

/// The utilization distance of a server to an all-zero ideal point,
/// summed exactly as RIAL's scan sums it.
pub fn load_key(util: &[f64; NUM_RESOURCES]) -> f64 {
    let mut d2 = 0.0;
    for &u in util {
        let diff = u - 0.0;
        d2 += diff * diff;
    }
    d2
}

/// What the index records about one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Bits of the server's [`load_key`].
    key_bits: u64,
    /// Bit `d` is set when utilization in resource `d` is exactly zero.
    zero_mask: u8,
    /// Some utilization component is negative, infinite or NaN.
    irregular: bool,
}

impl Entry {
    fn of(util: &[f64; NUM_RESOURCES]) -> Self {
        let mut zero_mask = 0u8;
        let mut irregular = false;
        for (d, &u) in util.iter().enumerate() {
            if u == 0.0 {
                zero_mask |= 1 << d;
            }
            irregular |= !(u.is_finite() && u >= 0.0);
        }
        Entry {
            key_bits: load_key(util).to_bits(),
            zero_mask,
            irregular,
        }
    }
}

/// A set of server ids as a bitset; iterates in id order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    fn with_capacity(n: usize) -> Self {
        IdSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn set(&mut self, id: u32, on: bool) {
        let bit = 1u64 << (id % 64);
        if let Some(w) = self.words.get_mut((id / 64) as usize) {
            if on {
                *w |= bit;
            } else {
                *w &= !bit;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(ServerId(w as u32 * 64 + bit))
            })
        })
    }
}

/// Servers ordered by `(load_key, id)`, plus per-resource exact-zero
/// sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostIndex {
    /// One entry per server, by id.
    entries: Vec<Entry>,
    /// `(key bits, id)` ascending. Keys are never negative (a sum of
    /// squares that starts at `+0.0`), so their bit patterns order
    /// like their values.
    ranked: Vec<(u64, u32)>,
    /// Per resource: servers whose utilization there is exactly zero.
    zeros: [IdSet; NUM_RESOURCES],
    /// Number of servers with an irregular utilization component.
    irregular: usize,
}

impl HostIndex {
    /// Index every server of `view` from scratch. O(servers log servers).
    pub(crate) fn build<V: ClusterView + ?Sized>(view: &V) -> Self {
        let n = view.server_count();
        let mut ix = HostIndex {
            entries: Vec::with_capacity(n),
            ranked: Vec::with_capacity(n),
            zeros: std::array::from_fn(|_| IdSet::with_capacity(n)),
            irregular: 0,
        };
        for i in 0..n {
            let id = i as u32;
            let e = Entry::of(&view.server(ServerId(id)).utilization().0);
            ix.entries.push(e);
            ix.ranked.push((e.key_bits, id));
            ix.mark(id, e, true);
        }
        ix.ranked.sort_unstable();
        ix
    }

    /// Add (`on`) or drop the set memberships `e` implies for `id`.
    fn mark(&mut self, id: u32, e: Entry, on: bool) {
        for (d, zeros) in self.zeros.iter_mut().enumerate() {
            if e.zero_mask & (1 << d) != 0 {
                zeros.set(id, on);
            }
        }
        if e.irregular {
            if on {
                self.irregular += 1;
            } else {
                self.irregular -= 1;
            }
        }
    }

    /// Re-index server `id` after its utilization became `util`.
    /// O(servers) worst case (one sorted-vector shift), no allocation.
    pub(crate) fn update(&mut self, id: ServerId, util: &[f64; NUM_RESOURCES]) {
        let new = Entry::of(util);
        let Some(&old) = self.entries.get(id.0 as usize) else {
            return;
        };
        if old == new {
            return;
        }
        self.mark(id.0, old, false);
        self.mark(id.0, new, true);
        if let Some(slot) = self.entries.get_mut(id.0 as usize) {
            *slot = new;
        }
        if old.key_bits != new.key_bits {
            if let Ok(at) = self.ranked.binary_search(&(old.key_bits, id.0)) {
                self.ranked.remove(at);
            }
            let at = self
                .ranked
                .binary_search(&(new.key_bits, id.0))
                .unwrap_or_else(|at| at);
            self.ranked.insert(at, (new.key_bits, id.0));
        }
    }

    /// True when every resource has some server at exactly zero
    /// utilization: the precondition for certifying any pick.
    pub(crate) fn zero_in_every_resource(&self) -> bool {
        self.zeros.iter().all(|z| !z.is_empty())
    }

    /// False when some server has a negative or non-finite utilization
    /// component. Then neither the zero sets nor the key order
    /// certify anything, and callers must scan.
    pub fn is_exact(&self) -> bool {
        self.irregular == 0
    }

    /// The [`load_key`] of server `id` (infinity for an unknown id).
    pub fn key(&self, id: ServerId) -> f64 {
        self.entries
            .get(id.0 as usize)
            .map_or(f64::INFINITY, |e| f64::from_bits(e.key_bits))
    }

    /// Servers in `(key, id)` order.
    pub fn ranked(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.ranked.iter().map(|&(_, id)| ServerId(id))
    }

    /// Servers whose utilization in resource `d` is exactly zero, in
    /// id order. Float residue (a server whose tasks all left can keep
    /// `4.9e-17`) does not count.
    pub fn zero_in(&self, d: usize) -> impl Iterator<Item = ServerId> + '_ {
        self.zeros.get(d).into_iter().flat_map(IdSet::iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_key_sums_squares_in_resource_order() {
        assert_eq!(load_key(&[0.0; NUM_RESOURCES]).to_bits(), 0.0f64.to_bits());
        assert_eq!(load_key(&[0.5, 0.0, 0.25, 0.0]), 0.3125);
    }

    #[test]
    fn id_set_iterates_in_id_order_across_words() {
        let mut s = IdSet::with_capacity(200);
        for id in [130, 3, 64, 199, 3] {
            s.set(id, true);
        }
        s.set(64, false);
        let ids: Vec<u32> = s.iter().map(|s| s.0).collect();
        assert_eq!(ids, vec![3, 130, 199]);
    }

    mod proptests {
        use super::super::*;
        use crate::ids::{JobId, TaskId};
        use crate::resources::ResourceVec;
        use crate::state::{Cluster, ClusterConfig};
        use crate::topology::Topology;
        use crate::view::ClusterOverlay;
        use proptest::prelude::*;

        /// More than 64 servers, so the id sets span two words.
        const SERVERS: u32 = 70;

        /// Map unit draws to demands that are exactly zero, tiny (float
        /// residue after removal) or ordinary, per resource.
        fn demand(unit: [f64; NUM_RESOURCES]) -> ResourceVec {
            let cap = [2.0, 16.0, 128.0, 1000.0];
            let mut d = [0.0; NUM_RESOURCES];
            for ((slot, u), c) in d.iter_mut().zip(unit).zip(cap) {
                *slot = if u < 0.3 {
                    0.0
                } else if u < 0.45 {
                    c * u * 1e-7
                } else {
                    c * u * 0.3
                };
            }
            ResourceVec(d)
        }

        fn base() -> Cluster {
            let mut c = Cluster::new(&ClusterConfig {
                servers: SERVERS as usize,
                gpus_per_server: 2,
                gpu_capacity: 1.0,
                cpu_cores: 16.0,
                memory_gb: 128.0,
                nic_mbps: 1000.0,
                topology: Topology::default_flat(),
            });
            for k in 0..40u16 {
                let d = demand([0.5, 0.35, 0.2, 0.9]);
                let sid = ServerId(u32::from(k) * 7 % SERVERS);
                c.place(TaskId::new(JobId(1), k), sid, d, d.0[0] / 2.0)
                    .unwrap();
            }
            c.fail_server(ServerId(3), None);
            c
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// After any sequence of speculative places, removes and
            /// migrations, the overlay's incrementally kept index equals
            /// one rebuilt from scratch.
            #[test]
            fn overlay_index_equals_a_rebuild(
                ops in proptest::collection::vec(
                    (0u8..3, 0u16..60, 0u32..SERVERS, proptest::array::uniform4(0.0f64..1.0)),
                    0..120,
                ),
                early in any::<bool>(),
            ) {
                let c = base();
                let mut v = ClusterOverlay::new(&c, 0.9);
                if early {
                    // The base has idle servers, so the index is kept.
                    prop_assert!(v.host_index().is_some());
                }
                for (op, task, sid, unit) in ops {
                    let t = TaskId::new(JobId(1), task);
                    match op {
                        0 => {
                            let d = demand(unit);
                            let _ = v.place(t, ServerId(sid), d, d.0[0] / 2.0);
                        }
                        1 => {
                            v.remove(t);
                        }
                        _ => {
                            let _ = v.migrate(t, ServerId(sid));
                        }
                    }
                    if early {
                        prop_assert_eq!(v.host_index(), Some(&HostIndex::build(&v)));
                    }
                }
                // A late first call indexes the state it finds, gated
                // like any other.
                let fresh = HostIndex::build(&v);
                let kept = Some(&fresh).filter(|ix| early || ix.zero_in_every_resource());
                prop_assert_eq!(v.host_index(), kept);
            }
        }
    }
}
