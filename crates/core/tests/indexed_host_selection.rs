//! Differential tests for RIAL host selection's indexed fast path.
//!
//! On random cluster states, `select_host` over a `ClusterOverlay`
//! (which keeps a `HostIndex` and answers most calls from it) must pick
//! exactly the server the full scan picks over the same state held in a
//! plain `Cluster`. The states mix what the fast path has to get right:
//! servers whose tasks all left and kept float residue, exact zeros in
//! some resources with no all-zero server, keys on both sides of 2⁻⁵¹
//! (where `key + 6.0` stops rounding to 6.0), neighbour hosts that are
//! feasible, overloaded, draining or down, a `deny` predicate, and
//! `use_bandwidth` off.

use cluster::host_index::load_key;
use cluster::{
    Cluster, ClusterConfig, ClusterOverlay, ClusterView, JobId, ResourceVec, ServerId, TaskId,
    Topology, NUM_RESOURCES,
};
use mlfs::placement::select_host_filtered;
use mlfs::Params;
use proptest::prelude::*;
use simcore::{SimDuration, SimRng, SimTime};
use workload::dag::Dag;
use workload::job::{JobSpec, StopPolicy, TaskSpec};
use workload::{CommStructure, JobArena, JobState, LearningProfile, MlAlgorithm};

/// 2⁻⁵¹: keys at or below it vanish next to the affinity weight 6.0.
const HALF_ULP_OF_SIX: f64 = 1.0 / (1u64 << 51) as f64;

/// Filler tasks that load servers; most are removed again.
const FILLER: JobId = JobId(900);
/// Tasks placed only by the speculation.
const SPECULATIVE: JobId = JobId(901);
/// The job whose tasks are being placed.
const PLACED: JobId = JobId(1);

/// Per-server capacity: GPU (per GPU), CPU cores, memory GB, NIC Mbps.
const CAPACITY: [f64; NUM_RESOURCES] = [1.0, 16.0, 128.0, 1000.0];

/// Per-resource demand: exactly zero, tiny (utilization 1e-9..1e-7,
/// so squared keys straddle 2⁻⁵¹) or ordinary. Returns the demand and
/// its single-GPU share.
fn demand(rng: &mut SimRng) -> (ResourceVec, f64) {
    let mut d = [0.0; NUM_RESOURCES];
    for (slot, cap) in d.iter_mut().zip(CAPACITY) {
        let r = rng.f64();
        *slot = if r < 0.3 {
            0.0
        } else if r < 0.5 {
            cap * rng.range_f64(1e-9, 1e-7)
        } else {
            cap * rng.range_f64(0.01, 0.35)
        };
    }
    (ResourceVec(d), d[0])
}

/// A job of `n` tasks with a chain DAG, so every task has neighbours.
fn chain_job(
    n: usize,
    demand: ResourceVec,
    share: f64,
    comm: CommStructure,
    comm_mb: f64,
) -> JobState {
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec {
            id: TaskId::new(PLACED, i as u16),
            partition_mb: 100.0,
            demand,
            gpu_share: share,
            compute: SimDuration::from_secs(1),
            is_param_server: false,
        })
        .collect();
    let spec = JobSpec {
        id: PLACED,
        algorithm: MlAlgorithm::Mlp,
        arrival: SimTime::ZERO,
        deadline: SimTime::from_hours(5),
        required_accuracy: 0.6,
        urgency: 5,
        max_iterations: 100,
        tasks,
        dag: Dag::sequential(n),
        comm,
        comm_mb,
        model_mb: 100.0 * n as f64,
        train_data_mb: 300.0,
        curve: LearningProfile::new(2.0, 0.2, 0.05, 0.9),
        stop_policy: StopPolicy::MaxIterations,
        allow_demotion: true,
        predicted_runtime: SimDuration::from_hours(1),
        previously_run: true,
    };
    JobState::new(spec, SimTime::ZERO)
}

/// Which edge cases one random state exercised.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// A server with no tasks kept non-zero utilization.
    residue: bool,
    /// Every resource had a feasible server at exactly zero, yet no
    /// feasible server was zero in all of them.
    zero_ideal_without_empty_server: bool,
    /// Keys in (0, 2⁻⁵¹] and in (2⁻⁵¹, 1e-13].
    keys_on_both_sides: bool,
    /// A neighbour of a placed task sat on a feasible server.
    feasible_neighbour_host: bool,
    /// A neighbour sat on an overloaded server.
    overloaded_neighbour_host: bool,
    /// A neighbour sat on a server that was not up.
    unavailable_neighbour_host: bool,
    /// The deny predicate changed the pick.
    deny_changed_pick: bool,
    /// The overlay kept a load index, so its picks could come from it.
    indexed: bool,
}

impl Coverage {
    fn merge(&mut self, o: Coverage) {
        self.residue |= o.residue;
        self.zero_ideal_without_empty_server |= o.zero_ideal_without_empty_server;
        self.keys_on_both_sides |= o.keys_on_both_sides;
        self.feasible_neighbour_host |= o.feasible_neighbour_host;
        self.overloaded_neighbour_host |= o.overloaded_neighbour_host;
        self.unavailable_neighbour_host |= o.unavailable_neighbour_host;
        self.deny_changed_pick |= o.deny_changed_pick;
    }
}

/// Build one random state from `seed`, assert the overlay's picks equal
/// the scan's, and report what the state covered.
fn check(seed: u64) -> Coverage {
    let mut rng = SimRng::new(seed);
    let n = 2 + rng.index(30);
    let gpus = 1 + rng.index(3);
    let mut base = Cluster::new(&ClusterConfig {
        servers: n,
        gpus_per_server: gpus,
        gpu_capacity: CAPACITY[0],
        cpu_cores: CAPACITY[1],
        memory_gb: CAPACITY[2],
        nic_mbps: CAPACITY[3],
        topology: Topology::default_flat(),
    });
    // Above 1.22, a feasible neighbour host can score ≥ 6.
    let h_r = *rng.choose(&[0.9, 0.9, 1.6]);
    let server = |rng: &mut SimRng| ServerId(rng.index(n) as u32);

    // Load servers, then take most of it off again: residue.
    let fillers = rng.index(4 * n + 1);
    for k in 0..fillers {
        let (d, s) = demand(&mut rng);
        let sid = server(&mut rng);
        let _ = base.place(TaskId::new(FILLER, k as u16), sid, d, s);
    }
    for k in 0..fillers {
        if rng.chance(0.6) {
            base.remove(TaskId::new(FILLER, k as u16));
        }
    }
    // Overload a server in one resource.
    if rng.chance(0.4) {
        let mut d = [0.0; NUM_RESOURCES];
        let r = rng.index(NUM_RESOURCES);
        d[r] = CAPACITY[r] * h_r * 1.05 * if r == 0 { gpus as f64 } else { 1.0 };
        let _ = base.place(
            TaskId::new(FILLER, 999),
            server(&mut rng),
            ResourceVec(d),
            0.0,
        );
    }

    // The job being placed; some of its tasks already run.
    let m = 2 + rng.index(5);
    let (d, s) = demand(&mut rng);
    let comm = if rng.chance(0.5) {
        CommStructure::AllReduce
    } else {
        CommStructure::ParameterServer
    };
    let comm_mb = if rng.chance(0.1) {
        0.0
    } else {
        rng.range_f64(1.0, 200.0)
    };
    let job = chain_job(m, d, s, comm, comm_mb);
    for i in 0..m {
        if rng.chance(0.4) {
            let sid = server(&mut rng);
            if h_r > 1.5 && rng.chance(0.5) {
                // Load the host to 1.2 everywhere: its key 5.76 plus the
                // task's own load can reach the affinity weight 6.
                let mut heavy = ResourceVec(CAPACITY.map(|c| c * 1.2));
                heavy.0[0] *= gpus as f64;
                let _ = base.place(TaskId::new(FILLER, 1000 + i as u16), sid, heavy, 1.2);
            }
            let _ = base.place(TaskId::new(PLACED, i as u16), sid, d, s);
        }
    }
    // Drain or fail a few servers (failing evicts, and leaves residue).
    for _ in 0..rng.index(3) {
        let sid = server(&mut rng);
        if rng.chance(0.5) {
            base.drain_server(sid);
        } else {
            base.fail_server(sid, None);
        }
    }

    // The same speculation on the overlay and on a plain copy.
    let mut overlay = ClusterOverlay::new(&base, h_r);
    let mut plain = base.clone();
    if rng.chance(0.5) {
        // Built now (if every resource has a zero), the index is then
        // kept by incremental updates.
        let _ = overlay.host_index();
    }
    let mut known: Vec<TaskId> = (0..fillers as u16)
        .map(|k| TaskId::new(FILLER, k))
        .chain((0..m as u16).map(|i| TaskId::new(PLACED, i)))
        .collect();
    for k in 0..rng.index(2 * n + 1) {
        match rng.index(3) {
            0 => {
                let t = TaskId::new(SPECULATIVE, k as u16);
                let (d, s) = demand(&mut rng);
                let sid = server(&mut rng);
                let a = overlay.place(t, sid, d, s);
                assert_eq!(a, plain.place(t, sid, d, s), "seed {seed}");
                known.push(t);
            }
            1 => {
                let t = *rng.choose(&known);
                assert_eq!(overlay.remove(t), plain.remove(t), "seed {seed}");
            }
            _ => {
                let t = *rng.choose(&known);
                let dst = server(&mut rng);
                assert_eq!(
                    overlay.migrate(t, dst),
                    plain.migrate(t, dst, 0.0),
                    "seed {seed}"
                );
            }
        }
    }

    let jobs: JobArena = [(PLACED, job)].into_iter().collect();
    let mut cov = Coverage::default();
    let deny_rule = (2 + rng.index(3) as u32, rng.index(2) as u32);
    for i in 0..m {
        let task = TaskId::new(PLACED, i as u16);
        for use_bandwidth in [true, false] {
            let p = Params {
                h_r,
                use_bandwidth,
                ..Params::default()
            };
            let open = select_host_filtered(&plain, &jobs, task, None, &p, |_| false);
            assert_eq!(
                select_host_filtered(&overlay, &jobs, task, None, &p, |_| false),
                open,
                "seed {seed} task {i} use_bandwidth {use_bandwidth}"
            );
            let deny = |sid: ServerId| sid.0 % deny_rule.0 == deny_rule.1;
            let denied = select_host_filtered(&plain, &jobs, task, None, &p, deny);
            assert_eq!(
                select_host_filtered(&overlay, &jobs, task, None, &p, deny),
                denied,
                "seed {seed} task {i} use_bandwidth {use_bandwidth} deny {deny_rule:?}"
            );
            cov.deny_changed_pick |= denied != open;
            // Migrations always scan; both views must still agree.
            let from = Some(server(&mut rng));
            assert_eq!(
                select_host_filtered(&overlay, &jobs, task, from, &p, |_| false),
                select_host_filtered(&plain, &jobs, task, from, &p, |_| false),
                "seed {seed} task {i} migrating from {from:?}"
            );
        }
    }

    // What this state covered.
    cov.indexed = overlay.host_index().is_some();
    let srv = |sid: ServerId| plain.server(sid);
    let all = (0..n as u32).map(ServerId);
    cov.residue = all.clone().any(|sid| {
        srv(sid).task_count() == 0 && srv(sid).utilization().0.iter().any(|&u| u != 0.0)
    });
    let keys: Vec<f64> = all
        .clone()
        .map(|sid| load_key(&srv(sid).utilization().0))
        .collect();
    cov.keys_on_both_sides = keys.iter().any(|&k| k > 0.0 && k <= HALF_ULP_OF_SIX)
        && keys.iter().any(|&k| k > HALF_ULP_OF_SIX && k <= 1e-13);
    let (demand0, share0) = (d, s);
    let feasible: Vec<ServerId> = all
        .clone()
        .filter(|&sid| !srv(sid).is_overloaded(h_r) && srv(sid).can_host(&demand0, share0, h_r))
        .collect();
    let zero_in = |dim: usize| {
        feasible
            .iter()
            .any(|&sid| srv(sid).utilization().0.get(dim) == Some(&0.0))
    };
    let all_zero = feasible
        .iter()
        .any(|&sid| srv(sid).utilization().0.iter().all(|&u| u == 0.0));
    cov.zero_ideal_without_empty_server = (0..NUM_RESOURCES).all(zero_in) && !all_zero;
    for i in 0..m {
        if let Some(host) = plain.locate(TaskId::new(PLACED, i as u16)) {
            let h = srv(host);
            if !h.is_up() {
                cov.unavailable_neighbour_host = true;
            } else if h.is_overloaded(h_r) {
                cov.overloaded_neighbour_host = true;
            } else if h.can_host(&demand0, share0, h_r) {
                cov.feasible_neighbour_host = true;
            }
        }
    }
    cov
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    /// The overlay's (indexed) pick equals the plain cluster's (scanned)
    /// pick on every random state, with and without bandwidth, a deny
    /// predicate or a migration source.
    #[test]
    fn overlay_pick_equals_scan(seed in any::<u64>()) {
        check(seed);
    }
}

/// The random states reach every edge case the fast path must handle.
#[test]
fn random_states_cover_the_edge_cases() {
    let mut cov = Coverage::default();
    let mut indexed = 0;
    for seed in 0..200 {
        let c = check(seed);
        indexed += usize::from(c.indexed);
        cov.merge(c);
    }

    assert!(cov.residue, "{cov:?}");
    assert!(cov.zero_ideal_without_empty_server, "{cov:?}");
    assert!(cov.keys_on_both_sides, "{cov:?}");
    assert!(cov.feasible_neighbour_host, "{cov:?}");
    assert!(cov.overloaded_neighbour_host, "{cov:?}");
    assert!(cov.unavailable_neighbour_host, "{cov:?}");
    assert!(cov.deny_changed_pick, "{cov:?}");
    // Most states keep an index, so most picks could come from it.
    assert!(indexed > 100, "{indexed} of 200 states kept an index");
}

fn small_cluster(n: usize) -> Cluster {
    Cluster::new(&ClusterConfig {
        servers: n,
        gpus_per_server: 2,
        gpu_capacity: 1.0,
        cpu_cores: 16.0,
        memory_gb: 128.0,
        nic_mbps: 1000.0,
        topology: Topology::default_flat(),
    })
}

fn filler(c: &mut Cluster, k: u16, sid: u32, d: [f64; NUM_RESOURCES]) {
    c.place(TaskId::new(FILLER, k), ServerId(sid), ResourceVec(d), d[0])
        .unwrap();
}

/// Two non-neighbour servers whose distinct keys round to the same
/// score once the affinity weight is added: the scan takes the lower
/// id, which is *not* the first of them in key order.
#[test]
fn rounding_ties_go_to_the_lowest_id_not_the_lowest_key() {
    let mut c = small_cluster(4);
    // Server 2 hosts the neighbour and is loaded to 1.3 everywhere:
    // not overloaded at h_r = 2, but its key 6.76 is above the weight.
    let job = chain_job(
        2,
        ResourceVec::new(0.5, 2.0, 8.0, 50.0),
        0.5,
        CommStructure::AllReduce,
        80.0,
    );
    c.place(
        TaskId::new(PLACED, 0),
        ServerId(2),
        ResourceVec::new(2.6, 20.8, 166.4, 1300.0),
        1.3,
    )
    .unwrap();
    // Memory-only loads with keys ~1.2e-15 (server 0) and ~5e-16
    // (server 1); a CPU-only load on server 3 gives memory its zero.
    filler(&mut c, 0, 0, [0.0, 0.0, 128.0 * 1.2e-15f64.sqrt(), 0.0]);
    filler(&mut c, 1, 1, [0.0, 0.0, 128.0 * 5e-16f64.sqrt(), 0.0]);
    filler(&mut c, 2, 3, [0.0, 8.0, 0.0, 0.0]);
    let k = |sid: u32| load_key(&c.server(ServerId(sid)).utilization().0);
    assert!(k(1) < k(0) && k(1) > HALF_ULP_OF_SIX);
    assert_eq!(k(0) + 6.0, k(1) + 6.0);
    assert!(k(2) > 6.0);

    let jobs: JobArena = [(PLACED, job)].into_iter().collect();
    let p = Params {
        h_r: 2.0,
        ..Params::default()
    };
    let task = TaskId::new(PLACED, 1);
    let overlay = ClusterOverlay::new(&c, p.h_r);
    let first_by_key = overlay.host_index().and_then(|ix| ix.ranked().next());
    assert_eq!(first_by_key, Some(ServerId(1)));
    let scan = select_host_filtered(&c, &jobs, task, None, &p, |_| false);
    assert_eq!(scan, Some(ServerId(0)));
    assert_eq!(
        select_host_filtered(&overlay, &jobs, task, None, &p, |_| false),
        scan
    );
}

/// Residue everywhere and no empty server: each resource still has a
/// server at exactly zero, so the ideal point is all-zero, and the
/// indexed pick (a neighbour host that is last in key order) matches
/// the scan.
#[test]
fn residue_servers_still_certify_a_zero_ideal_point() {
    let mut c = small_cluster(5);
    // Servers 0 and 1: every task left, float residue stayed.
    for sid in 0..2u32 {
        for (k, g) in [0.1, 0.2, 0.3].into_iter().enumerate() {
            let t = TaskId::new(FILLER, (sid * 3 + k as u32) as u16);
            c.place(t, ServerId(sid), ResourceVec::new(g, 1.7, 9.3, 77.7), g)
                .unwrap();
        }
        for k in 0..3u32 {
            c.remove(TaskId::new(FILLER, (sid * 3 + k) as u16));
        }
    }
    // Exact zeros per resource, spread so no server is zero everywhere.
    filler(&mut c, 100, 3, [0.2, 0.0, 0.0, 0.0]);
    filler(&mut c, 101, 4, [0.0, 2.0, 0.0, 0.0]);
    let job = chain_job(
        2,
        ResourceVec::new(0.5, 2.0, 8.0, 50.0),
        0.5,
        CommStructure::AllReduce,
        80.0,
    );
    c.place(
        TaskId::new(PLACED, 0),
        ServerId(2),
        ResourceVec::new(0.5, 2.0, 8.0, 50.0),
        0.5,
    )
    .unwrap();
    let residue = (0..2u32).all(|sid| {
        let u = c.server(ServerId(sid)).utilization().0;
        u.iter().any(|&x| x > 0.0 && x < 1e-12)
    });
    assert!(residue, "place-then-remove left no residue to test against");
    let jobs: JobArena = [(PLACED, job)].into_iter().collect();
    let overlay = ClusterOverlay::new(&c, 0.9);
    let ix = overlay.host_index().unwrap();
    for d in 0..NUM_RESOURCES {
        assert!(ix.zero_in(d).next().is_some(), "no zero in resource {d}");
    }
    let zero_everywhere =
        |sid: ServerId| (0..NUM_RESOURCES).all(|d| ix.zero_in(d).any(|z| z == sid));
    assert!(!(0..5u32).map(ServerId).any(zero_everywhere));
    assert_eq!(ix.ranked().last(), Some(ServerId(2)));
    let task = TaskId::new(PLACED, 1);
    for use_bandwidth in [true, false] {
        let p = Params {
            use_bandwidth,
            ..Params::default()
        };
        let scan = select_host_filtered(&c, &jobs, task, None, &p, |_| false);
        assert_eq!(
            select_host_filtered(&overlay, &jobs, task, None, &p, |_| false),
            scan
        );
        assert_eq!(scan == Some(ServerId(2)), use_bandwidth);
    }
}
