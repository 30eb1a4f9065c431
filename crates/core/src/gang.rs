//! One gang-placement routine for every scheduler.
//!
//! DL workers are gang-scheduled: a job's waiting tasks are placed
//! together or not at all, since a partial placement holds resources
//! at a fraction of the progress. Every scheduler in the workspace
//! (MLF-H, MLF-RL's policy rounds and the baselines) places its queue
//! with the three pieces here:
//!
//! * [`group_by_job`]: a stable group-by-job of an ordered task list;
//! * [`place_gang`]: all of one job's tasks on a speculative plan, or
//!   none of them;
//! * [`overload_round`]: MLF-H's round (§3.3.2–3.3.3). Victims come off
//!   overloaded servers, then jobs are visited in priority order: each
//!   victim is re-placed on its own, and the job's waiting tasks are
//!   placed as a gang. The host choice is the caller's, which is all
//!   that MLF-RL's policy (§3.4) replaces.

use crate::params::Params;
use crate::placement::{migration_state_mb, select_victim};
use crate::priority::{job_task_priorities_into, PriorityMap, PriorityScratch};
use crate::scheduler::{Action, SchedulerContext};
use cluster::{ClusterOverlay, ClusterView, JobId, ServerId, TaskId};
use std::collections::BTreeMap;
use workload::JobArena;

/// Reorder `items` so that each job's items are contiguous and iterate
/// over the per-job runs. Jobs come out in order of first appearance;
/// each job's items keep their relative order. O(n log n).
pub fn group_by_job<T>(items: &mut [T], job: impl Fn(&T) -> JobId) -> impl Iterator<Item = &[T]> {
    let mut rank: BTreeMap<JobId, usize> = BTreeMap::new();
    for item in items.iter() {
        let next = rank.len();
        rank.entry(job(item)).or_insert(next);
    }
    // Stable: equal ranks (one job's items) keep their order.
    items.sort_by_cached_key(|item| rank.get(&job(item)).copied().unwrap_or(usize::MAX));
    items.chunk_by(move |a, b| job(a) == job(b))
}

/// Place every task of one job's gang on `plan`, each on the host
/// `pick` chooses. If a task has no spec, `pick` finds no host, or the
/// host refuses the task (it went down this round), the tasks placed so
/// far are removed again and `None` is returned. Otherwise returns the
/// `(task, host)` placements in `tasks` order.
pub fn place_gang(
    plan: &mut ClusterOverlay<'_>,
    jobs: &JobArena,
    tasks: &[TaskId],
    mut pick: impl FnMut(&ClusterOverlay<'_>, TaskId) -> Option<ServerId>,
) -> Option<Vec<(TaskId, ServerId)>> {
    let mut placed = Vec::with_capacity(tasks.len());
    for &task in tasks {
        let spec = jobs
            .get(&task.job)
            .and_then(|job| job.spec.tasks.get(task.idx as usize));
        let host = spec.and_then(|spec| {
            let host = pick(plan, task)?;
            plan.place(task, host, spec.demand, spec.gpu_share)
                .ok()
                .map(|_| host)
        });
        match host {
            Some(host) => placed.push((task, host)),
            None => {
                for (task, _) in placed {
                    plan.remove(task);
                }
                return None;
            }
        }
    }
    Some(placed)
}

/// Priorities for exactly the jobs a round can act on: those with
/// queued tasks plus those with tasks on a server in `overloaded`.
/// The round consumes priorities only to order queued tasks and to
/// pick migration victims on overloaded servers, so skipping every
/// other job is sound, and most rounds touch a small fraction of the
/// active jobs.
fn candidate_priorities(
    ctx: &SchedulerContext<'_>,
    params: &Params,
    overloaded: &[ServerId],
) -> PriorityMap {
    // Sorted-dedup job list: iteration stays in ascending JobId order.
    let mut needed: Vec<JobId> = ctx.queue.iter().map(|t| t.job).collect();
    for &sid in overloaded {
        for (t, _) in ctx.cluster.server(sid).tasks() {
            needed.push(t.job);
        }
    }
    needed.sort_unstable();
    needed.dedup();
    let mut out = PriorityMap::with_capacity(needed.len() * 4);
    let mut scratch = PriorityScratch::default();
    for jid in needed {
        let Some(job) = ctx.jobs.get(&jid) else {
            continue;
        };
        job_task_priorities_into(job, ctx.now, params, &mut scratch);
        for (idx, &p) in scratch.out.iter().enumerate() {
            out.push(TaskId::new(jid, idx as u16), p);
        }
    }
    out
}

/// What one [`overload_round`] decided.
#[derive(Debug, Default)]
pub struct RoundPlan {
    /// Every placement made, in decision order, as `(task, host)`:
    /// re-placed victims (also those that stay on their own server)
    /// and the tasks of every committed gang.
    pub decisions: Vec<(TaskId, ServerId)>,
    /// The round's migrations and placements.
    pub actions: Vec<Action>,
}

/// One scheduling round on a copy-on-write plan of `ctx.cluster`:
///
/// 1. With migration on, pop ideal-virtual-task victims off every
///    overloaded server until it is clean (§3.3.3).
/// 2. Order victims and queued tasks by Eq. 6 priority, descending,
///    ties by task id, and group them by job: jobs rank by their
///    highest-priority task, and keep that order within.
/// 3. Per job: re-place each victim on `pick(plan, task, Some(src))`.
///    When that fails the victim goes back on its source, so it keeps
///    running (DESIGN.md: the paper re-queues it, which turns transient
///    overload into thrash). Then place the job's waiting tasks with
///    `pick(plan, task, None)` as a gang. A gang that does not fit is
///    skipped, so smaller jobs behind it backfill.
///
/// Emits `Migration` and `Placement` events to `tracer`.
pub fn overload_round(
    ctx: &SchedulerContext<'_>,
    p: &Params,
    tracer: Option<&obs::Tracer>,
    mut pick: impl FnMut(&ClusterOverlay<'_>, TaskId, Option<ServerId>) -> Option<ServerId>,
) -> RoundPlan {
    let now_mins = ctx.now.as_mins_f64();
    let mut plan = ClusterOverlay::new(ctx.cluster, p.h_r);
    let overloaded = plan.overloaded_servers(p.h_r);
    let priorities = candidate_priorities(ctx, p, &overloaded);
    let prio = |t: &TaskId| priorities.get(t).unwrap_or(0.0);

    // `(task, priority, source server of a victim)`.
    let mut candidates: Vec<(TaskId, f64, Option<ServerId>)> = Vec::new();
    if p.use_migration {
        for sid in overloaded {
            while plan.server(sid).is_overloaded(p.h_r) {
                let Some(victim) = select_victim(&plan, ctx.jobs, sid, &priorities, p) else {
                    break;
                };
                plan.remove(victim);
                candidates.push((victim, prio(&victim), Some(sid)));
            }
        }
    }
    candidates.extend(ctx.queue.iter().map(|&t| (t, prio(&t), None)));
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });

    let mut out = RoundPlan::default();
    let mut waiting: Vec<TaskId> = Vec::new();
    for group in group_by_job(&mut candidates, |c| c.0.job) {
        let Some(job) = group.first().and_then(|c| ctx.jobs.get(&c.0.job)) else {
            continue;
        };
        for &(task, _, src) in group {
            let Some(src) = src else {
                continue;
            };
            let Some(spec) = job.spec.tasks.get(task.idx as usize) else {
                continue;
            };
            match pick(&plan, task, Some(src)) {
                Some(host) if plan.place(task, host, spec.demand, spec.gpu_share).is_ok() => {
                    out.decisions.push((task, host));
                    if src != host {
                        if let Some(t) = tracer {
                            obs::event!(
                                t,
                                Migration {
                                    t: now_mins,
                                    job: task.job.0,
                                    task: task.idx as u32,
                                    from: src.0,
                                    to: host.0,
                                    state_mb: migration_state_mb(job, task.idx as usize),
                                }
                            );
                        }
                        out.actions.push(Action::Migrate { task, to: host });
                    }
                }
                _ => {
                    // If even the source refuses (it is draining), the
                    // plan under-counts the victim: it keeps running
                    // live and no action is emitted.
                    let _ = plan.place(task, src, spec.demand, spec.gpu_share);
                }
            }
        }

        waiting.clear();
        waiting.extend(group.iter().filter(|c| c.2.is_none()).map(|c| c.0));
        if waiting.is_empty() {
            continue;
        }
        let gang = place_gang(&mut plan, ctx.jobs, &waiting, |plan, task| {
            pick(plan, task, None)
        });
        for (task, host) in gang.into_iter().flatten() {
            out.decisions.push((task, host));
            if let Some(t) = tracer {
                obs::event!(
                    t,
                    Placement {
                        t: now_mins,
                        job: task.job.0,
                        task: task.idx as u32,
                        server: host.0,
                        score: prio(&task),
                    }
                );
            }
            out.actions.push(Action::Place { task, server: host });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(job: u32, idx: u16) -> TaskId {
        TaskId::new(JobId(job), idx)
    }

    #[test]
    fn groups_jobs_in_first_appearance_order_keeping_task_order() {
        let mut items = vec![
            tid(3, 1),
            tid(1, 0),
            tid(3, 0),
            tid(2, 5),
            tid(1, 2),
            tid(3, 2),
        ];
        let groups: Vec<Vec<TaskId>> = group_by_job(&mut items, |t| t.job)
            .map(<[TaskId]>::to_vec)
            .collect();
        assert_eq!(
            groups,
            vec![
                vec![tid(3, 1), tid(3, 0), tid(3, 2)],
                vec![tid(1, 0), tid(1, 2)],
                vec![tid(2, 5)],
            ]
        );
    }

    #[test]
    fn grouping_an_empty_list_yields_nothing() {
        let mut items: Vec<TaskId> = Vec::new();
        assert_eq!(group_by_job(&mut items, |t| t.job).count(), 0);
    }
}
