//! Typed trace events and their JSONL wire form.
//!
//! One event is one JSON object on one line, with an `"ev"` tag naming
//! the variant and flat scalar fields — no nesting, so the format can
//! be grepped, `jq`-ed, or re-parsed by [`TraceEvent::from_json_line`]
//! without a full JSON library. String-valued fields are drawn from a
//! closed set of identifiers (span names, requeue reasons), which is
//! what lets parsing return `&'static str` again.

/// A single structured trace event.
///
/// Scalar field conventions: `t` is simulated minutes, `job` is the
/// raw `JobId`, `task` the task index within the job, `server` the raw
/// `ServerId`. Durations are wall-clock nanoseconds (the only
/// wall-clock quantity in the trace; everything else is simulated).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A scheduler round began (`queued` = queue length entering it).
    RoundStart { round: u64, t: f64, queued: u32 },
    /// A scheduler round ended. `decision_ns` is the wall-clock cost
    /// of the `schedule()` call alone.
    RoundEnd {
        round: u64,
        t: f64,
        actions: u32,
        decision_ns: u64,
    },
    /// A named span closed after `dur_ns` wall-clock nanoseconds.
    /// `path` is the full `;`-joined ancestry (folded-stack form).
    SpanEnd {
        name: &'static str,
        path: String,
        dur_ns: u64,
    },
    /// A task was (or will be, once the engine applies the action)
    /// placed on a server. `score` is the task's Eq. 6 priority.
    Placement {
        t: f64,
        job: u32,
        task: u32,
        server: u32,
        score: f64,
    },
    /// A running task migrates off an overloaded server.
    Migration {
        t: f64,
        job: u32,
        task: u32,
        from: u32,
        to: u32,
        state_mb: f64,
    },
    /// A running task was evicted back to the queue.
    Eviction {
        t: f64,
        job: u32,
        task: u32,
        server: u32,
    },
    /// A task returned to the waiting queue (`reason` ∈ the closed set
    /// in [`intern_reason`]).
    Requeue {
        t: f64,
        job: u32,
        task: u32,
        reason: &'static str,
    },
    /// MLF-RL's policy network picked among `candidates` destination
    /// options (`queued` = it chose the stay-in-queue option).
    PolicyDecision {
        t: f64,
        job: u32,
        task: u32,
        candidates: u32,
        chosen: u32,
        queued: bool,
    },
    /// A scheduler's blacklist registered a new crash strike.
    BlacklistStrike { t: f64, server: u32, strikes: u32 },
    /// Fault pipeline: a server crashed, evicting `evicted` tasks.
    ServerCrash { t: f64, server: u32, evicted: u32 },
    /// Fault pipeline: a crashed server came back up.
    ServerRecovery { t: f64, server: u32 },
    /// A server exceeded the overload threshold entering a round.
    Overload { t: f64, server: u32, degree: f64 },
    /// MLF-C (or a stop policy) stopped a job.
    JobStopped {
        t: f64,
        job: u32,
        reason: &'static str,
    },
    /// Durability: a submission was appended to the write-ahead log.
    /// `seq` is the record's 1-based acceptance sequence number,
    /// `round` the scheduler round it was submitted in, `bytes` the
    /// encoded record size (header + payload).
    WalAppend {
        seq: u64,
        round: u64,
        job: u32,
        bytes: u32,
    },
    /// Durability: recovery truncated a torn final WAL record at byte
    /// offset `at`, dropping `dropped` trailing bytes.
    WalTruncated { at: u64, dropped: u64 },
    /// Durability: a service snapshot reached disk (atomic rename).
    /// `accepted` is the submission count the snapshot covers.
    SnapshotWrite {
        round: u64,
        accepted: u64,
        bytes: u64,
    },
    /// Durability: a crash recovery completed. `snap_round` is the
    /// round of the snapshot used (0 when recovering from empty
    /// state), `replayed` the WAL records re-injected, `resumed_round`
    /// the round the service resumed at.
    Recovery {
        snap_round: u64,
        replayed: u32,
        resumed_round: u64,
    },
    /// Training substrate: one supervised example — the candidate
    /// feature matrix the policy saw and the action index it (or its
    /// MLF-H teacher) chose. `src` is `"imitation"` (teacher decision)
    /// or `"rl"` (the policy's own pick); `feats` is the `rows × dim`
    /// matrix flattened row-major into space-separated `f64`s (Rust's
    /// shortest-round-trip `Display`, so parsing recovers the exact
    /// bits). This is the event `mlfs-rl`'s dataset builder consumes.
    DecisionExample {
        round: u64,
        t: f64,
        job: u32,
        task: u32,
        src: &'static str,
        action: u32,
        dim: u32,
        rows: u32,
        feats: String,
    },
    /// Training substrate: the online drift monitor triggered a
    /// retraining window. `short`/`long` are the short- and long-term
    /// reward EMAs at the trigger point.
    DriftRetrain { round: u64, short: f64, long: f64 },
}

impl TraceEvent {
    /// The `"ev"` tag of this variant.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::RoundEnd { .. } => "round_end",
            TraceEvent::SpanEnd { .. } => "span",
            TraceEvent::Placement { .. } => "placement",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::Requeue { .. } => "requeue",
            TraceEvent::PolicyDecision { .. } => "policy_decision",
            TraceEvent::BlacklistStrike { .. } => "blacklist_strike",
            TraceEvent::ServerCrash { .. } => "server_crash",
            TraceEvent::ServerRecovery { .. } => "server_recovery",
            TraceEvent::Overload { .. } => "overload",
            TraceEvent::JobStopped { .. } => "job_stopped",
            TraceEvent::WalAppend { .. } => "wal_append",
            TraceEvent::WalTruncated { .. } => "wal_truncated",
            TraceEvent::SnapshotWrite { .. } => "snapshot_write",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::DecisionExample { .. } => "decision_example",
            TraceEvent::DriftRetrain { .. } => "drift_retrain",
        }
    }

    /// Simulated time of the event in minutes, for variants that carry
    /// one (`None` for wall-clock spans and durability bookkeeping).
    pub fn time(&self) -> Option<f64> {
        match self {
            TraceEvent::RoundStart { t, .. }
            | TraceEvent::RoundEnd { t, .. }
            | TraceEvent::Placement { t, .. }
            | TraceEvent::Migration { t, .. }
            | TraceEvent::Eviction { t, .. }
            | TraceEvent::Requeue { t, .. }
            | TraceEvent::PolicyDecision { t, .. }
            | TraceEvent::BlacklistStrike { t, .. }
            | TraceEvent::ServerCrash { t, .. }
            | TraceEvent::ServerRecovery { t, .. }
            | TraceEvent::Overload { t, .. }
            | TraceEvent::JobStopped { t, .. }
            | TraceEvent::DecisionExample { t, .. } => Some(*t),
            _ => None,
        }
    }

    /// Scheduler round of the event, for variants that carry one.
    pub fn round(&self) -> Option<u64> {
        match self {
            TraceEvent::RoundStart { round, .. }
            | TraceEvent::RoundEnd { round, .. }
            | TraceEvent::WalAppend { round, .. }
            | TraceEvent::SnapshotWrite { round, .. }
            | TraceEvent::DecisionExample { round, .. }
            | TraceEvent::DriftRetrain { round, .. } => Some(*round),
            _ => None,
        }
    }

    /// Serialize as one JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new(self.tag());
        match self {
            TraceEvent::RoundStart { round, t, queued } => {
                w.num("round", *round as f64);
                w.num("t", *t);
                w.num("queued", *queued as f64);
            }
            TraceEvent::RoundEnd {
                round,
                t,
                actions,
                decision_ns,
            } => {
                w.num("round", *round as f64);
                w.num("t", *t);
                w.num("actions", *actions as f64);
                w.num("decision_ns", *decision_ns as f64);
            }
            TraceEvent::SpanEnd { name, path, dur_ns } => {
                w.str("name", name);
                w.str("path", path);
                w.num("dur_ns", *dur_ns as f64);
            }
            TraceEvent::Placement {
                t,
                job,
                task,
                server,
                score,
            } => {
                w.num("t", *t);
                w.num("job", *job as f64);
                w.num("task", *task as f64);
                w.num("server", *server as f64);
                w.num("score", *score);
            }
            TraceEvent::Migration {
                t,
                job,
                task,
                from,
                to,
                state_mb,
            } => {
                w.num("t", *t);
                w.num("job", *job as f64);
                w.num("task", *task as f64);
                w.num("from", *from as f64);
                w.num("to", *to as f64);
                w.num("state_mb", *state_mb);
            }
            TraceEvent::Eviction {
                t,
                job,
                task,
                server,
            } => {
                w.num("t", *t);
                w.num("job", *job as f64);
                w.num("task", *task as f64);
                w.num("server", *server as f64);
            }
            TraceEvent::Requeue {
                t,
                job,
                task,
                reason,
            } => {
                w.num("t", *t);
                w.num("job", *job as f64);
                w.num("task", *task as f64);
                w.str("reason", reason);
            }
            TraceEvent::PolicyDecision {
                t,
                job,
                task,
                candidates,
                chosen,
                queued,
            } => {
                w.num("t", *t);
                w.num("job", *job as f64);
                w.num("task", *task as f64);
                w.num("candidates", *candidates as f64);
                w.num("chosen", *chosen as f64);
                w.bool("queued", *queued);
            }
            TraceEvent::BlacklistStrike { t, server, strikes } => {
                w.num("t", *t);
                w.num("server", *server as f64);
                w.num("strikes", *strikes as f64);
            }
            TraceEvent::ServerCrash { t, server, evicted } => {
                w.num("t", *t);
                w.num("server", *server as f64);
                w.num("evicted", *evicted as f64);
            }
            TraceEvent::ServerRecovery { t, server } => {
                w.num("t", *t);
                w.num("server", *server as f64);
            }
            TraceEvent::Overload { t, server, degree } => {
                w.num("t", *t);
                w.num("server", *server as f64);
                w.num("degree", *degree);
            }
            TraceEvent::JobStopped { t, job, reason } => {
                w.num("t", *t);
                w.num("job", *job as f64);
                w.str("reason", reason);
            }
            TraceEvent::WalAppend {
                seq,
                round,
                job,
                bytes,
            } => {
                w.num("seq", *seq as f64);
                w.num("round", *round as f64);
                w.num("job", *job as f64);
                w.num("bytes", *bytes as f64);
            }
            TraceEvent::WalTruncated { at, dropped } => {
                w.num("at", *at as f64);
                w.num("dropped", *dropped as f64);
            }
            TraceEvent::SnapshotWrite {
                round,
                accepted,
                bytes,
            } => {
                w.num("round", *round as f64);
                w.num("accepted", *accepted as f64);
                w.num("bytes", *bytes as f64);
            }
            TraceEvent::Recovery {
                snap_round,
                replayed,
                resumed_round,
            } => {
                w.num("snap_round", *snap_round as f64);
                w.num("replayed", *replayed as f64);
                w.num("resumed_round", *resumed_round as f64);
            }
            TraceEvent::DecisionExample {
                round,
                t,
                job,
                task,
                src,
                action,
                dim,
                rows,
                feats,
            } => {
                w.num("round", *round as f64);
                w.num("t", *t);
                w.num("job", *job as f64);
                w.num("task", *task as f64);
                w.str("src", src);
                w.num("action", *action as f64);
                w.num("dim", *dim as f64);
                w.num("rows", *rows as f64);
                w.str("feats", feats);
            }
            TraceEvent::DriftRetrain { round, short, long } => {
                w.num("round", *round as f64);
                w.num("short", *short);
                w.num("long", *long);
            }
        }
        w.finish()
    }

    /// Parse one JSONL line back into an event. Returns `None` for
    /// malformed lines or unknown tags (replay tools skip those).
    pub fn from_json_line(line: &str) -> Option<TraceEvent> {
        let fields = parse_flat_json(line)?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let num = |k: &str| -> Option<f64> {
            match get(k) {
                Some(JsonVal::Num(n)) => Some(*n),
                _ => None,
            }
        };
        let s = |k: &str| -> Option<&str> {
            match get(k) {
                Some(JsonVal::Str(v)) => Some(v.as_str()),
                _ => None,
            }
        };
        let b = |k: &str| -> Option<bool> {
            match get(k) {
                Some(JsonVal::Bool(v)) => Some(*v),
                _ => None,
            }
        };
        Some(match s("ev")? {
            "round_start" => TraceEvent::RoundStart {
                round: num("round")? as u64,
                t: num("t")?,
                queued: num("queued")? as u32,
            },
            "round_end" => TraceEvent::RoundEnd {
                round: num("round")? as u64,
                t: num("t")?,
                actions: num("actions")? as u32,
                decision_ns: num("decision_ns")? as u64,
            },
            "span" => TraceEvent::SpanEnd {
                name: intern_reason(s("name")?),
                path: s("path")?.to_string(),
                dur_ns: num("dur_ns")? as u64,
            },
            "placement" => TraceEvent::Placement {
                t: num("t")?,
                job: num("job")? as u32,
                task: num("task")? as u32,
                server: num("server")? as u32,
                score: num("score")?,
            },
            "migration" => TraceEvent::Migration {
                t: num("t")?,
                job: num("job")? as u32,
                task: num("task")? as u32,
                from: num("from")? as u32,
                to: num("to")? as u32,
                state_mb: num("state_mb")?,
            },
            "eviction" => TraceEvent::Eviction {
                t: num("t")?,
                job: num("job")? as u32,
                task: num("task")? as u32,
                server: num("server")? as u32,
            },
            "requeue" => TraceEvent::Requeue {
                t: num("t")?,
                job: num("job")? as u32,
                task: num("task")? as u32,
                reason: intern_reason(s("reason")?),
            },
            "policy_decision" => TraceEvent::PolicyDecision {
                t: num("t")?,
                job: num("job")? as u32,
                task: num("task")? as u32,
                candidates: num("candidates")? as u32,
                chosen: num("chosen")? as u32,
                queued: b("queued")?,
            },
            "blacklist_strike" => TraceEvent::BlacklistStrike {
                t: num("t")?,
                server: num("server")? as u32,
                strikes: num("strikes")? as u32,
            },
            "server_crash" => TraceEvent::ServerCrash {
                t: num("t")?,
                server: num("server")? as u32,
                evicted: num("evicted")? as u32,
            },
            "server_recovery" => TraceEvent::ServerRecovery {
                t: num("t")?,
                server: num("server")? as u32,
            },
            "overload" => TraceEvent::Overload {
                t: num("t")?,
                server: num("server")? as u32,
                degree: num("degree")?,
            },
            "job_stopped" => TraceEvent::JobStopped {
                t: num("t")?,
                job: num("job")? as u32,
                reason: intern_reason(s("reason")?),
            },
            "wal_append" => TraceEvent::WalAppend {
                seq: num("seq")? as u64,
                round: num("round")? as u64,
                job: num("job")? as u32,
                bytes: num("bytes")? as u32,
            },
            "wal_truncated" => TraceEvent::WalTruncated {
                at: num("at")? as u64,
                dropped: num("dropped")? as u64,
            },
            "snapshot_write" => TraceEvent::SnapshotWrite {
                round: num("round")? as u64,
                accepted: num("accepted")? as u64,
                bytes: num("bytes")? as u64,
            },
            "recovery" => TraceEvent::Recovery {
                snap_round: num("snap_round")? as u64,
                replayed: num("replayed")? as u32,
                resumed_round: num("resumed_round")? as u64,
            },
            "decision_example" => TraceEvent::DecisionExample {
                round: num("round")? as u64,
                t: num("t")?,
                job: num("job")? as u32,
                task: num("task")? as u32,
                src: intern_reason(s("src")?),
                action: num("action")? as u32,
                dim: num("dim")? as u32,
                rows: num("rows")? as u32,
                feats: s("feats")?.to_string(),
            },
            "drift_retrain" => TraceEvent::DriftRetrain {
                round: num("round")? as u64,
                short: num("short")?,
                long: num("long")?,
            },
            _ => return None,
        })
    }
}

/// Map a parsed string back to the closed identifier set used by
/// event producers; unknown strings collapse to `"other"`. Keeping
/// the set closed is what allows `&'static str` fields (no per-event
/// allocation on the emit side).
pub fn intern_reason(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "round",
        "advance",
        "faults",
        "schedule",
        "apply_actions",
        "finalize",
        "mlfh_plan",
        "imitation_round",
        "imitation_train",
        "rl_round",
        "mlfc_control",
        "control",
        "evicted",
        "crash",
        "checkpoint_rollback",
        "policy",
        "deadline",
        "accuracy",
        "budget",
        "imitation",
        "rl",
    ];
    KNOWN.iter().find(|k| **k == s).copied().unwrap_or("other")
}

/// Value of one flat-JSON field.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    Num(f64),
    Str(String),
    Bool(bool),
}

/// Incremental writer for one flat JSON object line.
struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    fn new(tag: &str) -> Self {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"ev\":\"");
        buf.push_str(tag);
        buf.push('"');
        JsonWriter { buf }
    }

    fn key(&mut self, k: &str) {
        self.buf.push_str(",\"");
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    /// Integral values print without a fractional part so u64-backed
    /// fields round-trip exactly through the f64 writer.
    fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        if v.fract() == 0.0 && v.abs() < 9.0e15 {
            let _ = write_int(&mut self.buf, v as i64);
        } else {
            let mut s = format!("{v}");
            if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
                s.push_str(".0");
            }
            self.buf.push_str(&s);
        }
    }

    fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn write_int(buf: &mut String, v: i64) -> std::fmt::Result {
    use std::fmt::Write;
    write!(buf, "{v}")
}

/// Parse a one-line flat JSON object (`{"k":v,...}` with scalar
/// values only) into key/value pairs. Not a general JSON parser: no
/// nested objects or arrays, which the trace schema never emits.
pub fn parse_flat_json(line: &str) -> Option<Vec<(String, JsonVal)>> {
    let line = line.trim();
    let inner = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    let bytes: Vec<char> = inner.chars().collect();
    let mut i = 0usize;
    let n = bytes.len();
    let skip_ws = |i: &mut usize| {
        while *i < n && bytes.get(*i).is_some_and(|c| c.is_whitespace()) {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Option<String> {
        if bytes.get(*i) != Some(&'"') {
            return None;
        }
        *i += 1;
        let mut s = String::new();
        while let Some(&c) = bytes.get(*i) {
            *i += 1;
            match c {
                '"' => return Some(s),
                '\\' => match bytes.get(*i) {
                    Some('n') => {
                        s.push('\n');
                        *i += 1;
                    }
                    Some(&e) => {
                        s.push(e);
                        *i += 1;
                    }
                    None => return None,
                },
                c => s.push(c),
            }
        }
        None
    };
    loop {
        skip_ws(&mut i);
        if i >= n {
            break;
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&':') {
            return None;
        }
        i += 1;
        skip_ws(&mut i);
        let val = match bytes.get(i) {
            Some('"') => JsonVal::Str(parse_string(&mut i)?),
            Some('t') if inner_starts_with(&bytes, i, "true") => {
                i += 4;
                JsonVal::Bool(true)
            }
            Some('f') if inner_starts_with(&bytes, i, "false") => {
                i += 5;
                JsonVal::Bool(false)
            }
            Some(_) => {
                let start = i;
                while i < n && bytes.get(i).is_some_and(|c| !matches!(c, ',')) {
                    i += 1;
                }
                let text: String = bytes.get(start..i)?.iter().collect();
                JsonVal::Num(text.trim().parse().ok()?)
            }
            None => return None,
        };
        out.push((key, val));
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(',') => i += 1,
            None => break,
            Some(_) => return None,
        }
    }
    Some(out)
}

fn inner_starts_with(bytes: &[char], i: usize, word: &str) -> bool {
    word.chars()
        .enumerate()
        .all(|(k, c)| bytes.get(i + k) == Some(&c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RoundStart {
                round: 3,
                t: 1.5,
                queued: 12,
            },
            TraceEvent::RoundEnd {
                round: 3,
                t: 1.5,
                actions: 4,
                decision_ns: 73_421,
            },
            TraceEvent::SpanEnd {
                name: "mlfh_plan",
                path: "round;schedule;mlfh_plan".to_string(),
                dur_ns: 900,
            },
            TraceEvent::Placement {
                t: 2.0,
                job: 7,
                task: 1,
                server: 3,
                score: 0.8125,
            },
            TraceEvent::Migration {
                t: 2.0,
                job: 7,
                task: 1,
                from: 3,
                to: 4,
                state_mb: 120.5,
            },
            TraceEvent::Eviction {
                t: 2.0,
                job: 7,
                task: 1,
                server: 3,
            },
            TraceEvent::Requeue {
                t: 2.0,
                job: 7,
                task: 1,
                reason: "crash",
            },
            TraceEvent::PolicyDecision {
                t: 2.0,
                job: 7,
                task: 1,
                candidates: 13,
                chosen: 2,
                queued: false,
            },
            TraceEvent::BlacklistStrike {
                t: 2.0,
                server: 3,
                strikes: 2,
            },
            TraceEvent::ServerCrash {
                t: 2.0,
                server: 3,
                evicted: 5,
            },
            TraceEvent::ServerRecovery { t: 9.0, server: 3 },
            TraceEvent::Overload {
                t: 2.0,
                server: 3,
                degree: 1.25,
            },
            TraceEvent::JobStopped {
                t: 2.0,
                job: 7,
                reason: "accuracy",
            },
            TraceEvent::WalAppend {
                seq: 17,
                round: 4,
                job: 9,
                bytes: 412,
            },
            TraceEvent::WalTruncated {
                at: 8_192,
                dropped: 37,
            },
            TraceEvent::SnapshotWrite {
                round: 50,
                accepted: 120,
                bytes: 65_536,
            },
            TraceEvent::Recovery {
                snap_round: 50,
                replayed: 14,
                resumed_round: 61,
            },
            TraceEvent::DecisionExample {
                round: 12,
                t: 3.25,
                job: 7,
                task: 1,
                src: "imitation",
                action: 2,
                dim: 3,
                rows: 2,
                feats: "0.5 -1.25 0.3333333333333333 1 0 2e-9".to_string(),
            },
            TraceEvent::DriftRetrain {
                round: 90,
                short: -0.75,
                long: -0.25,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for ev in all_variants() {
            let line = ev.to_json_line();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
            let back = TraceEvent::from_json_line(&line);
            assert_eq!(back.as_ref(), Some(&ev), "{line}");
        }
    }

    #[test]
    fn integral_fields_have_no_fraction() {
        let line = TraceEvent::RoundEnd {
            round: 42,
            t: 0.25,
            actions: 0,
            decision_ns: 161_916,
        }
        .to_json_line();
        assert!(line.contains("\"round\":42,"), "{line}");
        assert!(line.contains("\"decision_ns\":161916"), "{line}");
        assert!(line.contains("\"t\":0.25"), "{line}");
    }

    #[test]
    fn malformed_and_unknown_lines_are_skipped() {
        assert_eq!(TraceEvent::from_json_line("not json"), None);
        assert_eq!(TraceEvent::from_json_line("{\"ev\":\"martian\"}"), None);
        assert_eq!(TraceEvent::from_json_line("{\"ev\":\"placement\"}"), None);
    }

    #[test]
    fn unknown_reason_interns_to_other() {
        assert_eq!(intern_reason("crash"), "crash");
        assert_eq!(intern_reason("???"), "other");
    }
}
