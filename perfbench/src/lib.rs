//! End-to-end and per-layer benchmark of the AA-Dedupe backup client.
//!
//! One process per run. It generates the named workload from its seed,
//! materializes every input, builds the starting repository in an
//! in-memory object store, and then either
//!
//! * measures (`--trace 0`): repetitions of the timed session on fresh
//!   engines — backup, full restore, point restores, retention plus vacuum
//!   — reporting medians of the end-to-end metrics; or
//! * traces (`--trace 1`): one untraced repetition, then an outside-in
//!   replay of the same session through each layer crate's public
//!   functions with spans around the calls, reporting per-layer metrics.
//!   The replay must reproduce the engine's session report exactly.
//!
//! Every restore is byte-compared against its input. See README.md for
//! the workloads and the metrics.

#![forbid(unsafe_code)]

pub mod measure;
pub mod probe;
pub mod trace;
pub mod workload;

use std::time::Instant;

use measure::{Faults, Rep};
use workload::{Prepared, Workload};

/// Repetitions every untraced run makes, however long they take.
const MIN_REPS: usize = 3;
/// Repetitions an untraced run stops at even with time left.
const MAX_REPS: usize = 15;

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// Operations attempted and failed, with the first failures' reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Why, for the first few failures.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts an operation; `None` (and a failure) on `Err`.
    pub fn check<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts a check; `None` (and a failure) when `ok` is false.
    pub fn verify(&mut self, ok: bool, what: &str) -> Option<()> {
        self.attempted += 1;
        if ok {
            Some(())
        } else {
            self.fail(format!("check failed: {what}"));
            None
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in BENCHMARK.json.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics; empty when anything failed.
    pub metrics: Vec<Metric>,
    /// Machine and run context, not gated.
    pub context: Vec<(String, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn context(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Whether every operation and check passed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && !self.metrics.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The value of the metric called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The context line: `{"context": {...}}`.
    pub fn context_line(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{\"context\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Metrics are left out of a run that was not correct.
    pub fn result_line(&self) -> String {
        let correct = self.correct();
        let mut metrics = String::new();
        if correct {
            for (i, m) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                metrics.push_str(&format!(
                    "{sep}{}: {{\"value\": {:?}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                ));
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs workload `w` generated from `seed`, measuring for about `seconds`
/// (untraced) or replaying with spans (`trace`).
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, faults: Faults) -> Outcome {
    let steal_start = probe::steal_ticks();
    let begun = Instant::now();
    let mut out = Outcome::default();
    let Some(prep) = out.tally.check(w.prepare(seed), "prepare the workload") else {
        return out;
    };
    out.context("workload", w.name());
    out.context("seed", seed);
    out.context("nproc", probe::nproc());
    out.context("rustc", env!("PERFBENCH_RUSTC_VERSION"));
    out.context("backup_workers", w.workers);
    out.context("restore_workers", w.workers);
    out.context(
        "source_mib",
        format!("{:.1}", prep.source_bytes() as f64 / MIB),
    );
    out.context("files", prep.files.len());
    out.context("sample", prep.sample.len());
    out.context("prepare_s", format!("{:.2}", begun.elapsed().as_secs_f64()));
    out.context("peak_rss_reset", probe::reset_peak_rss());
    if trace {
        trace::run(w, &prep, seed, &mut out);
    } else {
        untraced(w, &prep, seconds, faults, &mut out);
    }
    out.context(
        "steal_ticks",
        probe::steal_ticks().saturating_sub(steal_start),
    );
    out.context("run_s", format!("{:.2}", begun.elapsed().as_secs_f64()));
    if !out.correct() {
        out.metrics.clear();
    }
    out
}

fn untraced(w: &Workload, prep: &Prepared, seconds: f64, faults: Faults, out: &mut Outcome) {
    let tally = &mut out.tally;
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while tally.failed == 0
        && (reps.len() < MIN_REPS
            || (start.elapsed().as_secs_f64() < seconds && reps.len() < MAX_REPS))
    {
        match measure::rep(w, prep, faults, tally) {
            Some(r) => reps.push(r),
            None => break,
        }
    }
    // The engine promises identical output for identical input: every
    // repetition must upload and keep exactly the same.
    let Some(first) = reps.first() else { return };
    let same = |a: &Rep, b: &Rep| {
        measure::session_totals(&a.report) == measure::session_totals(&b.report)
            && a.stored_bytes == b.stored_bytes
    };
    for r in &reps[1..] {
        tally.verify(same(first, r), "repetitions upload and store identically");
    }
    // Raw per-repetition figures, so a noisy run can be recognized.
    let raw = |f: &dyn Fn(&Rep) -> f64| {
        let v: Vec<String> = reps.iter().map(|r| format!("{:.4}", f(r))).collect();
        v.join(" ")
    };
    out.context("reps", reps.len());
    out.context("setup_s_reps", raw(&|r| probe::median(&r.setup_s)));
    out.context("backup_s_reps", raw(&|r| r.backup.wall_s));
    out.context("backup_rss_reps", raw(&|r| r.backup.rss_mib));
    out.context("restore_s_reps", raw(&|r| r.restore.wall_s));
    out.context("restore_rss_reps", raw(&|r| r.restore.rss_mib));
    out.context(
        "point_p95_reps",
        raw(&|r| probe::percentile(&r.point_ms, 95.0)),
    );
    out.context("vacuum_s_reps", raw(&|r| r.vacuum_s));
    report_end_to_end(prep, &reps, out);
}

fn report_end_to_end(prep: &Prepared, reps: &[Rep], out: &mut Outcome) {
    let source = prep.source_bytes() as f64;
    let med = |f: &dyn Fn(&Rep) -> f64| probe::median(&reps.iter().map(f).collect::<Vec<_>>());
    let first = &reps[0];
    let backup_s = med(&|r| r.backup.wall_s);
    let restore_s = med(&|r| r.restore.wall_s);
    let setup: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    out.metric("setup_s", probe::median(&setup), "s");
    out.metric("backup_mib_s", source / MIB / backup_s, "MiB/s");
    out.metric(
        "backup_cpu_s_per_gib",
        med(&|r| r.backup.cpu_s) / (source / GIB),
        "s/GiB",
    );
    // Memory is read from the first repetition only: later ones reuse the
    // heap earlier ones freed, so their phases barely grow the RSS.
    out.metric("backup_peak_rss_mib", first.backup.rss_mib, "MiB");
    out.metric(
        "upload_bytes_per_source_byte",
        first.report.transferred_bytes as f64 / source,
        "ratio",
    );
    out.metric(
        "puts_per_gib",
        first.report.put_requests as f64 / (source / GIB),
        "1/GiB",
    );
    out.metric("restore_mib_s", source / MIB / restore_s, "MiB/s");
    out.metric(
        "restore_cpu_s_per_gib",
        med(&|r| r.restore.cpu_s) / (source / GIB),
        "s/GiB",
    );
    out.metric("restore_peak_rss_mib", first.restore.rss_mib, "MiB");
    // A sampled path's latency is its fastest over the repetitions: the
    // engine spawns a thread and hands work between threads on every
    // point restore, so a few-millisecond call that a burst of host steal
    // lands on can take twice as long, and with a median per path those
    // bursts still reached the 95th percentile.
    let per_path: Vec<f64> = (0..first.point_ms.len())
        .map(|i| {
            reps.iter()
                .map(|r| r.point_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    out.metric("restore_file_p50_ms", probe::median(&per_path), "ms");
    out.metric(
        "restore_file_p95_ms",
        probe::percentile(&per_path, 95.0),
        "ms",
    );
    out.metric("vacuum_s", med(&|r| r.vacuum_s), "s");
    out.metric(
        "stored_bytes_per_source_byte",
        first.stored_bytes as f64 / source,
        "ratio",
    );
}
