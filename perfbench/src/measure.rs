//! The untraced run: repetitions of the workload's timed session on fresh
//! engines over fresh copies of the starting repository, every restore
//! byte-checked against its input.

use std::time::Instant;

use aadedupe_core::{AaDedupe, BackupScheme, RetentionPolicy, VacuumOptions, VacuumReport};
use aadedupe_metrics::SessionReport;

use crate::probe;
use crate::workload::{Prepared, Workload};
use crate::Tally;

/// Deliberate faults, so tests can show that the correctness checks are
/// live.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Flip a byte of one uploaded container before the first restore.
    pub corrupt_container: bool,
    /// Flip a byte of the first point restore's expected contents.
    pub corrupt_expectation: bool,
}

/// Wall time, CPU time and peak memory growth of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process user+sys CPU seconds.
    pub cpu_s: f64,
    /// Peak RSS during the phase minus the RSS at its start, MiB.
    pub rss_mib: f64,
}

/// Runs `f` as one measured phase.
fn phase<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    probe::reset_peak_rss();
    let rss0 = probe::rss_mib();
    let cpu0 = probe::process_cpu_s();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cost = Cost {
        wall_s,
        cpu_s: probe::process_cpu_s() - cpu0,
        rss_mib: probe::peak_rss_mib() - rss0,
    };
    (out, cost)
}

/// A session's (chunks, duplicate chunks, stored bytes, PUTs, bytes
/// transferred): what two runs of the same session must agree on.
pub fn session_totals(r: &SessionReport) -> [u64; 5] {
    [
        r.chunks_total,
        r.chunks_duplicate,
        r.stored_bytes,
        r.put_requests,
        r.transferred_bytes,
    ]
}

/// `AaDedupe::open` calls timed per repetition for `setup_s`.
const OPENS_PER_REP: usize = 3;

/// What one repetition measured.
pub struct Rep {
    /// Wall seconds of each `AaDedupe::open` of the starting repository.
    pub setup_s: Vec<f64>,
    /// The timed backup.
    pub backup: Cost,
    /// The engine's own account of the timed session.
    pub report: SessionReport,
    /// The full restore of the timed session.
    pub restore: Cost,
    /// GET requests of the full restore.
    pub restore_gets: u64,
    /// Bytes fetched by the full restore.
    pub restore_bytes_out: u64,
    /// Point-restore latencies, ms, in sample order.
    pub point_ms: Vec<f64>,
    /// Retention plus vacuum, wall seconds.
    pub vacuum_s: f64,
    /// Retention alone, wall seconds.
    pub retention_s: f64,
    /// The vacuum pass's report.
    pub vacuum: VacuumReport,
    /// Bytes the vacuum pass fetched.
    pub vacuum_bytes_out: u64,
    /// Repository bytes after the last step.
    pub stored_bytes: u64,
    /// Object-store requests and bytes over the whole repetition (the
    /// store's other counters are left at zero).
    pub cloud: aadedupe_cloud::ObjectStoreStats,
}

/// One repetition of the timed session. `None` when an operation failed
/// (recorded in `tally`); the remaining steps are then skipped.
pub fn rep(w: &Workload, prep: &Prepared, faults: Faults, tally: &mut Tally) -> Option<Rep> {
    let (cloud, store) = tally.check(prep.repo.cloud(), "copy the starting repository")?;
    let base = store.stats();
    // Opening a clean repository changes nothing, so it is sampled a few
    // times.
    let mut setup_s = Vec::with_capacity(OPENS_PER_REP);
    let mut opened = None;
    for _ in 0..OPENS_PER_REP {
        drop(opened.take());
        let start = Instant::now();
        let engine = AaDedupe::open(cloud.clone(), w.config());
        setup_s.push(start.elapsed().as_secs_f64());
        opened = Some(tally.check(engine, "open the starting repository")?);
    }
    let mut engine = opened?;
    let session = engine.sessions_completed();
    let sources = prep.sources();

    let (report, backup) = phase(|| engine.backup_session(&sources));
    let report = tally.check(report, "backup")?;
    drop(sources);

    if faults.corrupt_container {
        let key = store
            .list(&format!("{}/containers/", w.config().scheme_key))
            .pop()?;
        let bytes = tally.check(store.get(&key), "read a container")??;
        store.corrupt(&key, bytes.len() - 1);
    }

    let before = store.stats();
    let (restored, restore) = phase(|| engine.restore_session(session));
    let after = store.stats();
    let restored = tally.check(restored, "restore")?;
    let intact = restored.len() == prep.files.len()
        && restored
            .iter()
            .zip(&prep.files)
            .all(|(r, f)| r.path == f.path && r.data == f.data);
    drop(restored);
    tally.verify(intact, "restored session equals its input")?;

    let mut point_ms = Vec::with_capacity(prep.sample.len());
    for (k, &i) in prep.sample.iter().enumerate() {
        let file = &prep.files[i];
        let start = Instant::now();
        let got = engine.restore_file(session, &file.path);
        point_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let got = tally.check(got, "point restore")?;
        let mut expected = std::borrow::Cow::Borrowed(&file.data);
        if faults.corrupt_expectation && k == 0 {
            expected.to_mut()[0] ^= 0xff;
        }
        tally.verify(got.data == *expected, "point restore equals its input")?;
    }

    let vac_before = store.stats();
    let start = Instant::now();
    let retention = engine.apply_retention(&RetentionPolicy::KeepLast(w.keep_last));
    let retention_s = start.elapsed().as_secs_f64();
    tally.check(retention, "retention")?;
    let vacuum = engine.vacuum(&VacuumOptions::default());
    let vacuum_s = start.elapsed().as_secs_f64();
    let vacuum = tally.check(vacuum, "vacuum")?;
    let vac_after = store.stats();

    // Vacuum rewrote containers and manifests: the timed session must
    // still restore exactly.
    for &i in prep.sample.iter().step_by(50) {
        let file = &prep.files[i];
        let got = tally.check(
            engine.restore_file(session, &file.path),
            "restore after vacuum",
        )?;
        tally.verify(
            got.data == file.data,
            "restore after vacuum equals its input",
        )?;
    }

    let end = store.stats();
    Some(Rep {
        setup_s,
        backup,
        report,
        restore,
        restore_gets: after.get_requests - before.get_requests,
        restore_bytes_out: after.bytes_out - before.bytes_out,
        point_ms,
        vacuum_s,
        retention_s,
        vacuum,
        vacuum_bytes_out: vac_after.bytes_out - vac_before.bytes_out,
        stored_bytes: store.stored_bytes(),
        cloud: aadedupe_cloud::ObjectStoreStats {
            put_requests: end.put_requests - base.put_requests,
            get_requests: end.get_requests - base.get_requests,
            delete_requests: end.delete_requests - base.delete_requests,
            bytes_in: end.bytes_in - base.bytes_in,
            bytes_out: end.bytes_out - base.bytes_out,
            ..Default::default()
        },
    })
}
