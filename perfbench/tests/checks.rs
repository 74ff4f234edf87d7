//! The benchmark's own checks: faults must fail a run, inputs must be a
//! pure function of (workload, seed), the traced replay must pass its
//! fidelity gate, and every run must report exactly the metrics
//! BENCHMARK.json lists. Workloads are scaled down from the benchmark's.

use aadedupe_obs::json::{self, Value};
use perfbench::measure::Faults;
use perfbench::workload::{Kind, Workload};
use perfbench::{run, Outcome};

fn small(kind: Kind) -> Workload {
    let (mib, prior_weeks, workers, sample, keep_last) = match kind {
        Kind::FirstFull => (8, 0, 2, 20, 1),
        Kind::WeeklyIncremental => (6, 2, 1, 20, 2),
        Kind::LargeFiles => (16, 0, 1, 4, 1),
    };
    Workload {
        kind,
        mib,
        prior_weeks,
        workers,
        sample,
        keep_last,
    }
}

const KINDS: [Kind; 3] = [Kind::FirstFull, Kind::WeeklyIncremental, Kind::LargeFiles];

/// Metric names and units of one section of BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let metrics: &[Value] = doc.get(section).as_arr().expect("metric list");
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").as_str().expect("name").to_string();
            (name, m.get("unit").as_str().expect("unit").to_string())
        })
        .collect()
}

fn assert_reports_exactly(out: &Outcome, section: &str) {
    let want = listed(section);
    let got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{section} metrics, in order, with units");
}

#[test]
fn a_corrupted_container_fails_the_run() {
    for kind in KINDS {
        let faults = Faults {
            corrupt_container: true,
            ..Faults::default()
        };
        let out = run(&small(kind), 3, 0.0, false, faults);
        assert!(out.tally.failed > 0, "{kind:?}: corruption went unnoticed");
        assert!(!out.correct());
        assert!(
            out.metrics.is_empty(),
            "{kind:?}: a failed run reports no metric"
        );
        let line = json::parse(&out.result_line()).expect("result line is JSON");
        assert_eq!(line.get("correct"), &Value::Bool(false));
        assert!(line.get("failed").as_u64().is_some_and(|f| f > 0));
        assert!(line
            .get("metrics")
            .as_obj()
            .is_some_and(std::collections::BTreeMap::is_empty));
    }
}

#[test]
fn a_wrong_point_restore_expectation_fails_the_run() {
    for kind in KINDS {
        let faults = Faults {
            corrupt_expectation: true,
            ..Faults::default()
        };
        let out = run(&small(kind), 3, 0.0, false, faults);
        assert!(
            out.tally.failed > 0,
            "{kind:?}: a wrong restore went unnoticed"
        );
        assert!(out.metrics.is_empty());
        assert!(out.tally.errors.iter().any(|e| e.contains("point restore")));
    }
}

#[test]
fn inputs_and_counts_are_a_function_of_the_seed() {
    for kind in KINDS {
        let w = small(kind);
        let digest = |seed| w.prepare(seed).expect("prepare").digest();
        assert_eq!(digest(11), digest(11), "{kind:?}");
        assert_ne!(digest(11), digest(12), "{kind:?}");
        let (a, b) = (
            run(&w, 11, 0.0, false, Faults::default()),
            run(&w, 11, 0.0, false, Faults::default()),
        );
        assert!(
            a.correct() && b.correct(),
            "{kind:?}: {:?} {:?}",
            a.tally.errors,
            b.tally.errors
        );
        for metric in [
            "upload_bytes_per_source_byte",
            "puts_per_gib",
            "stored_bytes_per_source_byte",
        ] {
            assert_eq!(a.value(metric), b.value(metric), "{kind:?} {metric}");
        }
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for kind in KINDS {
        let out = run(&small(kind), 5, 0.0, false, Faults::default());
        assert!(out.correct(), "{kind:?}: {:?}", out.tally.errors);
        assert_reports_exactly(&out, "end_to_end");
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{kind:?}: {:?}",
            out.metrics
        );
    }
}

#[test]
fn traced_runs_pass_the_fidelity_gate_and_report_every_layer_metric() {
    for kind in KINDS {
        let out = run(&small(kind), 5, 0.0, true, Faults::default());
        assert!(out.correct(), "{kind:?}: {:?}", out.tally.errors);
        assert_reports_exactly(&out, "per_layer");
    }
}
