//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a context line and, last, one JSON result line on stdout;
//! exits 0 only when every operation and check passed.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use perfbench::measure::Faults;
use perfbench::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <first-full|weekly-incremental|large-files> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Option<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::named(&value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                });
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let Some(args) = parse(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let out = perfbench::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Faults::default(),
    );
    for e in &out.tally.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", out.context_line());
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
