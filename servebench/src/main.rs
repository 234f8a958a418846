//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric (name, value, unit, clock) on stderr,
//! then on stdout a detail line (host fingerprint, repeat spreads,
//! percentiles used, failures) and, last, the result object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`). Exits 1 if
//! an output check failed, 2 on bad arguments.

use servebench::run::{measure, Metric, Report};
use servebench::stats::Fingerprint;
use servebench::workload::{Workload, NAMES};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {NAMES:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A JSON number; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn detail_json(report: &Report, seed: u64, host: &Fingerprint) -> String {
    let simd: Vec<String> = host.simd.iter().map(|f| format!("\"{f}\"")).collect();
    let spreads: Vec<String> = report
        .spreads
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{name}\": {{\"min\": {}, \"median\": {}, \"p90\": {}, \"n\": {}}}",
                num(s.min),
                num(s.median),
                num(s.p90),
                s.n
            )
        })
        .collect();
    let pcts: Vec<String> = report
        .percentiles
        .iter()
        .map(|(name, p)| {
            format!(
                "\"{name}\": {{\"pct\": {}, \"samples\": {}}}",
                p.pct, p.samples
            )
        })
        .collect();
    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('"', "'")))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"host\": {{\"nproc\": {}, \"simd\": [{}], \"rustc\": \"{}\"}}, \
         \"passes\": {{\"untraced\": {}, \"traced\": {}}}, \"spread\": {{{}}}, \"percentiles\": {{{}}}, \"failures\": [{}]}}",
        report.workload,
        host.nproc,
        simd.join(", "),
        host.rustc,
        report.passes.0,
        report.passes.1,
        spreads.join(", "),
        pcts.join(", "),
        failures.join(", ")
    )
}

fn print_table(report: &Report) {
    eprintln!("{:<34} {:>16} {:<8} clock", "metric", "value", "unit");
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        eprintln!(
            "{:<34} {:>16.6} {:<8} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
    }
    let fail_frac = report.failed_ids.len() as f64 / report.attempted.max(1) as f64;
    eprintln!(
        "{:<34} {:>16.6} {:<8} count",
        "fail_frac", fail_frac, "ratio"
    );
    for failure in &report.failures {
        eprintln!("FAIL {failure}");
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}");
            return ExitCode::from(2);
        }
    };
    let host = Fingerprint::current();
    let report = measure(&args.workload, args.seed, args.seconds, args.trace);
    print_table(&report);
    println!("{}", detail_json(&report, args.seed, &host));
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed_ids.len(),
        metrics_json(metrics)
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
