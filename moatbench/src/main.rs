//! `moatbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload on one thread. The last line of standard output is
//! the result object (`correct`, `attempted`, `failed`, `metrics`); the
//! line before it is the digest of every simulated statistic. The host
//! sidecar (CPU, compiler, commit, per-pass scheduler accounting) and a
//! traced run's spans go to standard error, out of the metric output.

use std::fmt::Write as _;
use std::process::ExitCode;

use moatbench::run::{self, Outcome, Scale};
use moatbench::{host, Check};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("--seed {value}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0xA0A7),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a non-finite value (which also marks the run
/// incorrect) prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn sidecar(args: &Args, out: &Outcome) -> String {
    let passes: Vec<String> = out
        .passes
        .iter()
        .map(|p| {
            format!(
                "{{\"wall_s\": {}, \"on_cpu_s\": {}, \"runq_wait_s\": {}}}",
                json_num(p.wall_s),
                json_num(p.on_cpu_s),
                json_num(p.runq_wait_s)
            )
        })
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"sidecar\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"cpu_model\": {}, \
         \"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"threads\": {}, \"setups\": {}, \"setup_median_s\": {}, \
         \"passes\": [{}], \"digest\": \"{:016x}\", \"failures\": [{}]}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        json_str(&host::cpu_model()),
        host::nproc(),
        json_str(host::rustc_version()),
        json_str(&host::commit()),
        host::threads().unwrap_or(0),
        out.setups_s.len(),
        json_num(moatbench::layers::median(&mut out.setups_s.clone())),
        passes.join(", "),
        out.digest,
        failures.join(", ")
    )
}

fn span_lines(out: &Outcome) -> String {
    let mut s = String::new();
    for span in out.spans.all() {
        let _ = writeln!(
            s,
            "{{\"span\": {}, \"cell\": {}, \"busy_ns\": {}, \"calls\": {}, \"units\": {}}}",
            json_str(span.layer),
            json_str(&span.cell),
            span.busy.ns,
            span.busy.calls,
            span.busy.units
        );
    }
    s
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("moatbench: {e}");
            eprintln!(
                "usage: moatbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                run::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run::trace(&args.workload, args.seed, Scale::FULL)
    } else {
        run::measure(&args.workload, args.seed, args.seconds, Scale::FULL)
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("moatbench: {e}");
            return ExitCode::from(1);
        }
    };
    out.tally_checks(&[Check::plain(
        "all work ran on one thread",
        host::threads() == Some(1),
    )]);
    eprint!("{}", span_lines(&out));
    eprintln!("{}", sidecar(&args, &out));
    println!(
        "digest {} seed={} {:016x}",
        args.workload, args.seed, out.digest
    );
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
