//! `lpbench --workload <estimate|optimize|serve> --seed <n> --seconds <s>
//! --trace <0|1>`: run one workload and print its metrics, one per line
//! with its unit, then a one-line JSON result as the last line of standard
//! output. Exits 1 when an output check fails and 2 on a usage error.

use std::process::ExitCode;

use lpbench::{metric_spec, run, Options, Scale, WORKLOADS};

fn usage(err: &str) -> ExitCode {
    eprintln!("lpbench: {err}");
    eprintln!(
        "usage: lpbench --workload <{}> --seconds S [--seed N] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if opts.seconds.is_nan() {
        return Err("--seconds is required".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => return usage(&e),
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => return usage(&e),
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, unit) in metric_spec(opts.trace) {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!("{}", outcome.to_json(opts.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
