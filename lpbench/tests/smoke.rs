//! Smoke test: every workload at reduced size reports every metric with
//! its unit, passes its output checks, and repeats its deterministic
//! values exactly.

use lowpower::obs::json::{parse, Value};
use lpbench::{metric_spec, run, Options, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn smoke(workload: &str, trace: bool, seed: u64) -> Outcome {
    let opts = Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    };
    let outcome = run(&opts).expect("known workload");
    assert!(outcome.correct, "{workload}: {:#?}", outcome.notes);
    assert_eq!(outcome.failed, 0, "{workload}");
    outcome
}

fn metric<'a>(result: &'a Value, name: &str) -> &'a Value {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = smoke(workload, trace, 3);
            let result = parse(&outcome.to_json(trace)).expect("result is JSON");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let spec = metric_spec(trace);
            let reported = result.get("metrics").and_then(|m| match m {
                Value::Object(fields) => Some(fields.len()),
                _ => None,
            });
            assert_eq!(reported, Some(spec.len()), "{workload}: metric count");
            for (name, unit) in spec {
                let m = metric(&result, name);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
            }
            if !trace {
                for (name, _) in END_TO_END {
                    assert!(
                        outcome.metrics[name] > 0.0,
                        "{workload}: {name} is not positive"
                    );
                }
            }
        }
    }
}

#[test]
fn deterministic_values_repeat_exactly() {
    for workload in WORKLOADS {
        let (a, b) = (smoke(workload, false, 5), smoke(workload, false, 5));
        for name in ["power_ratio", "crit_path_ratio"] {
            assert_eq!(
                a.metrics[name].to_bits(),
                b.metrics[name].to_bits(),
                "{workload}: {name}"
            );
        }
        let (a, b) = (smoke(workload, true, 5), smoke(workload, true, 5));
        for (name, unit) in PER_LAYER {
            let counted = unit == "count" || unit == "ratio";
            if counted && (name.starts_with("sim.") || name.starts_with("logicopt.")) {
                assert_eq!(
                    a.metrics[name].to_bits(),
                    b.metrics[name].to_bits(),
                    "{workload}: {name}"
                );
            }
        }
    }
}
