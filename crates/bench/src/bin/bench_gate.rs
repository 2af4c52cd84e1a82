//! Bench-regression gate: parses a `BENCH_sim.json` report and fails if a
//! matrix's measured speedup dropped below a floor.
//!
//! CI runs `bench-sim --smoke` (one iteration of a tiny matrix — noisy, so
//! the smoke floor is a catastrophic-regression guard, not the committed
//! full-run floor that `bench-sim` itself enforces) and then gates on the
//! emitted report:
//!
//! ```text
//! bench-gate BENCH_sim.json --matrix campaign --min 0.5
//! bench-gate BENCH_sim.json --max-telemetry-overhead 25
//! bench-gate CHAOS_report.json --chaos-scenarios 8
//! ```
//!
//! With `--matrix`/`--min`, exits non-zero (with a diagnostic on stderr)
//! when the report is missing, malformed, lacks the requested matrix, or the
//! matrix's `speedup` field is below `--min`. With
//! `--max-telemetry-overhead`, instead gates the report's measured
//! telemetry-on vs telemetry-off warm-campaign slowdown percentage. With
//! `--chaos-scenarios N`, instead gates a `bench-chaos` report: it must list
//! at least N scenarios and every one of them must have passed.

use std::process::ExitCode;
use themis::api::json::Json;

fn gate(args: &[String]) -> Result<String, String> {
    let mut args = args.to_vec();
    let matrix = take_flag(&mut args, "--matrix")?;
    let min = take_flag(&mut args, "--min")?;
    let max_overhead: Option<f64> = match take_flag(&mut args, "--max-telemetry-overhead")? {
        Some(text) => Some(
            text.parse()
                .map_err(|_| "invalid --max-telemetry-overhead value".to_string())?,
        ),
        None => None,
    };
    let chaos_scenarios: Option<usize> = match take_flag(&mut args, "--chaos-scenarios")? {
        Some(text) => Some(
            text.parse()
                .map_err(|_| "invalid --chaos-scenarios value".to_string())?,
        ),
        None => None,
    };
    let [path] = args.as_slice() else {
        return Err("expected exactly one report file".to_string());
    };
    let text =
        std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))?;
    let value = Json::parse(&text).map_err(|err| format!("{path}: {err}"))?;
    if let Some(want) = chaos_scenarios {
        if matrix.is_some() || min.is_some() || max_overhead.is_some() {
            return Err("--chaos-scenarios cannot be combined with other gates".to_string());
        }
        return gate_chaos(path, &value, want);
    }
    if value
        .field("kind")
        .and_then(|kind| kind.as_str())
        .map_err(|err| format!("{path}: {err}"))?
        != "sim-bench"
    {
        return Err(format!("{path}: not a sim-bench report"));
    }
    if let Some(max_overhead) = max_overhead {
        if matrix.is_some() || min.is_some() {
            return Err(
                "--max-telemetry-overhead cannot be combined with --matrix/--min".to_string(),
            );
        }
        let overhead = value
            .field("telemetry")
            .and_then(|t| t.field("overhead_pct"))
            .and_then(Json::as_f64)
            .map_err(|err| format!("{path}: {err}"))?;
        if overhead > max_overhead {
            return Err(format!(
                "telemetry overhead {overhead:.2}% exceeds the {max_overhead}% ceiling"
            ));
        }
        return Ok(format!(
            "telemetry overhead {overhead:.2}% is within the {max_overhead}% ceiling"
        ));
    }
    let matrix = matrix.ok_or("missing --matrix <name>")?;
    let min: f64 = min
        .ok_or("missing --min <speedup>")?
        .parse()
        .map_err(|_| "invalid --min value".to_string())?;
    let matrices = value
        .field("matrices")
        .and_then(Json::as_arr)
        .map_err(|err| format!("{path}: {err}"))?;
    let entry = matrices
        .iter()
        .find(|m| {
            m.field("name")
                .and_then(|name| name.as_str())
                .is_ok_and(|name| name == matrix)
        })
        .ok_or_else(|| format!("{path}: no `{matrix}` matrix in the report"))?;
    let speedup = entry
        .field("speedup")
        .and_then(Json::as_f64)
        .map_err(|err| format!("{path}: {err}"))?;
    if speedup < min {
        return Err(format!(
            "{matrix} matrix speedup {speedup:.2}x is below the {min}x floor"
        ));
    }
    Ok(format!(
        "{matrix} matrix speedup {speedup:.2}x clears the {min}x floor"
    ))
}

/// Gates a `bench-chaos` report: at least `want` scenarios, all passed.
fn gate_chaos(path: &str, value: &Json, want: usize) -> Result<String, String> {
    if value
        .field("kind")
        .and_then(|kind| kind.as_str())
        .map_err(|err| format!("{path}: {err}"))?
        != "chaos-bench"
    {
        return Err(format!("{path}: not a chaos-bench report"));
    }
    let scenarios = value
        .field("scenarios")
        .and_then(Json::as_arr)
        .map_err(|err| format!("{path}: {err}"))?;
    if scenarios.len() < want {
        return Err(format!(
            "{path}: only {} chaos scenarios ran, expected at least {want}",
            scenarios.len()
        ));
    }
    for scenario in scenarios {
        let name = scenario
            .field("name")
            .and_then(Json::as_str)
            .map_err(|err| format!("{path}: {err}"))?;
        let passed = scenario
            .field("passed")
            .and_then(Json::as_bool)
            .map_err(|err| format!("{path}: {err}"))?;
        if !passed {
            return Err(format!("chaos scenario `{name}` failed"));
        }
    }
    Ok(format!(
        "all {} chaos scenarios passed (floor {want})",
        scenarios.len()
    ))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(index) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if index + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(index + 1);
    args.remove(index);
    Ok(Some(value))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gate(&args) {
        Ok(message) => {
            eprintln!("{message}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("bench-gate: {message}");
            ExitCode::FAILURE
        }
    }
}
