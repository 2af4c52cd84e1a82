//! Chaos-report gate: parses a `bench-chaos` report and fails unless it
//! lists at least a given number of scenarios, every one of them passed.
//!
//! CI runs `bench-chaos --smoke CHAOS_report.json` (which itself dies on any
//! failed scenario) and then pins the scenario count on the emitted report,
//! so a scenario silently dropped from the harness fails CI too:
//!
//! ```text
//! bench-gate CHAOS_report.json --chaos-scenarios 8
//! ```
//!
//! Exits non-zero, with a diagnostic on stderr, when the report is missing,
//! malformed or not a chaos report, lists fewer scenarios than required, or
//! records a failed scenario.

use std::process::ExitCode;
use themis::api::json::Json;

fn gate(args: &[String]) -> Result<String, String> {
    let mut args = args.to_vec();
    let want: usize = take_flag(&mut args, "--chaos-scenarios")?
        .ok_or("missing --chaos-scenarios <count>")?
        .parse()
        .map_err(|_| "invalid --chaos-scenarios value".to_string())?;
    let [path] = args.as_slice() else {
        return Err("expected exactly one report file".to_string());
    };
    let text =
        std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))?;
    let value = Json::parse(&text).map_err(|err| format!("{path}: {err}"))?;
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
