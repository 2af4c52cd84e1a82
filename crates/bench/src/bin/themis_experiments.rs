//! Runs every experiment of the Themis reproduction and prints one combined
//! markdown document (the source of `EXPERIMENTS.md`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p themis-bench --bin themis-experiments [--cache FILE] [output.md]
//! ```
//!
//! With an argument, the combined report is also written to the given file.
//!
//! With `--cache FILE`, the fig04/fig08/fig09/fig11 suite is routed through
//! the resident campaign service ([`themis::api::serve`]) instead of plain
//! `run_shared` calls: one in-process `Service` carries the warm plan cache,
//! warm-starts its schedules from FILE (if present) and afterwards
//! merge-publishes them back when it holds schedules the file lacks (a run
//! that scheduled nothing new leaves FILE untouched) — so a second
//! `themis-experiments --cache FILE` run (or a
//! `themis-serve --cache FILE` daemon, or `shard-worker run --cache FILE`
//! workers) reuses the schedules across processes. Cache hit statistics are
//! printed either way.

use std::io::Write;
use std::path::PathBuf;
use themis::api::json::Json;
use themis::api::serve::{ServeOptions, Service};
use themis::SimPlanCache;
use themis_bench::experiments;
use themis_bench::service_ext;

/// The four figures sharing one warm plan cache, in document order.
const SHARED_FIGURES: [&str; 4] = ["fig04", "fig08", "fig09", "fig11"];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cache_file = match args.iter().position(|a| a == "--cache") {
        Some(at) if at + 1 < args.len() => {
            let value = args.remove(at + 1);
            args.remove(at);
            Some(PathBuf::from(value))
        }
        Some(_) => {
            eprintln!("themis-experiments: `--cache` expects a file path");
            std::process::exit(1);
        }
        None => None,
    };

    // One warm precompiled-plan cache serves the whole figure suite: the
    // fig04/fig08/fig09/fig11 experiments sweep overlapping (topology,
    // collective, chunks, scheduler) cells, so schedules and per-op cost
    // tables built for one figure are reused by the next. With --cache the
    // same four figures run as a figure-suite request against the resident
    // campaign service, which additionally round-trips the schedules through
    // the shared cache file (cross-process reuse).
    let (shared_markdown, stats) = match &cache_file {
        Some(path) => run_suite_through_service(path),
        None => {
            let plan = SimPlanCache::new();
            let markdown = vec![
                experiments::fig04::run_shared(&plan).to_string(),
                experiments::fig08::run_shared(&plan).to_string(),
                experiments::fig09::run_shared(&plan).to_string(),
                experiments::fig11::run_shared(&plan).to_string(),
            ];
            (markdown, CacheSummary::of(&plan))
        }
    };
    let [fig04, fig08, fig09, fig11] = &shared_markdown[..] else {
        unreachable!("the shared suite always renders four figures");
    };
    let sections = vec![
        experiments::table2::run().to_string(),
        fig04.clone(),
        experiments::fig05::run().to_string(),
        fig08.clone(),
        fig09.clone(),
        experiments::fig10::run().to_string(),
        fig11.clone(),
        experiments::fig12::run().to_string(),
        experiments::stream_overlap::run().to_string(),
        experiments::sec63::run().to_string(),
        experiments::fault_sweep::run().to_string(),
        experiments::summary::run().to_string(),
    ];
    eprintln!(
        "figure-suite plan cache: {} schedules ({} hits / {} misses), {} cost tables \
         ({} hits / {} misses)",
        stats.schedules_len,
        stats.schedules_hits,
        stats.schedules_misses,
        stats.cost_tables_len,
        stats.cost_tables_hits,
        stats.cost_tables_misses,
    );

    let mut document = String::from(
        "# Themis reproduction — experiment results\n\n\
         Generated by `cargo run --release -p themis-bench --bin themis-experiments`.\n\n",
    );
    for section in &sections {
        document.push_str(section);
        document.push('\n');
    }
    print!("{document}");

    if let Some(path) = args.first() {
        match std::fs::File::create(path) {
            Ok(mut file) => {
                if let Err(err) = file.write_all(document.as_bytes()) {
                    eprintln!("failed to write {path}: {err}");
                } else {
                    eprintln!("wrote combined report to {path}");
                }
            }
            Err(err) => eprintln!("failed to create {path}: {err}"),
        }
    }
}

/// A snapshot of a plan cache's sizes and cumulative hit counters.
struct CacheSummary {
    schedules_len: usize,
    schedules_hits: u64,
    schedules_misses: u64,
    cost_tables_len: usize,
    cost_tables_hits: u64,
    cost_tables_misses: u64,
}

impl CacheSummary {
    fn of(plan: &SimPlanCache) -> Self {
        CacheSummary {
            schedules_len: plan.schedules().len(),
            schedules_hits: plan.schedules().hits(),
            schedules_misses: plan.schedules().misses(),
            cost_tables_len: plan.cost_tables().len(),
            cost_tables_hits: plan.cost_tables().hits(),
            cost_tables_misses: plan.cost_tables().misses(),
        }
    }
}

/// Runs the shared figure suite as a `figure-suite` request against an
/// in-process resident [`Service`] carrying `cache_file`: schedules are
/// warm-started from the file and merge-published back when the service
/// holds schedules the file lacks, so repeated runs — and any other process
/// pointed at the same file — reuse them.
fn run_suite_through_service(cache_file: &std::path::Path) -> (Vec<String>, CacheSummary) {
    let service = Service::new(ServeOptions {
        cache_file: Some(cache_file.to_path_buf()),
        ..ServeOptions::default()
    });
    match service.load_cache_file() {
        Ok(0) => eprintln!(
            "figure-suite service: cold start ({} not present yet)",
            cache_file.display()
        ),
        Ok(loaded) => eprintln!(
            "figure-suite service: warm-started {loaded} schedules from {}",
            cache_file.display()
        ),
        Err(err) => {
            eprintln!(
                "themis-experiments: cannot load {}: {err}",
                cache_file.display()
            );
            std::process::exit(1);
        }
    }
    let request = Json::obj([
        ("id", Json::Num(1.0)),
        ("kind", Json::Str("figure-suite".to_string())),
        (
            "figures",
            Json::Arr(
                SHARED_FIGURES
                    .iter()
                    .map(|name| Json::Str(name.to_string()))
                    .collect(),
            ),
        ),
    ])
    .render();
    let response = service.handle_line_with(&request, service_ext::figure_suite);
    let response = Json::parse(&response).expect("service responses are valid JSON");
    let markdown: Vec<String> = (|| -> Result<_, themis::ThemisError> {
        if response.field("status")?.as_str()? != "ok" {
            return Err(themis::ThemisError::Serve {
                reason: format!("figure-suite request failed: {response:?}"),
            });
        }
        response
            .field("result")?
            .field("figures")?
            .as_arr()?
            .iter()
            .map(|figure| Ok(figure.field("markdown")?.as_str()?.to_string()))
            .collect()
    })()
    .unwrap_or_else(|err| {
        eprintln!("themis-experiments: {err}");
        std::process::exit(1);
    });
    match service.publish_cache_file() {
        Ok(published) => eprintln!(
            "figure-suite service: published {published} schedules to {}",
            cache_file.display()
        ),
        Err(err) => {
            eprintln!(
                "themis-experiments: cannot publish {}: {err}",
                cache_file.display()
            );
            std::process::exit(1);
        }
    }
    let stats = CacheSummary::of(service.plan());
    (markdown, stats)
}
