//! End-to-end and per-layer benchmark of the HEAVEN reproduction.
//!
//! `heaven-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds one workload's system from the seed, measures it for the given
//! host seconds, checks every result against ground truth and prints one
//! JSON line last: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from spans and replays) with `--trace 1`. See `README.md`.

mod cold;
mod harness;
mod ingest;
mod layers;
mod replay;
mod warm;

use harness::{Args, Report};

/// Workload-specific figures that only mean something where the layer is
/// busy; printed for reading, and emitted per layer by the traced run.
fn print_figures(workload: &str, l: &layers::Layers) {
    let mut r = Report::default();
    let sim = |r: &mut Report| {
        r.put(
            "query_sim_p50_s",
            harness::quantile(&l.query_sim_s, 0.5),
            "sim_s",
        );
        r.put(
            "query_sim_p99_s",
            harness::quantile(&l.query_sim_s, 0.99),
            "sim_s",
        );
    };
    match workload {
        "cold_sessions" => sim(&mut r),
        "ingest_mix" => {
            sim(&mut r);
            let ingest_s = (l.insert_us + l.export_us) / 1e6;
            let mib = l.ingest_user_bytes as f64 / layers::MIB;
            r.put("ingest_mib_per_s", mib / ingest_s.max(1e-12), "MiB/s");
            r.put(
                "ingest_sim_s_per_mib",
                l.ingest_sim_s / mib.max(1e-12),
                "sim_s/MiB",
            );
            r.put("update_p50_us", harness::quantile(&l.update_us, 0.5), "us");
            r.put(
                "archive_bytes_per_user_byte",
                l.archive_bytes_per_user_byte(),
                "ratio",
            );
        }
        _ => return,
    }
    r.print_table(&format!("{workload} workload figures"));
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("heaven-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "warm_rasql" => warm::run(&args),
        "cold_sessions" => cold::run(&args),
        "ingest_mix" => ingest::run(&args),
        other => Err(format!(
            "unknown workload {other} (warm_rasql, cold_sessions, ingest_mix)"
        )),
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("heaven-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut report = Report::default();
    if args.trace {
        out.layers.emit(&mut report);
        report.print_table(&format!("{} per-layer (traced run)", args.workload));
        match harness::write_spans(&args.workload, args.seed, &out.spans) {
            Ok(path) => println!("spans: {} records in {path}", out.spans.len()),
            Err(e) => eprintln!("heaven-perfbench: cannot write spans: {e}"),
        }
    } else {
        out.e2e.emit(&mut report);
        report.print_table(&format!(
            "{} end-to-end ({} queries timed)",
            args.workload,
            out.e2e.query_us.len()
        ));
        print_figures(&args.workload, &out.layers);
    }
    let ok = out.ledger.failed == 0;
    if let Some(f) = out.ledger.first_failure() {
        eprintln!("heaven-perfbench: correctness check failed: {f}");
    }
    println!(
        "{}",
        report.json(ok, out.ledger.attempted, out.ledger.failed)
    );
    if !ok {
        std::process::exit(1);
    }
}
