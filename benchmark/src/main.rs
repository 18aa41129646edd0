//! `applab-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line, report lines and, last, the result line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

use applab_benchmark::inputs::{Inputs, Workload};
use applab_benchmark::report::{result_line, stamp};
use applab_benchmark::run;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("applab-benchmark: {e}");
            eprintln!(
                "usage: applab-benchmark --workload <store_geographica|obda_viewport> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed);
    println!("{}", stamp(&inputs, args.seconds, args.trace));
    let out = if args.trace {
        run::traced(&inputs, args.seconds)
    } else {
        run::untraced(&inputs, args.seconds)
    };
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
