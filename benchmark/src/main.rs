//! `loom-benchmark`: one wall-clock, layered, repeatable benchmark of the
//! LOOM stack. See `benchmark/README.md`.
//!
//! ```text
//! loom-benchmark --workload <ingest|churn|point|scan> --seed <n> --seconds <s> --trace <0|1>
//!                [--out <dir>]
//! loom-benchmark compare <A> <B>
//! ```

mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod metrics;
mod report;
mod round;
mod run;
mod stats;
mod trace;

#[cfg(test)]
mod selftest;

use run::RunArgs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: loom-benchmark --workload <ingest|churn|point|scan> --seed <n> \
                     --seconds <s> --trace <0|1> [--out <dir>]\n       \
                     loom-benchmark compare <A> <B>";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        scale: 1,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag} {value}`: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()? as f64,
            "--trace" => run.trace = number()? != 0,
            "--out" => run.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !inputs::WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "`--workload` must be one of {}",
            inputs::WORKLOADS.join(", ")
        ));
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2])).map(|(table, all_ok)| {
                print!("{table}");
                all_ok
            })
        }
        Some(flag) if flag.starts_with("--") => parse_run(&args)
            .and_then(|run| run::execute(&run))
            .map(|outcome| {
                eprintln!("loom-benchmark: wrote {}", outcome.result_file.display());
                print!("{}", outcome.stdout);
                outcome.correct
            }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("loom-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
