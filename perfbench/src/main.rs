//! The repository benchmark.
//!
//! ```console
//! $ cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!       --workload local --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload` is `local`, `socket`, `atlas-ooc`, or `all` (each workload
//! in its own process, then one table row per workload). `--trace 0`
//! prints the end-to-end metrics; `--trace 1` first runs the workload
//! untraced in a child process, then runs it again with spans on and
//! prints the per-layer metrics, a self-time table, and a Chrome trace
//! under `.bench_out/`. The last line of standard output is a JSON
//! result; the exit code is 0 only when every answer and counter checked
//! out. `--tiny` shrinks every input for the smoke test.

use perfbench::catalog::{self, Metric, END_TO_END, PER_LAYER};
use perfbench::inputs::Sizes;
use perfbench::run::{ratio, Config, Outcome, WORKLOADS};
use perfbench::{host, local, ooc, socket, spans};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <local|socket|atlas-ooc|all> --seed <n> \
                     --seconds <n> --trace <0|1> [--tiny]";

/// Where images and traces go, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
            (None, None, None, None, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                "--tiny" => tiny = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            tiny,
        })
    }

    /// The command line that reruns `workload` with `trace`.
    fn child(&self, workload: &str, trace: bool) -> Command {
        let exe = std::env::current_exe().expect("the running executable");
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload, "--seed", &self.seed.to_string()]).args([
            "--seconds",
            &self.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
        if self.tiny {
            cmd.arg("--tiny");
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        cmd
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args) -> ExitCode {
    let w = args.workload.as_str();
    println!(
        "host: nproc={} rustc=\"{}\" rev={} workload={w} seed={} seconds={} trace={}",
        host::nproc(),
        host::rustc_version(),
        host::git_rev(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    let mut cfg = Config {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: None,
        sizes: if args.tiny { Sizes::tiny() } else { Sizes::full() },
        out_dir,
    };

    // The traced run's baseline: the same run untraced, in its own process.
    let untraced = if args.trace {
        let child = args.child(w, false).output().expect("run the untraced baseline");
        let text = String::from_utf8_lossy(&child.stdout);
        match (child.status.success(), row_value(&text, "pairs_per_s")) {
            (true, Some(pps)) => Some(pps),
            _ => {
                eprintln!("error: the untraced baseline run failed:\n{text}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    if args.trace {
        obs::trace::enable();
        cfg.trace = Some(Instant::now());
    }
    let mut out = match w {
        "local" => local::run(&cfg),
        "socket" => socket::run(&cfg),
        _ => ooc::run(&cfg),
    };
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set("fail_frac", ratio(out.failed as f64, out.attempted as f64));
    for p in &out.problems {
        println!("problem: {p}");
    }
    if let Some(untraced) = untraced {
        out.set("proc.trace_overhead_frac", out.values["pairs_per_s"] / untraced - 1.0);
        print_metrics(w, &out, PER_LAYER);
        print_spans(&cfg, w, &out);
    } else {
        print_metrics(w, &out, END_TO_END);
    }
    println!(
        "row workload={w} {}",
        END_TO_END
            .iter()
            .map(|m| format!("{}={}", m.name, shown(w, m, &out)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("{}", result_json(&out, if args.trace { PER_LAYER } else { END_TO_END }));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process, then prints one row each.
fn run_all(args: &Args) -> ExitCode {
    let mut rows = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let child = args.child(w, args.trace).output().expect("run a workload");
        let text = String::from_utf8_lossy(&child.stdout).into_owned();
        print!("{text}");
        ok &= child.status.success();
        rows.push((w, text));
    }
    println!(
        "\n{:<10} {}",
        "workload",
        END_TO_END.iter().map(header).collect::<Vec<_>>().join(" ")
    );
    for (w, text) in &rows {
        let cells: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("{:>w$}", row_field(text, m.name).unwrap_or("?"), w = header(m).len()))
            .collect();
        println!("{w:<10} {}", cells.join(" "));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn header(m: &Metric) -> String {
    format!("{}[{}]", m.name, m.unit)
}

/// A metric's printed value: the number, or `n/a` where the workload
/// does not measure it.
fn shown(w: &str, m: &Metric, out: &Outcome) -> String {
    match out.values.get(m.name) {
        Some(v) if m.on.contains(&w) => format!("{v}"),
        _ => "n/a".into(),
    }
}

fn print_metrics(w: &str, out: &Outcome, metrics: &[Metric]) {
    println!("{:<34} {:>16} {:<15} {:<12} measured on", "metric", "value", "unit", "moves");
    for m in metrics {
        let moves = if m.moves.is_empty() { "-" } else { m.moves };
        println!(
            "{:<34} {:>16} {:<15} {:<12} {}",
            m.name,
            shown(w, m, out),
            m.unit,
            moves,
            m.on.join(",")
        );
    }
}

/// Writes the Chrome trace and prints per-span self time.
fn print_spans(cfg: &Config, w: &str, out: &Outcome) {
    let path = cfg.out_dir.join(format!("trace-{w}-seed{}.json", cfg.seed));
    std::fs::write(&path, obs::trace::export_chrome_json(&out.events)).expect("write the trace");
    let mut totals: Vec<_> = spans::totals(&out.events).into_iter().collect();
    totals.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_us));
    println!("{:<34} {:>10} {:>14} {:>14}", "span", "count", "total_ms", "self_ms");
    for (name, t) in totals {
        println!(
            "{name:<34} {:>10} {:>14.3} {:>14.3}",
            t.count,
            t.total_us as f64 / 1e3,
            t.self_us as f64 / 1e3
        );
    }
    println!("trace: {} (Chrome trace JSON; open in Perfetto)", path.display());
}

/// The last output line: correctness, operation counts and `metrics`.
/// Metrics a workload does not measure read 0 (`n/a` in the table).
fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| catalog::gated(m))
        .map(|m| {
            let v = out.values.get(m.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// The `name=value` field of a workload's `row` line.
fn row_field<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let row = text.lines().find(|l| l.starts_with("row "))?;
    row.split_whitespace().find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
}

fn row_value(text: &str, name: &str) -> Option<f64> {
    row_field(text, name)?.parse().ok()
}
