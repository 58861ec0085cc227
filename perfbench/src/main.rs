//! `reactdb-perfbench`: the repository's benchmark. It drives ReactDB-rs only
//! through the API its users call, runs four workloads, and reports
//! end-to-end metrics (tracing off) and a per-layer budget (tracing on).
//! See `README.md` beside this package for every definition.

mod driver;
mod metrics;
mod probes;
mod run;
mod stats;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use metrics::{Reading, END_TO_END};
use run::{measure, Pass, Plan};
use workloads::Workload;

/// Measured seconds of one run unless `--seconds` says otherwise; the value
/// `BENCHMARK.json` carries as `run_seconds`.
pub const RUN_SECONDS: u64 = 12;
/// An untraced run is this many segments, each a fresh deployment with fresh
/// connections and threads measuring its share of the seconds. How the
/// scheduler places the threads differs from deployment to deployment and
/// stays for the deployment's life; the median over the windows of several
/// deployments sees past one unlucky placement.
const SEGMENTS: u64 = 4;
/// Set-ups timed per segment; `setup_s` is the median of all of a run's.
const SETUPS_PER_SEGMENT: usize = 2;
/// Warm-up before a pass's first measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// One measurement window. Every end-to-end rate and percentile is the
/// median over the run's windows.
const WINDOW: Duration = Duration::from_secs(1);
/// No single run may take longer than this, whatever `--seconds` says.
const HARD_CAP: Duration = Duration::from_secs(170);

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    quick: bool,
    repeat: usize,
    out_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
         [--repeat N] [--quick] [--out DIR] | --print-benchmark-json"
    );
    eprintln!("workloads: {}", workloads::ALL.map(|w| w.name).join(", "));
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        quick: false,
        repeat: 1,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let number = |v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} wants a whole number, got {v}")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()),
            "--seed" => opts.seed = number(value()),
            "--seconds" => opts.seconds = number(value()).max(1),
            "--trace" => opts.trace = Some(number(value()) != 0),
            "--repeat" => opts.repeat = number(value()).max(1) as usize,
            "--quick" => opts.quick = true,
            "--out" => opts.out_dir = PathBuf::from(value()),
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.quick {
        opts.seconds = opts.seconds.min(2);
    }
    opts
}

/// Turns a hang into a failed run: `arm` sets a deadline, and a detached
/// thread exits the process once it passes.
struct Watchdog {
    born: Instant,
    deadline_ms: AtomicU64,
}

impl Watchdog {
    fn start() -> &'static Watchdog {
        let dog: &'static Watchdog = Box::leak(Box::new(Watchdog {
            born: Instant::now(),
            deadline_ms: AtomicU64::new(u64::MAX),
        }));
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            if dog.born.elapsed().as_millis() as u64 > dog.deadline_ms.load(Ordering::Relaxed) {
                eprintln!("watchdog: the run overran its deadline; giving up");
                std::process::exit(3);
            }
        });
        dog
    }

    fn arm(&self, allowance: Duration) {
        let deadline = self.born.elapsed() + allowance.min(HARD_CAP);
        self.deadline_ms
            .store(deadline.as_millis() as u64, Ordering::Relaxed);
    }
}

fn plan(opts: &Opts, nproc: usize, seed: u64, windows: u64, traced: bool) -> Plan {
    Plan {
        seed,
        nproc,
        warmup: if opts.quick { WARMUP / 2 } else { WARMUP },
        window: WINDOW,
        windows: windows as usize,
        setups: if opts.quick || traced {
            1
        } else {
            SETUPS_PER_SEGMENT
        },
        traced,
        out_dir: opts.out_dir.clone(),
    }
}

/// The untraced run: the end-to-end metrics, over `SEGMENTS` deployments.
fn end_to_end(w: &Workload, opts: &Opts, nproc: usize, dog: &Watchdog) -> Result<Pass, String> {
    let segments = SEGMENTS.min(opts.seconds);
    // Twice the nominal duration, set-ups and checks included.
    dog.arm(
        2 * (WARMUP * segments as u32 + WINDOW * opts.seconds as u32) + Duration::from_secs(60),
    );
    let passes = (0..segments)
        .map(|segment| {
            // The seconds that do not divide go to the first segments.
            let windows = opts.seconds / segments + u64::from(segment < opts.seconds % segments);
            let seed = opts.seed.wrapping_mul(SEGMENTS).wrapping_add(segment);
            measure(w, &plan(opts, nproc, seed, windows, false))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut run = Pass::merge(passes);
    run.judge();
    Ok(run)
}

/// The traced run: half the seconds with tracing on, half with tracing off
/// (their ratio is the tracing overhead), then the per-layer probes.
fn per_layer(
    w: &Workload,
    opts: &Opts,
    nproc: usize,
    dog: &Watchdog,
) -> Result<(Pass, Vec<Reading>), String> {
    let half = (opts.seconds / 2).max(1);
    dog.arm(4 * (WARMUP + WINDOW * half as u32) + Duration::from_secs(60));
    let mut traced = measure(w, &plan(opts, nproc, opts.seed, half, true))?;
    let mut untraced = measure(w, &plan(opts, nproc, opts.seed, half, false))?;
    traced.judge();
    untraced.judge();
    traced.problems.append(&mut untraced.problems);

    let shared = workloads::Shared::new(nproc);
    let mut gen = workloads::generator(w.kind, opts.seed, 0, shared);
    let requests: Vec<_> = (0..512).map(|_| gen()).collect();
    let probes = probes::run(nproc, opts.seed, &requests)?;
    write_spans(&opts.out_dir, w, &traced)?;
    let readings = metrics::per_layer(&traced, &untraced, &probes);
    println!("{}", metrics::budget_table(&traced));
    Ok((traced, readings))
}

/// Writes the traced pass's spans, one JSON object per line.
fn write_spans(out_dir: &Path, w: &Workload, pass: &Pass) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("spans-{}.jsonl", w.name));
    let mut text = String::with_capacity(pass.spans.len() * 96);
    for s in &pass.spans {
        let parent = s.parent.map_or("null".into(), |p| format!("\"{p}\""));
        text.push_str(&format!(
            "{{\"thread\":{},\"request\":{},\"span\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.thread, s.request, s.name, s.start_ns, s.end_ns
        ));
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn print_readings(w: &Workload, readings: &[Reading]) {
    for r in readings {
        println!("{} {} {} {}", w.name, r.name, r.unit, r.value);
    }
}

fn print_notes(w: &Workload, pass: &Pass, quick: bool) {
    println!(
        "# {}: {} latency samples in the measured windows, {} requests, {} failed, \
         user_abort_ratio {:.5}, over_limit_ratio {:.5}, cc_abort_ratio {:.5}, gen_late_ratio {:.5}",
        w.name,
        pass.samples(),
        pass.attempted(),
        pass.totals.failed,
        pass.user_abort_ratio(),
        pass.over_limit_ratio(),
        pass.cc_abort_ratio(),
        pass.gen_late_ratio()
    );
    let per_window = |f: &dyn Fn(&stats::Window) -> u64| {
        let values: Vec<String> = pass.windows.iter().map(|w| f(w).to_string()).collect();
        values.join(" ")
    };
    println!(
        "# {}: windows committed: {}",
        w.name,
        per_window(&|w| w.committed)
    );
    println!(
        "# {}: windows p50_us: {}",
        w.name,
        per_window(&|w| w.p50_ns / 1_000)
    );
    println!(
        "# {}: windows p99_us: {}",
        w.name,
        per_window(&|w| w.p99_ns / 1_000)
    );
    if quick {
        println!(
            "# {}: --quick run, NOT comparable with any other run",
            w.name
        );
    }
    for problem in &pass.problems {
        println!("# {}: CHECK FAILED: {problem}", w.name);
    }
}

/// Prints a run's readings and notes; returns the contract's result line.
fn report(w: &Workload, pass: &Pass, readings: &[Reading], quick: bool) -> String {
    print_readings(w, readings);
    print_notes(w, pass, quick);
    result_json(pass, readings)
}

/// The contract's result line.
fn result_json(pass: &Pass, readings: &[Reading]) -> String {
    let metrics: Vec<String> = readings
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                metrics::json_number(r.value),
                r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.problems.is_empty(),
        pass.attempted().max(1),
        pass.totals.failed,
        metrics.join(", ")
    )
}

fn find_workload(name: &str) -> Workload {
    workloads::ALL
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| usage(&format!("unknown workload {name}")))
}

/// One workload, one mode: what the contract's driver runs.
fn single(opts: &Opts, nproc: usize, dog: &Watchdog) -> Result<bool, String> {
    let w = find_workload(
        opts.workload
            .as_deref()
            .expect("single mode has a workload"),
    );
    let (pass, readings) = if opts.trace == Some(true) {
        per_layer(&w, opts, nproc, dog)?
    } else {
        let pass = end_to_end(&w, opts, nproc, dog)?;
        let readings = metrics::end_to_end(&pass);
        (pass, readings)
    };
    println!("{}", report(&w, &pass, &readings, opts.quick));
    Ok(pass.problems.is_empty())
}

/// Every workload untraced (`--repeat` sets of them), then every workload
/// traced; with two or more sets, the first two are compared against the
/// bounds.
fn full(opts: &Opts, nproc: usize, dog: &Watchdog) -> Result<bool, String> {
    let selected: Vec<Workload> = match &opts.workload {
        Some(name) => vec![find_workload(name)],
        None => workloads::ALL.to_vec(),
    };
    let mut ok = true;
    let mut sets: Vec<Vec<Vec<Reading>>> = Vec::new();
    let mut json_rows = Vec::new();
    for set in 0..opts.repeat {
        let mut rows = Vec::new();
        for w in &selected {
            eprintln!("== set {} untraced: {}", set + 1, w.name);
            let pass = end_to_end(w, opts, nproc, dog)?;
            let readings = metrics::end_to_end(&pass);
            ok &= pass.problems.is_empty();
            json_rows.push(format!(
                "{{\"workload\": \"{}\", \"set\": {}, \"trace\": 0, \"result\": {}}}",
                w.name,
                set + 1,
                report(w, &pass, &readings, opts.quick)
            ));
            rows.push(readings);
        }
        sets.push(rows);
    }
    if opts.trace != Some(false) {
        for w in &selected {
            eprintln!("== traced: {}", w.name);
            let (pass, readings) = per_layer(w, opts, nproc, dog)?;
            ok &= pass.problems.is_empty();
            json_rows.push(format!(
                "{{\"workload\": \"{}\", \"set\": 1, \"trace\": 1, \"result\": {}}}",
                w.name,
                report(w, &pass, &readings, opts.quick)
            ));
        }
    }
    if let [a, b, ..] = sets.as_slice() {
        println!("# repeat check: |a-b|/a per metric x workload against its bound");
        for ((w, a), b) in selected.iter().zip(a).zip(b) {
            for ((ra, rb), spec) in a.iter().zip(b).zip(END_TO_END.iter()) {
                let drift = (ra.value - rb.value).abs() / ra.value.abs();
                let verdict = if drift <= spec.bound { "ok" } else { "MISS" };
                println!(
                    "{} {} a={} b={} drift={drift:.4} bound={} {verdict}",
                    w.name, ra.name, ra.value, rb.value, spec.bound
                );
                ok &= drift <= spec.bound;
            }
        }
    }
    write_results(opts, nproc, &json_rows)?;
    Ok(ok)
}

/// `out/results.json`: every result line of the command plus what is needed
/// to tell two result files apart.
fn write_results(opts: &Opts, nproc: usize, rows: &[String]) -> Result<(), String> {
    let env = |key: &str| {
        let value = std::env::var(key).unwrap_or_else(|_| "unknown".into());
        value.replace(['"', '\\'], "")
    };
    let text = format!(
        "{{\"seed\": {}, \"nproc\": {nproc}, \"run_seconds\": {}, \"quick\": {}, \
         \"git_commit\": \"{}\", \"rustc\": \"{}\", \"claim\": null, \"runs\": [\n  {}\n]}}\n",
        opts.seed,
        opts.seconds,
        opts.quick,
        env("PERFBENCH_GIT_COMMIT"),
        env("PERFBENCH_RUSTC"),
        rows.join(",\n  ")
    );
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join("results.json");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("results written to {}", path.display());
    Ok(())
}

fn main() {
    let opts = parse_opts();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dog = Watchdog::start();
    // The driver's form names a workload and a trace mode; anything else is
    // the full command.
    let outcome = if opts.workload.is_some() && opts.trace.is_some() && opts.repeat == 1 {
        single(&opts, nproc, dog)
    } else {
        full(&opts, nproc, dog)
    };
    let _ = std::io::stdout().flush();
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("error: a check failed (see the CHECK FAILED and MISS lines)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
