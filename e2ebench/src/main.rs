//! Seeded end-to-end benchmark of the zMesh store and serve layers.
//!
//! ```text
//! e2ebench --workload <pack|open_query|scan|serve_mixed> --seed N --seconds S --trace 0|1
//! e2ebench selftest [--seconds S]
//! ```
//!
//! The harness (this process) generates the fixture, starts the program
//! under test as a child process — a `worker` for `pack`, `open_query`
//! and `scan`, a `daemon` for `serve_mixed` — and prints a provenance
//! line followed by one JSON result line. See `README.md` beside this
//! crate for what each workload and metric means.

mod fixture;
mod serve;
mod sys;
mod trace;
mod worker;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use fixture::Workload;
use trace::median;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ok_rate", "fraction"),
    ("cpu_ms_per_op", "ms"),
    ("ratio", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not run reports 0. The wall-clock figures come first: latency and
/// throughput are measured in the traced run's untraced half, and none of
/// them carries a bound, because steal from other tenants moves wall time
/// by up to ~45 % between runs on a shared 2-vCPU VM while CPU per op
/// moves under ~15 %.
const PER_LAYER: [(&str, &str); 41] = [
    ("latency_p50_ms", "ms"),
    ("ops_s", "1/s"),
    ("setup_wall_s", "s"),
    ("amr.parse_ms", "ms"),
    ("amr.parse_ns_per_cell", "ns"),
    ("core.recipe_build_ms", "ms"),
    ("core.invert_ms", "ms"),
    ("sfc.ranges_us", "us"),
    ("sfc.ranges_count", "count"),
    ("codecs.compress_ms", "ms"),
    ("codecs.decompress_ms", "ms"),
    ("codecs.decompress_mb_s", "MB/s"),
    ("kernels.tier", "level"),
    ("kernels.crc_ms", "ms"),
    ("kernels.crc_gb_s", "GB/s"),
    ("store.footer_parse_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.open_unattributed_ms", "ms"),
    ("store.query_ms", "ms"),
    ("store.decode_field_ms", "ms"),
    ("store.bytes_read_per_op", "B"),
    ("store.read_calls_per_op", "count"),
    ("store.chunks_decoded_per_op", "count"),
    ("store.decode_efficiency", "fraction"),
    ("store.write_recipe_ms", "ms"),
    ("store.write_reorder_ms", "ms"),
    ("store.write_encode_ms", "ms"),
    ("store.encode_parallelism", "x"),
    ("store.peak_buffer_kb", "KiB"),
    ("store.recipe_cache_hit_rate", "fraction"),
    ("store.chunk_cache_hit_rate", "fraction"),
    ("store.chunk_cache_evictions", "count"),
    ("store.chunk_cache_coalesced", "count"),
    ("serve.direct_query_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.client_p99_ms", "ms"),
    ("serve.keepalive_reuses", "count"),
    ("serve.rejected_busy", "count"),
    ("serve.timeouts", "count"),
    ("unattributed_ms", "ms"),
    ("trace_overhead", "ms"),
];

#[derive(Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

/// What one harness run measured.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => run_worker(&args[1..]),
        Some("daemon") => run_daemon(&args[1..]),
        Some("selftest") => selftest(&args[1..]),
        _ => parse_options(&args).and_then(|opts| {
            let report = harness(&opts)?;
            print_report(&report);
            Ok(())
        }),
    };
    if let Err(e) = result {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

/// `--key value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        if key == "corrupt-reference" {
            out.insert(key.to_string(), "1".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} wants a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<'a>(f: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    f.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn parse_num<T: std::str::FromStr>(f: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    get(f, key)?.parse().map_err(|_| format!("bad --{key}"))
}

fn parse_workload(f: &BTreeMap<String, String>) -> Result<Workload, String> {
    let name = get(f, "workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let f = flags(args)?;
    let trace = get(&f, "trace")?;
    if trace != "0" && trace != "1" {
        return Err("--trace wants 0 or 1".into());
    }
    Ok(Options {
        workload: parse_workload(&f)?,
        seed: parse_num(&f, "seed")?,
        seconds: parse_num(&f, "seconds")?,
        trace: trace == "1",
        corrupt: f.contains_key("corrupt-reference"),
    })
}

fn run_worker(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    worker::main(
        parse_workload(&f)?,
        Path::new(get(&f, "dir")?),
        parse_num(&f, "seconds")?,
        get(&f, "trace")? == "1",
        Path::new(get(&f, "trace-file")?),
    )
}

fn run_daemon(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    serve::daemon_main(Path::new(get(&f, "dir")?), parse_num(&f, "cache-bytes")?)
}

/// Removes the run's fixture directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `worker` child between `ready` and its result.
struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Starts a worker and waits for `ready`; returns it with the CPU it
    /// spent loading and warming up.
    fn start(opts: &Options, dir: &Path, trace_file: &Path) -> Result<(Self, Duration), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("worker")
            .args(["--workload", opts.workload.name()])
            .arg("--dir")
            .arg(dir)
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--trace-file")
            .arg(trace_file)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut w = Self {
            child,
            stdin,
            stdout,
        };
        let line = w.read_line()?;
        let cpu_ns = line
            .strip_prefix("ready ")
            .and_then(|ns| ns.parse().ok())
            .ok_or_else(|| format!("worker said {line:?}"))?;
        Ok((w, Duration::from_nanos(cpu_ns)))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        if self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("worker exited early".into());
        }
        Ok(line.trim().to_string())
    }

    /// Closes stdin without `go`: the worker exits.
    fn dismiss(mut self) -> Result<(), String> {
        self.stdin = None;
        self.child.wait().map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Sends `go`, collects the result, waits for exit.
    fn measure(mut self) -> Result<BTreeMap<String, f64>, String> {
        let stdin = self.stdin.as_mut().ok_or("worker stdin closed")?;
        writeln!(stdin, "go").map_err(|e| e.to_string())?;
        let line = self.read_line()?;
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("worker exited with {status}"));
        }
        parse_result(&line)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stdin = None;
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn parse_result(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = line
        .strip_prefix("result ")
        .ok_or_else(|| format!("worker said {line:?}"))?;
    body.split(' ')
        .map(|kv| {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad result field {kv:?}"))?;
            let v: f64 = v.parse().map_err(|_| format!("bad result value {kv:?}"))?;
            Ok((k.to_string(), v))
        })
        .collect()
}

/// The program under test, ready to measure.
enum Target {
    Worker(Worker),
    Daemon(serve::Daemon),
}

/// One set-up: fixture, program start, warm-up. Returns the CPU the
/// program under test spent on it beside the fixture and the program.
fn set_up(
    opts: &Options,
    dir: &Path,
    trace_file: &Path,
) -> Result<(fixture::Refs, Target, Duration), String> {
    let refs = fixture::build(dir, opts.workload, opts.seed, opts.corrupt)?;
    let (target, cpu) = match opts.workload {
        Workload::ServeMixed => {
            let mut daemon = serve::Daemon::start(dir, refs.cache_bytes)?;
            serve::warm_up(&daemon, &refs, opts.seed);
            let (cpu, _) = daemon.stats()?;
            (Target::Daemon(daemon), cpu)
        }
        _ => {
            let (worker, cpu) = Worker::start(opts, dir, trace_file)?;
            (Target::Worker(worker), cpu)
        }
    };
    Ok((refs, target, cpu))
}

fn harness(opts: &Options) -> Result<Report, String> {
    let root = PathBuf::from(".e2ebench");
    let work = WorkDir(root.join(format!("work-{}", std::process::id())));
    let trace_file = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(&root)
        .join("traces")
        .join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
    let fixture_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(&work.0);

    // Set-up is charged in CPU seconds, the harness's plus the program's,
    // for the reason wall latency is not gated: steal from other tenants
    // stretches wall time run to run. Wall set-up goes to the traced run.
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let (t, cpu0) = (Instant::now(), sys::process_cpu());
        let (refs, target, program_cpu) = set_up(opts, &fixture_dir, &trace_file)?;
        setup_wall.push(t.elapsed().as_secs_f64());
        setup_cpu.push((sys::process_cpu() - cpu0 + program_cpu).as_secs_f64());
        if rep + 1 < SETUP_REPS {
            match target {
                Target::Worker(w) => w.dismiss()?,
                Target::Daemon(d) => d.stop()?,
            }
        } else {
            ready = Some((refs, target));
        }
    }
    let (refs, target) = ready.expect("at least one set-up");

    let m = match target {
        Target::Worker(w) => w.measure()?,
        Target::Daemon(mut d) => {
            let m = serve::measure(
                &mut d,
                &refs,
                &fixture_dir,
                opts.seed,
                opts.seconds,
                opts.trace,
                &trace_file,
            )?;
            d.stop()?;
            m
        }
    };
    let val = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let attempted = val("attempted") as u64;
    let ok = val("ok") as u64;
    if attempted == 0 {
        return Err("no op was attempted in the window".into());
    }

    let mut metrics = Vec::new();
    if opts.trace {
        for (name, unit) in PER_LAYER {
            let v = match name {
                "kernels.tier" => kernel_tier(),
                "setup_wall_s" => median(&setup_wall),
                _ => val(name),
            };
            metrics.push((name, unit, v));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => median(&setup_cpu),
                "ok_rate" => ok as f64 / attempted as f64,
                "cpu_ms_per_op" => val("cpu_ns_per_op") / 1e6,
                "ratio" => refs.ratio,
                "peak_rss_mb" => val("rss_bytes") / (1024.0 * 1024.0),
                _ => unreachable!(),
            };
            metrics.push((name, unit, v));
        }
    }
    println!("{}", provenance(opts));
    Ok(Report {
        correct: ok == attempted,
        attempted,
        failed: attempted - ok,
        metrics,
    })
}

/// Kernel dispatch tier as a number: 0 scalar, 1 128-bit SIMD
/// (SSSE3/NEON), 2 AVX2.
fn kernel_tier() -> f64 {
    let label = zmesh_kernels::active();
    if label.contains("avx2") {
        2.0
    } else if label.contains("ssse3") || label.contains("neon") {
        1.0
    } else {
        0.0
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and how this run was measured.
fn provenance(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\":{{\"commit\":{},\"cpu\":{},\"nproc\":{nproc},\"kernel_tier\":{},\
         \"rustc\":{},\"scale\":\"Standard\",\"presets\":{},\"workload\":\"{}\",\"seed\":{},\
         \"seconds\":{},\"trace\":{},\"setup_reps\":{SETUP_REPS},\
         \"flush\":\"in-memory VecSink for pack, no fsync\"}}}}",
        json_str(&sys::commit()),
        json_str(&sys::cpu_model()),
        json_str(&zmesh_kernels::active()),
        json_str(&sys::rustc_version()),
        json_str(&fixture::PRESETS.join(",")),
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
    )
}

fn print_report(r: &Report) {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                finite(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",")
    );
}

/// JSON has no NaN or infinity; an undefined ratio reads as 0.
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The checker's self-test: every workload runs once against clean
/// references (must be all OK) and once against a deliberately corrupted
/// one (its `ok_rate` must drop below 1).
fn selftest(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let seconds: f64 = f.get("seconds").map_or(Ok(2.0), |s| {
        s.parse().map_err(|_| "bad --seconds".to_string())
    })?;
    let mut failures = Vec::new();
    for workload in [
        Workload::Pack,
        Workload::OpenQuery,
        Workload::Scan,
        Workload::ServeMixed,
    ] {
        for corrupt in [false, true] {
            let opts = Options {
                workload,
                seed: 1,
                seconds,
                trace: false,
                corrupt,
            };
            let r = harness(&opts)?;
            let ok_rate = r
                .metrics
                .iter()
                .find(|m| m.0 == "ok_rate")
                .map_or(f64::NAN, |m| m.2);
            let pass = if corrupt {
                ok_rate < 1.0 && !r.correct
            } else {
                ok_rate == 1.0 && r.correct
            };
            eprintln!(
                "selftest {:<12} {:<9} ok_rate={ok_rate:.4} attempted={} -> {}",
                workload.name(),
                if corrupt { "corrupt" } else { "clean" },
                r.attempted,
                if pass { "pass" } else { "FAIL" }
            );
            if !pass {
                failures.push(format!("{} corrupt={corrupt}", workload.name()));
            }
        }
    }
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("self-test failed: {}", failures.join(", ")))
    }
}
