//! `serve_mixed`: a child `Server` over the fixture catalog, driven by two
//! keep-alive generator threads in the harness.
//!
//! The daemon runs in its own process, so its CPU clock and `VmHWM` are
//! the daemon's alone; the generators (request building, frame decoding,
//! output checks) run in the harness and are never charged to it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zmesh_serve::bench::{http_get, HttpClient};
use zmesh_serve::json::{self, Json};
use zmesh_serve::wire::decode_query_frames;
use zmesh_serve::{ServeOptions, Server, Zipf};
use zmesh_store::{ChunkCache, FileSource, RecipeCache, StoreReader};

use crate::fixture::{self, digest, Footer, Refs, SERVE_POSITIONS};
use crate::sys;
use crate::trace::{median, Tracer};
use crate::worker::{Block, Window};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Concurrent keep-alive callers.
pub const CALLERS: usize = 2;
/// Zipf exponent of the query mix.
pub const ZIPF_S: f64 = 1.1;
/// Requests each caller sends to warm the daemon during set-up.
const WARMUP_REQUESTS: u64 = 100;

/// Entry point of the `daemon` role: binds, prints its address, answers
/// `stats` lines on stdin with its own CPU and peak RSS, and drains and
/// exits when stdin closes.
pub fn daemon_main(dir: &Path, cache_bytes: u64) -> Result<(), String> {
    let server = Server::bind(
        dir,
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            cache_bytes,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_handle();
    println!("addr {addr}");
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            match line.as_deref() {
                Ok("stats") => println!(
                    "stats {} {}",
                    sys::process_cpu().as_nanos(),
                    zmesh_store::process_peak_rss()
                ),
                Ok(_) => {}
                Err(_) => break,
            }
        }
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    server.run().map_err(|e| e.to_string())
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn start(dir: &Path, cache_bytes: u64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--dir")
            .arg(dir)
            .arg("--cache-bytes")
            .arg(cache_bytes.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut d = Self {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        let line = d.read_line()?;
        d.addr = line
            .strip_prefix("addr ")
            .ok_or_else(|| format!("daemon said {line:?}"))?
            .to_string();
        Ok(d)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        if self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("daemon exited early".into());
        }
        Ok(line.trim().to_string())
    }

    /// The daemon's (CPU so far, peak RSS bytes).
    pub fn stats(&mut self) -> Result<(Duration, u64), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        writeln!(stdin, "stats").map_err(|e| e.to_string())?;
        let line = self.read_line()?;
        let mut t = line.split(' ');
        let bad = || format!("daemon said {line:?}");
        if t.next() != Some("stats") {
            return Err(bad());
        }
        let cpu: u64 = t.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let rss: u64 = t.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        Ok((Duration::from_nanos(cpu), rss))
    }

    /// Closes stdin (the daemon drains and exits) and waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stdin = None;
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How long, or how many requests, each caller runs.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Requests(u64),
}

fn request_path(refs: &Refs, q: &fixture::RefQuery) -> String {
    let store = &refs.stores[q.spec.store];
    format!(
        "/stores/{}/query?field={}&bbox={}",
        store.name,
        q.spec.field,
        q.spec.bbox_param(store.dim3)
    )
}

/// Seed of caller `caller` in phase `phase`: every caller and phase draws
/// its own zipf sequence from the workload seed.
fn stream_seed(seed: u64, phase: u64, caller: u64) -> u64 {
    seed ^ (phase << 40) ^ ((caller + 1) << 20)
}

/// Draws the next query of the mix: a zipf-ranked combination, then one
/// of its positions uniformly.
fn pick<'a>(refs: &'a Refs, zipf: &Zipf, rng: &mut StdRng) -> &'a fixture::RefQuery {
    let combo = zipf.sample(rng);
    &refs.queries[combo * SERVE_POSITIONS + rng.gen_range(0..SERVE_POSITIONS)]
}

/// One caller's view of a phase.
struct Caller {
    window: Window,
    tracer: Tracer,
    ranges: Vec<f64>,
}

/// Interval between block boundaries of a timed serve window.
const BLOCK: Duration = Duration::from_millis(500);

/// Runs `CALLERS` keep-alive callers against `addr`. With `footers`, each
/// request is traced: a `serve.request` span plus a replay of the bbox →
/// curve-range decomposition the daemon performs. With `tick` and a timed
/// stop, this thread calls `tick(requests completed so far)` at the start
/// and every [`BLOCK`] until the stop.
fn drive(
    addr: &str,
    refs: &Refs,
    seed: u64,
    phase: u64,
    stop: Stop,
    footers: Option<&[Footer]>,
    tick: Option<&mut dyn FnMut(u64)>,
) -> Vec<Caller> {
    let zipf = Zipf::new(refs.queries.len() / SERVE_POSITIONS, ZIPF_S);
    let completed = AtomicU64::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS as u64)
            .map(|c| {
                let (zipf, completed) = (&zipf, &completed);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(stream_seed(seed, phase, c));
                    let mut client = HttpClient::new(addr);
                    let mut caller = Caller {
                        window: Window::default(),
                        tracer: Tracer::default(),
                        ranges: Vec::new(),
                    };
                    let t0 = Instant::now();
                    loop {
                        let done = match stop {
                            Stop::After(d) => t0.elapsed() >= d,
                            Stop::Requests(n) => caller.window.attempted >= n,
                        };
                        if done {
                            break;
                        }
                        let q = pick(refs, zipf, &mut rng);
                        let path = request_path(refs, q);
                        let i = caller.window.attempted;
                        let t = Instant::now();
                        let mut latency = Duration::ZERO;
                        let resp = match footers {
                            None => client.get(&path),
                            Some(footers) => {
                                let tr = &mut caller.tracer;
                                tr.set_op(i);
                                tr.span("op", |tr| {
                                    let resp = tr.span("serve.request", |_| client.get(&path));
                                    latency = t.elapsed();
                                    let footer = &footers[q.spec.store];
                                    let r = tr.span("replay", |tr| {
                                        tr.span("sfc.ranges", |_| {
                                            fixture::query_ranges(footer, q.spec.lo, q.spec.hi)
                                        })
                                    });
                                    caller.ranges.push(r.len() as f64);
                                    resp
                                })
                            }
                        };
                        if latency.is_zero() {
                            latency = t.elapsed();
                        }
                        let w = &mut caller.window;
                        w.attempted += 1;
                        w.latencies_ns.push(latency.as_nanos() as f64);
                        if let Ok((200..=299, body)) = &resp {
                            w.completed += 1;
                            completed.fetch_add(1, Ordering::Relaxed);
                            let ok = decode_query_frames(body)
                                .is_ok_and(|(_, idx, vals)| digest(&idx, &vals) == q.digest);
                            w.ok += u64::from(ok);
                        }
                    }
                    caller
                })
            })
            .collect();
        if let (Some(tick), Stop::After(d)) = (tick, stop) {
            let t0 = Instant::now();
            let mut next = Duration::ZERO;
            while next <= d {
                std::thread::sleep(next.saturating_sub(t0.elapsed()));
                tick(completed.load(Ordering::Relaxed));
                next += BLOCK;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    })
}

/// Folds callers into one window: counts add, latencies pool.
fn pooled(callers: &[Caller]) -> Window {
    let mut w = Window::default();
    for c in callers {
        w.attempted += c.window.attempted;
        w.completed += c.window.completed;
        w.ok += c.window.ok;
        w.latencies_ns.extend_from_slice(&c.window.latencies_ns);
    }
    w
}

/// Sends the set-up warm-up mix.
pub fn warm_up(daemon: &Daemon, refs: &Refs, seed: u64) {
    drive(
        &daemon.addr,
        refs,
        seed,
        0,
        Stop::Requests(WARMUP_REQUESTS),
        None,
        None,
    );
}

/// `GET /metrics`, parsed.
fn scrape(addr: &str) -> Result<Json, String> {
    let (status, body) = http_get(addr, "/metrics").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    json::parse(&body).map_err(|e| e.to_string())
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    match cur {
        Json::Num(n) => *n,
        _ => 0.0,
    }
}

fn rate(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// The measured window. Untraced: the whole window is the mix, and the
/// daemon's CPU is read across it. Traced: 40 % untraced mix, 40 % traced
/// mix with `/metrics` deltas, 20 % the same mix through in-process
/// `StoreReader::query` for the direct baseline.
pub fn measure(
    daemon: &mut Daemon,
    refs: &Refs,
    dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: &Path,
) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let secs = |f: f64| Stop::After(Duration::from_secs_f64(seconds * f));
    if !trace {
        // Blocks of BLOCK wall time, each charged the daemon's CPU across
        // it; the callers' own CPU is never read.
        let addr = daemon.addr.clone();
        let mut blocks = Vec::new();
        let mut last: Option<(Duration, Instant, u64)> = None;
        let mut failure = None;
        let mut tick = |done: u64| match daemon.stats() {
            Ok((cpu, _)) => {
                let now = Instant::now();
                if let Some((cpu0, t0, done0)) = last {
                    blocks.push(Block {
                        completed: done - done0,
                        cpu: cpu - cpu0,
                        wall: now - t0,
                    });
                }
                last = Some((cpu, now, done));
            }
            Err(e) => failure = Some(e),
        };
        let callers = drive(&addr, refs, seed, 1, secs(1.0), None, Some(&mut tick));
        if let Some(e) = failure {
            return Err(e);
        }
        let (_, rss) = daemon.stats()?;
        let w = Window {
            blocks,
            ..pooled(&callers)
        };
        crate::worker::put_window(&mut out, &w);
        out.insert("rss_bytes".into(), rss as f64);
        return Ok(out);
    }

    let t0 = Instant::now();
    let mut untraced = pooled(&drive(&daemon.addr, refs, seed, 1, secs(0.4), None, None));
    untraced.blocks.push(Block {
        completed: untraced.completed,
        cpu: Duration::ZERO,
        wall: t0.elapsed(),
    });
    let footers: Vec<Footer> = refs
        .stores
        .iter()
        .map(|s| Footer::parse(&std::fs::read(s.store_path(dir)).map_err(|e| e.to_string())?))
        .collect::<Result<_, _>>()?;
    let before = scrape(&daemon.addr)?;
    let callers = drive(&daemon.addr, refs, seed, 2, secs(0.4), Some(&footers), None);
    let after = scrape(&daemon.addr)?;
    let traced = pooled(&callers);
    let (_, rss) = daemon.stats()?;

    let delta = |path: &[&str]| num(&after, path) - num(&before, path);
    out.insert(
        "store.chunk_cache_hit_rate".into(),
        rate(
            delta(&["chunk_cache", "hits"]),
            delta(&["chunk_cache", "misses"]),
        ),
    );
    out.insert(
        "store.chunk_cache_evictions".into(),
        delta(&["chunk_cache", "evictions"]),
    );
    out.insert(
        "store.chunk_cache_coalesced".into(),
        delta(&["chunk_cache", "coalesced"]),
    );
    out.insert(
        "store.recipe_cache_hit_rate".into(),
        rate(
            num(&after, &["recipe_cache", "hits"]),
            num(&after, &["recipe_cache", "misses"]),
        ),
    );
    out.insert(
        "serve.keepalive_reuses".into(),
        delta(&["server", "keepalive_reuses"]),
    );
    out.insert(
        "serve.rejected_busy".into(),
        delta(&["server", "rejected_busy"]),
    );
    out.insert("serve.timeouts".into(), delta(&["server", "timeouts"]));
    out.insert("serve.client_p99_ms".into(), untraced.p99_ms());

    let mut ranges_ns = Vec::new();
    let mut ranges_count = Vec::new();
    for (i, c) in callers.iter().enumerate() {
        ranges_ns.extend(c.tracer.per_op_self_ns("sfc.ranges"));
        ranges_count.extend_from_slice(&c.ranges);
        let file = trace_file.with_extension(format!("caller{i}.jsonl"));
        c.tracer.write_jsonl(&file).map_err(|e| e.to_string())?;
    }
    out.insert("sfc.ranges_us".into(), median(&ranges_ns) / 1e3);
    out.insert("sfc.ranges_count".into(), median(&ranges_count));

    // Direct baseline: the same mix through in-process readers sharing a
    // recipe cache and a chunk cache of the daemon's budget.
    let recipes = RecipeCache::new();
    let chunks = Arc::new(ChunkCache::new(refs.cache_bytes));
    let readers: Vec<StoreReader<FileSource>> = refs
        .stores
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let src = FileSource::open(s.store_path(dir)).map_err(|e| e.to_string())?;
            Ok(StoreReader::open_source_with_cache(src, &recipes)
                .map_err(|e| e.to_string())?
                .with_chunk_cache(Arc::clone(&chunks), k as u64))
        })
        .collect::<Result<_, String>>()?;
    let zipf = Zipf::new(refs.queries.len() / SERVE_POSITIONS, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 3, 0));
    let (mut direct_ns, mut decoded, mut efficiency) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds * 0.2 {
        let q = pick(refs, &zipf, &mut rng);
        let t = Instant::now();
        let r = readers[q.spec.store].query(&q.spec.field, &q.spec.query());
        direct_ns.push(t.elapsed().as_nanos() as f64);
        if let Ok(r) = r {
            let footer = &footers[q.spec.store];
            let entry = footer.field(&q.spec.field);
            let ranges = fixture::query_ranges(footer, q.spec.lo, q.spec.hi);
            let values: usize = fixture::selected_chunks(entry, q.spec.lo, q.spec.hi, &ranges)
                .into_iter()
                .map(|c| footer.chunk_len(c))
                .sum();
            decoded.push(r.chunks_decoded as f64);
            efficiency.push(r.values.len() as f64 / values.max(1) as f64);
        }
    }
    let direct_ms = median(&direct_ns) / 1e6;
    out.insert("store.query_ms".into(), direct_ms);
    out.insert("serve.direct_query_ms".into(), direct_ms);
    out.insert("serve.overhead_ms".into(), untraced.p50_ms() - direct_ms);
    out.insert("unattributed_ms".into(), untraced.p50_ms() - direct_ms);
    out.insert("store.chunks_decoded_per_op".into(), median(&decoded));
    out.insert("store.decode_efficiency".into(), median(&efficiency));
    out.insert("latency_p50_ms".into(), untraced.p50_ms());
    out.insert("ops_s".into(), untraced.ops_per_s());
    out.insert("trace_overhead".into(), traced.p50_ms() - untraced.p50_ms());

    let mut w = pooled(&callers);
    w.attempted += untraced.attempted;
    w.completed += untraced.completed;
    w.ok += untraced.ok;
    crate::worker::put_window(&mut out, &w);
    out.insert("rss_bytes".into(), rss as f64);
    Ok(out)
}
