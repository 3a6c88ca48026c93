//! The program under test for `pack`, `open_query` and `scan`: a child
//! process that loads the fixture, warms up, reports `ready`, and on `go`
//! runs one caller in a closed loop for the window.
//!
//! Its own CPU clock covers exactly the ops (and the output checks, whose
//! CPU is measured separately and subtracted), and its `VmHWM` is the
//! peak of the inputs plus the ops — not of the harness that generated
//! them.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zmesh::{codec_for, crc32, CompressionConfig, RestoreRecipe};
use zmesh_amr::{load_dataset, AmrField, AmrTree, Dataset};
use zmesh_codecs::{CodecParams, ErrorControl, ValueType};
use zmesh_store::{
    open_parts_source, ByteSource, FileSource, StoreReader, StoreWriteStats, StoreWriter,
    StreamOptions, VecSink,
};

use crate::fixture::{self, digest, Footer, Refs, Workload};
use crate::sys;
use crate::trace::{median, quantile, slot_median, Tracer};

/// One op's outcome as the window loop sees it.
pub struct Outcome {
    /// Wall time of the op itself, from the call to its return.
    pub latency: Duration,
    /// The program returned without error.
    pub completed: bool,
    /// ...and its output passed the check.
    pub ok: bool,
    /// CPU spent checking the output (subtracted from the op cost).
    pub check_cpu: Duration,
}

/// Counters of one measured window.
#[derive(Default)]
pub struct Window {
    pub attempted: u64,
    pub completed: u64,
    pub ok: u64,
    pub latencies_ns: Vec<f64>,
    /// Input slot of each op (preset, store, or store × field); empty
    /// when the ops form one population.
    pub slots: Vec<u32>,
    /// Consecutive stretches of the window, each with its own op count,
    /// CPU and wall time; rates are reported as medians over blocks so a
    /// burst of outside load moves a few blocks, not the result.
    pub blocks: Vec<Block>,
}

/// One stretch of a window.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub completed: u64,
    pub cpu: Duration,
    pub wall: Duration,
}

impl Block {
    fn cpu_ns_per_op(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.cpu.as_nanos() as f64 / self.completed as f64)
    }

    fn ops_per_s(&self) -> Option<f64> {
        (self.wall > Duration::ZERO).then(|| self.completed as f64 / self.wall.as_secs_f64())
    }
}

impl Window {
    pub fn p50_ms(&self) -> f64 {
        slot_median(&self.latencies_ns, &self.slots) / 1e6
    }

    pub fn p99_ms(&self) -> f64 {
        quantile(&self.latencies_ns, 0.99) / 1e6
    }

    /// Completed ops per wall second, as a median over blocks.
    pub fn ops_per_s(&self) -> f64 {
        median(
            &self
                .blocks
                .iter()
                .filter_map(Block::ops_per_s)
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs `op(i)` for i = 0, 1, … until `seconds` of wall time have
/// passed, closing a block every `block_ops` ops. A block's CPU is this
/// process's CPU over the block minus the CPU its output checks took.
pub fn run_window(
    seconds: f64,
    block_ops: u64,
    slot_of: impl Fn(u64) -> u32,
    mut op: impl FnMut(u64) -> Outcome,
) -> Window {
    let mut w = Window::default();
    let deadline = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let (mut cpu0, mut wall0, mut done0) = (sys::process_cpu(), t0, 0);
    let mut check_cpu = Duration::ZERO;
    let mut close = |w: &mut Window, check_cpu: &mut Duration| {
        let (cpu, now) = (sys::process_cpu(), Instant::now());
        w.blocks.push(Block {
            completed: w.completed - done0,
            cpu: (cpu - cpu0).saturating_sub(*check_cpu),
            wall: now - wall0,
        });
        (cpu0, wall0, done0) = (cpu, now, w.completed);
        *check_cpu = Duration::ZERO;
    };
    while t0.elapsed() < deadline {
        let out = op(w.attempted);
        w.attempted += 1;
        w.completed += u64::from(out.completed);
        w.ok += u64::from(out.ok);
        w.latencies_ns.push(out.latency.as_nanos() as f64);
        w.slots.push(slot_of(w.attempted - 1));
        check_cpu += out.check_cpu;
        if w.attempted % block_ops == 0 {
            close(&mut w, &mut check_cpu);
        }
    }
    if w.blocks.is_empty() {
        close(&mut w, &mut check_cpu);
    }
    w
}

/// Evaluates an output check, measuring its CPU.
pub fn checked(check: impl FnOnce() -> bool) -> (bool, Duration) {
    let c0 = sys::process_cpu();
    let ok = check();
    (ok, sys::process_cpu() - c0)
}

fn fields_of(ds: &Dataset) -> Vec<(&str, &AmrField)> {
    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

/// Loaded inputs of one workload.
enum State {
    Pack(Vec<PackInput>),
    OpenQuery(Vec<PathBuf>, Refs),
    Scan(Vec<ScanStore>, Refs),
}

struct PackInput {
    ds: Dataset,
    reference: Vec<u8>,
    footer: Footer,
}

struct ScanStore {
    reader: StoreReader<FileSource>,
    /// A second source for the traced replay, so replay reads never
    /// touch the measured reader's counters.
    replay: FileSource,
    footer: Footer,
    recipe: RestoreRecipe,
}

impl State {
    fn load(workload: Workload, dir: &Path) -> Result<Self, String> {
        let refs = Refs::load(dir)?;
        Ok(match workload {
            Workload::Pack => State::Pack(
                refs.stores
                    .iter()
                    .map(|s| {
                        let ds = load_dataset(s.dump_path(dir)).map_err(|e| e.to_string())?;
                        let reference =
                            std::fs::read(s.store_path(dir)).map_err(|e| e.to_string())?;
                        let footer = Footer::parse(&reference)?;
                        Ok(PackInput {
                            ds,
                            reference,
                            footer,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            ),
            Workload::OpenQuery => State::OpenQuery(
                refs.stores.iter().map(|s| s.store_path(dir)).collect(),
                refs,
            ),
            Workload::Scan => {
                let stores = refs
                    .stores
                    .iter()
                    .map(|s| {
                        let path = s.store_path(dir);
                        let err = |e: zmesh_store::StoreError| e.to_string();
                        let reader =
                            StoreReader::open_source(FileSource::open(&path).map_err(err)?)
                                .map_err(err)?;
                        let footer =
                            Footer::parse(&std::fs::read(&path).map_err(|e| e.to_string())?)?;
                        let recipe = RestoreRecipe::build(
                            reader.tree(),
                            footer.header.policy,
                            footer.header.grouping(),
                        );
                        Ok(ScanStore {
                            reader,
                            replay: FileSource::open(&path).map_err(err)?,
                            footer,
                            recipe,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                State::Scan(stores, refs)
            }
            Workload::ServeMixed => return Err("serve_mixed has no worker".into()),
        })
    }

    /// Number of distinct ops in the rotation.
    fn rotation(&self) -> usize {
        match self {
            State::Pack(inputs) => inputs.len(),
            State::OpenQuery(_, refs) => refs.queries.len(),
            State::Scan(_, refs) => refs.scans.len(),
        }
    }

    /// The input slot op `i` draws from: ops of one slot share an input
    /// size, so their latencies form one population.
    fn slot(&self, i: u64) -> u32 {
        let k = i as usize % self.rotation();
        match self {
            State::OpenQuery(_, refs) => refs.queries[k].spec.store as u32,
            State::Pack(_) | State::Scan(..) => k as u32,
        }
    }

    fn op(&self, i: u64) -> Outcome {
        let k = i as usize % self.rotation();
        match self {
            State::Pack(inputs) => {
                let input = &inputs[k];
                let fields = fields_of(&input.ds);
                let t = Instant::now();
                let mut sink = VecSink::new();
                let r = StoreWriter::new(CompressionConfig::zmesh_default()).write_to_sink(
                    &fields,
                    &mut sink,
                    &StreamOptions::default(),
                );
                let latency = t.elapsed();
                let (ok, check_cpu) = checked(|| r.is_ok() && sink.bytes() == input.reference);
                Outcome {
                    latency,
                    completed: r.is_ok(),
                    ok,
                    check_cpu,
                }
            }
            State::OpenQuery(paths, refs) => {
                let rq = &refs.queries[k];
                let t = Instant::now();
                let r = FileSource::open(&paths[rq.spec.store])
                    .and_then(StoreReader::open_source)
                    .and_then(|reader| reader.query(&rq.spec.field, &rq.spec.query()));
                let latency = t.elapsed();
                let (ok, check_cpu) = checked(|| {
                    r.as_ref()
                        .is_ok_and(|r| digest(&r.storage_indices, &r.values) == rq.digest)
                });
                Outcome {
                    latency,
                    completed: r.is_ok(),
                    ok,
                    check_cpu,
                }
            }
            State::Scan(stores, refs) => {
                let (s, field, want) = &refs.scans[k];
                let t = Instant::now();
                let r = stores[*s].reader.decode_field(field);
                let latency = t.elapsed();
                let (ok, check_cpu) =
                    checked(|| r.as_ref().is_ok_and(|f| digest(&[], f.values()) == *want));
                Outcome {
                    latency,
                    completed: r.is_ok(),
                    ok,
                    check_cpu,
                }
            }
        }
    }

    /// The same op under the tracer: spans around each public store call,
    /// then a replay of the layer calls that store call makes internally,
    /// on the same inputs. Fills `facts` with per-op counters. The op's
    /// latency stops before the replay, so it times the real calls only.
    fn traced_op(&self, i: u64, tr: &mut Tracer, facts: &mut Facts) -> Outcome {
        let k = i as usize % self.rotation();
        tr.set_op(i);
        match self {
            State::Pack(inputs) => {
                let input = &inputs[k];
                let fields = fields_of(&input.ds);
                let t = Instant::now();
                let mut latency = Duration::ZERO;
                let (r, bytes) = tr.span("op", |tr| {
                    let mut sink = VecSink::new();
                    let r = tr.span("store.write_to_sink", |_| {
                        StoreWriter::new(CompressionConfig::zmesh_default()).write_to_sink(
                            &fields,
                            &mut sink,
                            &StreamOptions::default(),
                        )
                    });
                    latency = t.elapsed();
                    tr.span("replay", |tr| replay_pack(tr, input, &fields, facts));
                    (r, sink.into_bytes())
                });
                if let Ok(stats) = &r {
                    facts.write_stats.push(*stats);
                }
                let (ok, check_cpu) = checked(|| r.is_ok() && bytes == input.reference);
                Outcome {
                    latency,
                    completed: r.is_ok(),
                    ok,
                    check_cpu,
                }
            }
            State::OpenQuery(paths, refs) => {
                let rq = &refs.queries[k];
                let path = &paths[rq.spec.store];
                let t = Instant::now();
                let mut latency = Duration::ZERO;
                let r = tr.span("op", |tr| {
                    let reader = tr.span("store.open", |_| {
                        FileSource::open(path).and_then(StoreReader::open_source)
                    })?;
                    let result = tr.span("store.query", |_| {
                        reader.query(&rq.spec.field, &rq.spec.query())
                    })?;
                    latency = t.elapsed();
                    facts.bytes_read.push(reader.source().bytes_read() as f64);
                    facts.read_calls.push(reader.source().read_calls() as f64);
                    facts.chunks_decoded.push(result.chunks_decoded as f64);
                    let decoded = tr.span("replay", |tr| replay_open_query(tr, path, rq, facts));
                    facts
                        .efficiency
                        .push(result.values.len() as f64 / decoded.max(1) as f64);
                    Ok::<_, zmesh_store::StoreError>(result)
                });
                if latency.is_zero() {
                    latency = t.elapsed();
                }
                let (ok, check_cpu) = checked(|| {
                    r.as_ref()
                        .is_ok_and(|r| digest(&r.storage_indices, &r.values) == rq.digest)
                });
                Outcome {
                    latency,
                    completed: r.is_ok(),
                    ok,
                    check_cpu,
                }
            }
            State::Scan(stores, refs) => {
                let (s, field, want) = &refs.scans[k];
                let store = &stores[*s];
                let (bytes0, calls0) = (
                    store.reader.source().bytes_read(),
                    store.reader.source().read_calls(),
                );
                let t = Instant::now();
                let mut latency = Duration::ZERO;
                let r = tr.span("op", |tr| {
                    let r = tr.span("store.decode_field", |_| store.reader.decode_field(field));
                    latency = t.elapsed();
                    facts
                        .bytes_read
                        .push((store.reader.source().bytes_read() - bytes0) as f64);
                    facts
                        .read_calls
                        .push((store.reader.source().read_calls() - calls0) as f64);
                    tr.span("replay", |tr| replay_scan(tr, store, field, facts));
                    r
                });
                if let Ok(f) = &r {
                    let decoded = facts.last_decoded_values.max(1);
                    facts
                        .efficiency
                        .push(f.values().len() as f64 / decoded as f64);
                }
                let (ok, check_cpu) =
                    checked(|| r.as_ref().is_ok_and(|f| digest(&[], f.values()) == *want));
                Outcome {
                    latency,
                    completed: r.is_ok(),
                    ok,
                    check_cpu,
                }
            }
        }
    }
}

/// Per-op counters gathered beside the spans.
#[derive(Default)]
struct Facts {
    bytes_read: Vec<f64>,
    read_calls: Vec<f64>,
    chunks_decoded: Vec<f64>,
    efficiency: Vec<f64>,
    /// Cells of the tree each `amr.parse` span parsed.
    parse_cells: Vec<f64>,
    /// Bytes CRC-verified per op, and values decompressed per op.
    crc_bytes: Vec<f64>,
    decoded_values: Vec<f64>,
    ranges_count: Vec<f64>,
    last_decoded_values: usize,
    write_stats: Vec<StoreWriteStats>,
}

fn replay_pack(
    tr: &mut Tracer,
    input: &PackInput,
    fields: &[(&str, &AmrField)],
    facts: &mut Facts,
) {
    let header = &input.footer.header;
    let recipe = tr.span("core.recipe_build", |_| {
        RestoreRecipe::build(&input.ds.tree, header.policy, header.grouping())
    });
    let codec = codec_for(header.codec);
    let cv = input.footer.chunk_values();
    let mut crc_bytes = 0usize;
    for (name, field) in fields {
        let stream = tr.span("core.linearize", |_| recipe.apply(field.values()));
        let params = CodecParams {
            control: match input.footer.field(name).resolved_bound {
                Some(b) => ErrorControl::Absolute(b),
                None => CompressionConfig::zmesh_default().control,
            },
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };
        for chunk in stream.chunks(cv) {
            let bytes = tr.span("codecs.compress", |_| codec.compress(chunk, &params));
            if let Ok(bytes) = bytes {
                crc_bytes += bytes.len();
                std::hint::black_box(tr.span("kernels.crc", |_| crc32(&bytes)));
            }
        }
    }
    facts.crc_bytes.push(crc_bytes as f64);
}

/// Replays a cold open + query; returns the values the selected chunks
/// decode to.
fn replay_open_query(
    tr: &mut Tracer,
    path: &Path,
    rq: &fixture::RefQuery,
    facts: &mut Facts,
) -> usize {
    let Ok(src) = FileSource::open(path) else {
        return 0;
    };
    let Ok((header, fields, payload)) = tr.span("store.footer_parse", |_| open_parts_source(&src))
    else {
        return 0;
    };
    let Ok(tree) = tr.span("amr.parse", |_| {
        AmrTree::from_structure_bytes(&header.structure)
    }) else {
        return 0;
    };
    facts.parse_cells.push(tree.cell_count() as f64);
    let recipe = tr.span("core.recipe_build", |_| {
        RestoreRecipe::build(&tree, header.policy, header.grouping())
    });
    std::hint::black_box(recipe.len());
    let footer = Footer {
        header,
        fields,
        payload,
        tree: Arc::new(tree),
    };
    let (lo, hi) = (rq.spec.lo, rq.spec.hi);
    let ranges = tr.span("sfc.ranges", |_| fixture::query_ranges(&footer, lo, hi));
    facts.ranges_count.push(ranges.len() as f64);
    let entry = footer.field(&rq.spec.field);
    let codec = codec_for(footer.header.codec);
    let (mut crc_bytes, mut values) = (0usize, 0usize);
    for c in fixture::selected_chunks(entry, lo, hi, &ranges) {
        let range = footer.chunk_range(&entry.chunks[c]);
        let Ok(bytes) = tr.span("store.read", |_| {
            src.read_vec(range.start, (range.end - range.start) as usize)
        }) else {
            continue;
        };
        crc_bytes += bytes.len();
        std::hint::black_box(tr.span("kernels.crc", |_| crc32(&bytes)));
        if let Ok(v) = tr.span("codecs.decompress", |_| codec.decompress(&bytes)) {
            values += v.len();
        }
    }
    facts.crc_bytes.push(crc_bytes as f64);
    facts.decoded_values.push(values as f64);
    values
}

/// Replays a full-field decode: ranged reads, CRC of every data and
/// parity chunk, decompress, inverse permutation.
fn replay_scan(tr: &mut Tracer, store: &ScanStore, field: &str, facts: &mut Facts) {
    let footer = &store.footer;
    let entry = footer.field(field);
    let codec = codec_for(footer.header.codec);
    let src = &store.replay;
    let mut stream = Vec::with_capacity(footer.stream_len());
    let mut crc_bytes = 0usize;
    let read = |tr: &mut Tracer, range: std::ops::Range<u64>| {
        tr.span("store.read", |_| {
            src.read_vec(range.start, (range.end - range.start) as usize)
        })
    };
    for meta in &entry.chunks {
        let Ok(bytes) = read(tr, footer.chunk_range(meta)) else {
            continue;
        };
        crc_bytes += bytes.len();
        std::hint::black_box(tr.span("kernels.crc", |_| crc32(&bytes)));
        if let Ok(v) = tr.span("codecs.decompress", |_| codec.decompress(&bytes)) {
            stream.extend_from_slice(&v);
        }
    }
    for meta in &entry.parity {
        let lo = footer.payload.start + meta.offset;
        let Ok(bytes) = read(tr, lo..lo + meta.len) else {
            continue;
        };
        crc_bytes += bytes.len();
        std::hint::black_box(tr.span("kernels.crc", |_| crc32(&bytes)));
    }
    facts.crc_bytes.push(crc_bytes as f64);
    facts.decoded_values.push(stream.len() as f64);
    facts.chunks_decoded.push(entry.chunks.len() as f64);
    facts.last_decoded_values = stream.len();
    if stream.len() == store.recipe.len() {
        std::hint::black_box(tr.span("core.invert", |_| store.recipe.invert(&stream)));
    }
}

/// Per-layer metrics of a traced worker window.
fn layer_metrics(
    workload: Workload,
    tr: &Tracer,
    facts: &Facts,
    traced: &Window,
    untraced: &Window,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let ms = |name: &str| tr.median_self_ms(name);
    let per_op = |names: &[&str]| -> Vec<f64> {
        let cols: Vec<Vec<f64>> = names.iter().map(|n| tr.per_op_self_ns(n)).collect();
        let n = cols.iter().map(Vec::len).max().unwrap_or(0);
        (0..n)
            .map(|i| cols.iter().map(|c| c.get(i).copied().unwrap_or(0.0)).sum())
            .collect()
    };
    let med_ms_of = |v: Vec<f64>| median(&v) / 1e6;
    let sub =
        |a: Vec<f64>, b: Vec<f64>| -> Vec<f64> { a.iter().zip(&b).map(|(x, y)| x - y).collect() };

    let crc_ms = med_ms_of(per_op(&["kernels.crc"]));
    m.insert("kernels.crc_ms".into(), crc_ms);
    let crc_ns: Vec<f64> = per_op(&["kernels.crc"]);
    let gb_s: Vec<f64> = facts
        .crc_bytes
        .iter()
        .zip(&crc_ns)
        .filter(|(_, &t)| t > 0.0)
        .map(|(b, t)| b / t)
        .collect();
    m.insert("kernels.crc_gb_s".into(), median(&gb_s));
    m.insert("core.recipe_build_ms".into(), ms("core.recipe_build"));
    m.insert("core.invert_ms".into(), ms("core.invert"));
    m.insert(
        "codecs.compress_ms".into(),
        med_ms_of(per_op(&["codecs.compress"])),
    );
    let dec_ns = per_op(&["codecs.decompress"]);
    m.insert("codecs.decompress_ms".into(), med_ms_of(dec_ns.clone()));
    let mb_s: Vec<f64> = facts
        .decoded_values
        .iter()
        .zip(&dec_ns)
        .filter(|(_, &t)| t > 0.0)
        .map(|(v, t)| v * 8.0 / t * 1e3)
        .collect();
    m.insert("codecs.decompress_mb_s".into(), median(&mb_s));
    m.insert("store.bytes_read_per_op".into(), median(&facts.bytes_read));
    m.insert("store.read_calls_per_op".into(), median(&facts.read_calls));
    m.insert(
        "store.chunks_decoded_per_op".into(),
        median(&facts.chunks_decoded),
    );
    m.insert("store.decode_efficiency".into(), median(&facts.efficiency));

    match workload {
        Workload::Pack => {
            let st = &facts.write_stats;
            let col =
                |f: fn(&StoreWriteStats) -> f64| median(&st.iter().map(f).collect::<Vec<_>>());
            m.insert(
                "store.write_recipe_ms".into(),
                col(|s| s.recipe_ns as f64 / 1e6),
            );
            m.insert(
                "store.write_reorder_ms".into(),
                col(|s| s.reorder_ns as f64 / 1e6),
            );
            m.insert(
                "store.write_encode_ms".into(),
                col(|s| s.encode_ns as f64 / 1e6),
            );
            m.insert(
                "store.encode_parallelism".into(),
                col(|s| s.encode_parallelism()),
            );
            m.insert(
                "store.peak_buffer_kb".into(),
                col(|s| s.peak_buffer_bytes as f64 / 1024.0),
            );
            m.insert(
                "store.recipe_cache_hit_rate".into(),
                col(|s| f64::from(u8::from(s.recipe_cache_hit))),
            );
            let write = tr.per_op_total_ns("store.write_to_sink");
            let split: Vec<f64> = st
                .iter()
                .map(|s| (s.recipe_ns + s.reorder_ns + s.encode_ns) as f64)
                .collect();
            m.insert("unattributed_ms".into(), med_ms_of(sub(write, split)));
        }
        Workload::OpenQuery => {
            let open = tr.per_op_total_ns("store.open");
            let query = tr.per_op_total_ns("store.query");
            m.insert("store.open_ms".into(), med_ms_of(open.clone()));
            m.insert("store.query_ms".into(), med_ms_of(query.clone()));
            m.insert("store.footer_parse_ms".into(), ms("store.footer_parse"));
            let parse = tr.per_op_self_ns("amr.parse");
            m.insert("amr.parse_ms".into(), median(&parse) / 1e6);
            let per_cell: Vec<f64> = parse
                .iter()
                .zip(&facts.parse_cells)
                .map(|(t, c)| t / c)
                .collect();
            m.insert("amr.parse_ns_per_cell".into(), median(&per_cell));
            let ranges = tr.per_op_self_ns("sfc.ranges");
            m.insert("sfc.ranges_us".into(), median(&ranges) / 1e3);
            m.insert("sfc.ranges_count".into(), median(&facts.ranges_count));
            let open_parts = per_op(&["store.footer_parse", "amr.parse", "core.recipe_build"]);
            m.insert(
                "store.open_unattributed_ms".into(),
                med_ms_of(sub(open.clone(), open_parts)),
            );
            let op_ns: Vec<f64> = open.iter().zip(&query).map(|(a, b)| a + b).collect();
            let layers = per_op(&[
                "store.footer_parse",
                "amr.parse",
                "core.recipe_build",
                "sfc.ranges",
                "store.read",
                "kernels.crc",
                "codecs.decompress",
            ]);
            m.insert("unattributed_ms".into(), med_ms_of(sub(op_ns, layers)));
        }
        Workload::Scan => {
            let decode = tr.per_op_total_ns("store.decode_field");
            m.insert("store.decode_field_ms".into(), med_ms_of(decode.clone()));
            let layers = per_op(&[
                "store.read",
                "kernels.crc",
                "codecs.decompress",
                "core.invert",
            ]);
            m.insert("unattributed_ms".into(), med_ms_of(sub(decode, layers)));
        }
        Workload::ServeMixed => unreachable!("serve_mixed is traced by the generator"),
    }
    m.insert("latency_p50_ms".into(), untraced.p50_ms());
    m.insert("ops_s".into(), untraced.ops_per_s());
    m.insert("trace_overhead".into(), traced.p50_ms() - untraced.p50_ms());
    m
}

/// Entry point of the `worker` role.
pub fn main(
    workload: Workload,
    dir: &Path,
    seconds: f64,
    trace: bool,
    trace_file: &Path,
) -> Result<(), String> {
    let state = State::load(workload, dir)?;
    // Warm-up: one pass over the rotation (capped), untimed.
    for i in 0..state.rotation().min(8) as u64 {
        state.op(i);
    }
    // A block holds every input of the rotation's slots twice, so each
    // block costs the same mix.
    let block_ops = 2
        * (0..state.rotation() as u64)
            .map(|i| state.slot(i))
            .max()
            .map_or(1, |m| u64::from(m) + 1);
    println!("ready {}", sys::process_cpu().as_nanos());
    let mut line = String::new();
    if std::io::stdin()
        .lock()
        .read_line(&mut line)
        .map_err(|e| e.to_string())?
        == 0
        || line.trim() != "go"
    {
        return Ok(());
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    if trace {
        let slot = |i| state.slot(i);
        let untraced = run_window(seconds / 2.0, block_ops, slot, |i| state.op(i));
        let mut tr = Tracer::default();
        let mut facts = Facts::default();
        let traced = run_window(seconds / 2.0, block_ops, slot, |i| {
            state.traced_op(i, &mut tr, &mut facts)
        });
        tr.write_jsonl(trace_file).map_err(|e| e.to_string())?;
        out.extend(layer_metrics(workload, &tr, &facts, &traced, &untraced));
        put_window(&mut out, &merge(untraced, traced));
    } else {
        let w = run_window(seconds, block_ops, |i| state.slot(i), |i| state.op(i));
        put_window(&mut out, &w);
    }
    out.insert("rss_bytes".into(), zmesh_store::process_peak_rss() as f64);
    let body: Vec<String> = out.iter().map(|(k, v)| format!("{k}={v:e}")).collect();
    println!("result {}", body.join(" "));
    Ok(())
}

fn merge(a: Window, b: Window) -> Window {
    let mut lat = a.latencies_ns;
    lat.extend(b.latencies_ns);
    let mut slots = a.slots;
    slots.extend(b.slots);
    let mut blocks = a.blocks;
    blocks.extend(b.blocks);
    Window {
        attempted: a.attempted + b.attempted,
        completed: a.completed + b.completed,
        ok: a.ok + b.ok,
        latencies_ns: lat,
        slots,
        blocks,
    }
}

pub fn put_window(out: &mut BTreeMap<String, f64>, w: &Window) {
    out.insert("attempted".into(), w.attempted as f64);
    out.insert("completed".into(), w.completed as f64);
    out.insert("ok".into(), w.ok as f64);
    let cpu: Vec<f64> = w.blocks.iter().filter_map(Block::cpu_ns_per_op).collect();
    out.insert("cpu_ns_per_op".into(), median(&cpu));
}
