//! The shared fixture: Standard-scale AMR dumps, their packed stores, the
//! seeded query pools, and the reference outputs every op is checked
//! against.
//!
//! The harness builds all of it during set-up and writes it to a fixture
//! directory; worker and daemon processes load it from there, so the
//! program under test only ever sees the generated bboxes and zipf
//! sequence, never the seed.

use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zmesh::{CompressionConfig, GroupingMode};
use zmesh_amr::{datasets, save_dataset, AmrField, AmrTree, Dim, StorageMode};
use zmesh_sfc::{bbox_ranges_2d, bbox_ranges_3d};
use zmesh_store::{
    open_parts, ChunkMeta, FieldEntry, Query, StoreHeader, StoreReader, StoreWriter, StreamOptions,
    VecSink,
};

/// The four presets of the fixture (`kh2d` is left out: it alone takes
/// ~12 s to generate).
pub const PRESETS: [&str; 4] = ["blast2d", "front2d", "cluster3d", "turb3d"];

/// Queries in the `open_query` pool.
const OPEN_QUERY_POOL: usize = 64;
/// Domain fractions of the `serve_mixed` bbox sizes.
const SERVE_FRACTIONS: [f64; 4] = [1.0 / 256.0, 1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0];
/// Distinct bbox positions per (store, field, size) combination in the
/// serve pool.
pub const SERVE_POSITIONS: usize = 16;

/// Order-sensitive 64-bit digest of query output (indices, then value
/// bits). Any changed index or value bit changes it.
pub fn digest(indices: &[u32], values: &[f64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64 ^ (indices.len() as u64) ^ ((values.len() as u64) << 32);
    let mut mix = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    for &i in indices {
        mix(u64::from(i));
    }
    for v in values {
        mix(v.to_bits());
    }
    h
}

/// One bbox query of a pool.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub store: usize,
    pub field: String,
    pub lo: [u32; 3],
    pub hi: [u32; 3],
}

impl QuerySpec {
    pub fn query(&self) -> Query {
        Query::bbox(self.lo, self.hi)
    }

    /// The `bbox=` parameter of the daemon's query endpoint.
    pub fn bbox_param(&self, dim3: bool) -> String {
        let (lo, hi) = (self.lo, self.hi);
        if dim3 {
            format!(
                "{},{},{}:{},{},{}",
                lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]
            )
        } else {
            format!("{},{}:{},{}", lo[0], lo[1], hi[0], hi[1])
        }
    }
}

/// A pool query with its checked reference digest.
#[derive(Debug, Clone)]
pub struct RefQuery {
    pub spec: QuerySpec,
    pub digest: u64,
}

/// What the fixture directory holds for one preset.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    pub name: String,
    pub dim3: bool,
    pub fields: Vec<String>,
}

impl StoreEntry {
    pub fn store_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.zms", self.name))
    }

    pub fn dump_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.zmd", self.name))
    }
}

/// Everything a worker or the serve generator needs, as written to
/// `refs.txt` in the fixture directory.
#[derive(Debug, Clone, Default)]
pub struct Refs {
    pub stores: Vec<StoreEntry>,
    /// Full-field digests, one per (store, field).
    pub scans: Vec<(usize, String, u64)>,
    /// The workload's query pool, in pool order.
    pub queries: Vec<RefQuery>,
    /// Decoded-chunk LRU budget for the daemon.
    pub cache_bytes: u64,
    /// Raw field bytes over store bytes across the fixture.
    pub ratio: f64,
}

impl Refs {
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        out.push_str(&format!(
            "cache_bytes {}\nratio {:e}\n",
            self.cache_bytes, self.ratio
        ));
        for s in &self.stores {
            out.push_str(&format!(
                "store {} {} {}\n",
                s.name,
                u8::from(s.dim3),
                s.fields.join(",")
            ));
        }
        for (store, field, d) in &self.scans {
            out.push_str(&format!("scan {store} {field} {d:016x}\n"));
        }
        for q in &self.queries {
            let s = &q.spec;
            out.push_str(&format!(
                "query {} {} {} {} {} {} {} {} {:016x}\n",
                s.store, s.field, s.lo[0], s.lo[1], s.lo[2], s.hi[0], s.hi[1], s.hi[2], q.digest
            ));
        }
        let mut f = std::fs::File::create(dir.join("refs.txt"))?;
        f.write_all(out.as_bytes())
    }

    pub fn load(dir: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(dir.join("refs.txt")).map_err(|e| e.to_string())?;
        let mut refs = Refs::default();
        for line in text.lines() {
            let t: Vec<&str> = line.split(' ').collect();
            let num = |i: usize| -> Result<u64, String> {
                t.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("refs.txt: bad line {line:?}"))
            };
            let hex = |i: usize| -> Result<u64, String> {
                t.get(i)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| format!("refs.txt: bad line {line:?}"))
            };
            match t[0] {
                "cache_bytes" => refs.cache_bytes = num(1)?,
                "ratio" => {
                    refs.ratio = t
                        .get(1)
                        .and_then(|s| s.parse().ok())
                        .ok_or("refs.txt: ratio")?
                }
                "store" if t.len() == 4 => refs.stores.push(StoreEntry {
                    name: t[1].to_string(),
                    dim3: t[2] == "1",
                    fields: t[3].split(',').map(String::from).collect(),
                }),
                "scan" if t.len() == 4 => {
                    refs.scans
                        .push((num(1)? as usize, t[2].to_string(), hex(3)?))
                }
                "query" if t.len() == 10 => refs.queries.push(RefQuery {
                    spec: QuerySpec {
                        store: num(1)? as usize,
                        field: t[2].to_string(),
                        lo: [num(3)? as u32, num(4)? as u32, num(5)? as u32],
                        hi: [num(6)? as u32, num(7)? as u32, num(8)? as u32],
                    },
                    digest: hex(9)?,
                }),
                _ => return Err(format!("refs.txt: bad line {line:?}")),
            }
        }
        Ok(refs)
    }
}

/// A parsed store footer plus the tree it describes: enough to replay
/// the reader's chunk selection and decode from outside the reader.
pub struct Footer {
    pub header: StoreHeader,
    pub fields: Vec<FieldEntry>,
    pub payload: Range<u64>,
    pub tree: Arc<AmrTree>,
}

impl Footer {
    pub fn parse(bytes: &[u8]) -> Result<Self, String> {
        let (header, fields, payload) = open_parts(bytes).map_err(|e| e.to_string())?;
        let tree = AmrTree::from_structure_bytes(&header.structure).map_err(|e| e.to_string())?;
        Ok(Self {
            header,
            fields,
            payload: payload.start as u64..payload.end as u64,
            tree: Arc::new(tree),
        })
    }

    pub fn field(&self, name: &str) -> &FieldEntry {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .expect("pool field exists in store")
    }

    /// Values per chunk (the last chunk may be short).
    pub fn chunk_values(&self) -> usize {
        (self.header.chunk_target_bytes as usize / 8).max(1)
    }

    /// Length of the reordered stream.
    pub fn stream_len(&self) -> usize {
        match self.header.grouping() {
            GroupingMode::LeafOnly => self.tree.leaf_count(),
            GroupingMode::Chained => self.tree.cell_count(),
        }
    }

    /// Values in chunk `i`.
    pub fn chunk_len(&self, i: usize) -> usize {
        let cv = self.chunk_values();
        self.stream_len().saturating_sub(i * cv).min(cv)
    }

    /// Absolute byte range of a chunk's payload.
    pub fn chunk_range(&self, meta: &ChunkMeta) -> Range<u64> {
        let lo = self.payload.start + meta.offset;
        lo..lo + meta.len
    }
}

/// The curve ranges a bbox query decomposes into — the same call, on the
/// same clamped box, that the reader makes.
pub fn query_ranges(footer: &Footer, lo: [u32; 3], hi: [u32; 3]) -> Vec<Range<u64>> {
    let tree = &footer.tree;
    let bits = tree.finest_bits();
    let side = 1u64 << bits;
    let c = |v: u32| u64::from(v).min(side - 1);
    let kind = footer
        .header
        .policy
        .curve()
        .expect("fixture stores are curve-ordered");
    match tree.dim() {
        Dim::D2 => bbox_ranges_2d(kind, bits, (c(lo[0]), c(lo[1])), (c(hi[0]), c(hi[1]))),
        Dim::D3 => bbox_ranges_3d(
            kind,
            bits,
            (c(lo[0]), c(lo[1]), c(lo[2])),
            (c(hi[0]), c(hi[1]), c(hi[2])),
        ),
    }
}

/// Chunks of `entry` a bbox query over all levels decodes, given its
/// curve ranges.
pub fn selected_chunks(
    entry: &FieldEntry,
    lo: [u32; 3],
    hi: [u32; 3],
    ranges: &[Range<u64>],
) -> Vec<usize> {
    entry
        .chunks
        .iter()
        .enumerate()
        .filter(|(_, m)| m.level_mask != 0 && m.overlaps_bbox(lo, hi) && m.overlaps_ranges(ranges))
        .map(|(i, _)| i)
        .collect()
}

/// A random bbox covering about `fraction` of the finest-level domain.
fn random_bbox(rng: &mut StdRng, tree: &AmrTree, fraction: f64) -> ([u32; 3], [u32; 3]) {
    let dims = tree.level_dims(tree.max_level());
    let rank = tree.dim().rank();
    let mut lo = [0u32; 3];
    let mut hi = [0u32; 3];
    for a in 0..rank {
        let edge = ((dims[a] as f64) * fraction.powf(1.0 / rank as f64))
            .round()
            .max(1.0) as u64;
        let start = rng.gen_range(0..dims[a] as u64 - edge + 1);
        lo[a] = start as u32;
        hi[a] = (start + edge - 1) as u32;
    }
    (lo, hi)
}

/// The workloads the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pack,
    OpenQuery,
    Scan,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "pack" => Some(Self::Pack),
            "open_query" => Some(Self::OpenQuery),
            "scan" => Some(Self::Scan),
            "serve_mixed" => Some(Self::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Pack => "pack",
            Self::OpenQuery => "open_query",
            Self::Scan => "scan",
            Self::ServeMixed => "serve_mixed",
        }
    }
}

/// Generates the presets, packs them, builds the workload's query pool,
/// and checks every reference against the original values within the
/// footer's error bound. Writes dumps, stores, and `refs.txt` to `dir`.
///
/// With `corrupt`, one reference is deliberately damaged after the
/// checks, so the op checker must reject the ops that use it.
pub fn build(dir: &Path, workload: Workload, seed: u64, corrupt: bool) -> Result<Refs, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut refs = Refs::default();
    let mut stores = Vec::new();
    let (mut raw, mut packed) = (0usize, 0usize);
    for name in PRESETS {
        let ds = datasets::by_name(name, StorageMode::AllCells, datasets::Scale::Standard)
            .ok_or_else(|| format!("unknown preset {name}"))?;
        let fields: Vec<(&str, &AmrField)> =
            ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
        let mut sink = VecSink::new();
        let stats = StoreWriter::new(CompressionConfig::zmesh_default())
            .write_to_sink(&fields, &mut sink, &StreamOptions::default())
            .map_err(|e| format!("pack {name}: {e}"))?;
        let bytes = sink.into_bytes();
        raw += stats.raw_bytes;
        packed += bytes.len();
        let entry = StoreEntry {
            name: name.to_string(),
            dim3: ds.tree.dim() == Dim::D3,
            fields: ds.fields.iter().map(|(n, _)| n.clone()).collect(),
        };
        if workload == Workload::Pack {
            save_dataset(entry.dump_path(dir), &ds).map_err(|e| format!("dump {name}: {e}"))?;
        }
        std::fs::write(entry.store_path(dir), &bytes).map_err(|e| e.to_string())?;
        refs.stores.push(entry);
        stores.push((ds, bytes));
    }
    refs.ratio = raw as f64 / packed as f64;

    // Full-field references: decode in memory, check every value against
    // the original within the footer's bound, keep the digest.
    for (s, (ds, bytes)) in stores.iter().enumerate() {
        let reader = StoreReader::open(bytes).map_err(|e| e.to_string())?;
        for (fname, original) in &ds.fields {
            let decoded = reader.decode_field(fname).map_err(|e| e.to_string())?;
            let bound = bound_of(&reader, fname)?;
            check_within(original.values(), decoded.values(), bound, fname)?;
            if workload == Workload::Scan {
                refs.scans
                    .push((s, fname.clone(), digest(&[], decoded.values())));
            }
        }
    }

    let specs: Vec<QuerySpec> = match workload {
        Workload::OpenQuery => (0..OPEN_QUERY_POOL)
            .map(|i| {
                let store = i % stores.len();
                let ds = &stores[store].0;
                let field = ds.fields[rng.gen_range(0..ds.fields.len())].0.clone();
                let (lo, hi) = random_bbox(&mut rng, &ds.tree, 1.0 / 256.0);
                QuerySpec {
                    store,
                    field,
                    lo,
                    hi,
                }
            })
            .collect(),
        Workload::ServeMixed => {
            // Zipf ranks pick a (store, field, size) combination in a fixed
            // Latin-square order, so every four consecutive ranks cover
            // all stores and all sizes and the hot head has the same shape
            // under any seed. The seed places each combination's
            // SERVE_POSITIONS bboxes; a caller picks one uniformly.
            let n = stores.len();
            let combos = n * SERVE_FRACTIONS.len() * 2;
            let mut pool = Vec::with_capacity(combos * SERVE_POSITIONS);
            for r in 0..combos {
                let store = r % n;
                let fraction = SERVE_FRACTIONS[(r / n + r) % SERVE_FRACTIONS.len()];
                let ds = &stores[store].0;
                let field = ds.fields[(r / (n * SERVE_FRACTIONS.len())) % ds.fields.len()]
                    .0
                    .clone();
                for _ in 0..SERVE_POSITIONS {
                    let (lo, hi) = random_bbox(&mut rng, &ds.tree, fraction);
                    pool.push(QuerySpec {
                        store,
                        field: field.clone(),
                        lo,
                        hi,
                    });
                }
            }
            pool
        }
        Workload::Pack | Workload::Scan => Vec::new(),
    };

    // Query references, checked cell by cell against the originals; the
    // serve pool also sizes the daemon's chunk cache from the distinct
    // chunks it touches.
    let footers: Vec<Footer> = stores
        .iter()
        .map(|(_, bytes)| Footer::parse(bytes))
        .collect::<Result<_, _>>()?;
    let readers: Vec<StoreReader<_>> = stores
        .iter()
        .map(|(_, bytes)| StoreReader::open(bytes).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut touched = std::collections::BTreeSet::new();
    for spec in specs {
        let (ds, _) = &stores[spec.store];
        let reader = &readers[spec.store];
        let result = reader
            .query(&spec.field, &spec.query())
            .map_err(|e| e.to_string())?;
        if result.values.is_empty() {
            return Err(format!("empty reference query {spec:?}"));
        }
        let original = ds
            .fields
            .iter()
            .find(|(n, _)| *n == spec.field)
            .map(|(_, f)| f.values())
            .expect("pool field exists");
        let expect: Vec<f64> = result
            .storage_indices
            .iter()
            .map(|&s| original[s as usize])
            .collect();
        check_within(
            &expect,
            &result.values,
            bound_of(reader, &spec.field)?,
            &spec.field,
        )?;
        let footer = &footers[spec.store];
        let entry = footer.field(&spec.field);
        let ranges = query_ranges(footer, spec.lo, spec.hi);
        for c in selected_chunks(entry, spec.lo, spec.hi, &ranges) {
            touched.insert((spec.store, spec.field.clone(), c, footer.chunk_len(c)));
        }
        refs.queries.push(RefQuery {
            digest: digest(&result.storage_indices, &result.values),
            spec,
        });
    }
    let touched_bytes: u64 = touched.iter().map(|t| t.3 as u64 * 8).sum();
    refs.cache_bytes = (touched_bytes / 2).max(1);

    if corrupt {
        if let Some(q) = refs.queries.first_mut() {
            q.digest ^= 1;
        }
        if let Some(s) = refs.scans.first_mut() {
            s.2 ^= 1;
        }
        if workload == Workload::Pack {
            let path = refs.stores[0].store_path(dir);
            let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
        }
    }
    refs.save(dir).map_err(|e| e.to_string())?;
    Ok(refs)
}

fn bound_of<S: zmesh_store::ByteSource>(
    reader: &StoreReader<S>,
    field: &str,
) -> Result<f64, String> {
    reader
        .fields()
        .iter()
        .find(|f| f.name == field)
        .and_then(|f| f.resolved_bound)
        .ok_or_else(|| format!("field {field} has no resolved bound"))
}

fn check_within(original: &[f64], decoded: &[f64], bound: f64, field: &str) -> Result<(), String> {
    if original.len() != decoded.len() {
        return Err(format!(
            "{field}: {} values decoded, {} expected",
            decoded.len(),
            original.len()
        ));
    }
    let slack = bound * (1.0 + 1e-9);
    match original
        .iter()
        .zip(decoded)
        .position(|(a, b)| (a - b).abs() > slack)
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{field}: value {i} off by {:e}, bound {bound:e}",
            (original[i] - decoded[i]).abs()
        )),
    }
}
