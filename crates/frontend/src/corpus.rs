//! Streaming corpus pipeline: iterate modules out of directories,
//! concatenated corpus files, NDJSON manifests, or `RLCP` containers,
//! merge them into bounded batches, and roll each batch through the
//! parallel driver so peak memory stays under a budget regardless of
//! corpus size.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rolag::{
    roll_module_par, DriverOptions, DriverReport, MemoStore, RolagOptions, RolagStats, Workers,
};
use rolag_ir::module::{GlobalData, GlobalInit};
use rolag_ir::{Effects, Function, Module};
use rolag_par::WorkerPool;

use crate::{Diagnostic, FrontendKind};

/// Magic bytes of a corpus container file: a sequence of u32-LE
/// length-prefixed module blobs (each blob is native text, `RLIR`
/// binary, or LLVM text — frontends are chosen per blob).
pub const CONTAINER_MAGIC: [u8; 4] = *b"RLCP";

/// One module's worth of corpus input.
pub struct CorpusItem {
    /// Where the bytes came from (path, or `path#index` for packed
    /// sources) — used in diagnostics.
    pub origin: String,
    /// Raw module bytes, handed to a frontend.
    pub bytes: Vec<u8>,
}

/// A streaming corpus source.
pub type CorpusIter = Box<dyn Iterator<Item = io::Result<CorpusItem>>>;

/// Opens `path` as a streaming corpus:
///
/// * a directory — every `.rir`/`.rlir`/`.ll` file under it, sorted;
/// * an `RLCP` container — each length-prefixed blob;
/// * an `.ndjson`/`.jsonl` manifest — one `{"path": "..."}` per line,
///   relative to the manifest's directory;
/// * a concatenated text corpus — split at `module "` / `; ModuleID`
///   header lines;
/// * anything else — a single module.
pub fn open_corpus(path: &Path) -> io::Result<CorpusIter> {
    let meta = fs::metadata(path)?;
    if meta.is_dir() {
        let mut files = Vec::new();
        collect_module_files(path, &mut files)?;
        files.sort();
        let iter = files.into_iter().map(|p| {
            let bytes = fs::read(&p)?;
            Ok(CorpusItem {
                origin: p.display().to_string(),
                bytes,
            })
        });
        return Ok(Box::new(iter));
    }
    let mut file = File::open(path)?;
    let mut magic = [0u8; 4];
    let n = file.read(&mut magic)?;
    if n == 4 && magic == CONTAINER_MAGIC {
        return Ok(Box::new(ContainerSource {
            origin: path.display().to_string(),
            reader: BufReader::new(file),
            index: 0,
            done: false,
        }));
    }
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    if ext == "ndjson" || ext == "jsonl" {
        let base = path.parent().unwrap_or(Path::new(".")).to_path_buf();
        let reader = BufReader::new(File::open(path)?);
        return Ok(Box::new(ManifestSource {
            origin: path.display().to_string(),
            base,
            lines: reader.lines(),
            line_no: 0,
        }));
    }
    let bytes = fs::read(path)?;
    if bytes.starts_with(&rolag_ir::serialization::MAGIC) || !is_concatenated_text(&bytes) {
        let origin = path.display().to_string();
        return Ok(Box::new(std::iter::once(Ok(CorpusItem { origin, bytes }))));
    }
    Ok(Box::new(ConcatTextSource::new(
        path.display().to_string(),
        bytes,
    )))
}

fn collect_module_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if entry.file_type()?.is_dir() {
            collect_module_files(&p, out)?;
        } else if matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("rir") | Some("rlir") | Some("ll")
        ) {
            out.push(p);
        }
    }
    Ok(())
}

/// True when a text byte has more than one module header line, i.e. the
/// file is a concatenated corpus rather than a single module.
fn is_concatenated_text(bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    text.lines().filter(|l| is_module_header(l)).count() > 1
}

fn is_module_header(line: &str) -> bool {
    line.starts_with("module \"") || line.starts_with("; ModuleID")
}

struct ConcatTextSource {
    origin: String,
    lines: std::vec::IntoIter<String>,
    pending: Option<String>,
    index: usize,
}

impl ConcatTextSource {
    fn new(origin: String, bytes: Vec<u8>) -> Self {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        ConcatTextSource {
            origin,
            lines: lines.into_iter(),
            pending: None,
            index: 0,
        }
    }
}

impl Iterator for ConcatTextSource {
    type Item = io::Result<CorpusItem>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut chunk = String::new();
        if let Some(first) = self.pending.take() {
            chunk.push_str(&first);
            chunk.push('\n');
        }
        for line in self.lines.by_ref() {
            if is_module_header(&line) && !chunk.trim().is_empty() {
                self.pending = Some(line);
                break;
            }
            chunk.push_str(&line);
            chunk.push('\n');
        }
        if chunk.trim().is_empty() {
            return None;
        }
        let origin = format!("{}#{}", self.origin, self.index);
        self.index += 1;
        Some(Ok(CorpusItem {
            origin,
            bytes: chunk.into_bytes(),
        }))
    }
}

struct ContainerSource {
    origin: String,
    reader: BufReader<File>,
    index: usize,
    done: bool,
}

impl Iterator for ContainerSource {
    type Item = io::Result<CorpusItem>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut len = [0u8; 4];
        match self.reader.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.done = true;
                return None;
            }
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        }
        let mut bytes = vec![0u8; u32::from_le_bytes(len) as usize];
        if let Err(e) = self.reader.read_exact(&mut bytes) {
            self.done = true;
            return Some(Err(e));
        }
        let origin = format!("{}#{}", self.origin, self.index);
        self.index += 1;
        Some(Ok(CorpusItem { origin, bytes }))
    }
}

/// Appends u32-LE length-prefixed module blobs to an `RLCP` container.
pub struct ContainerWriter<W: Write> {
    w: W,
}

impl<W: Write> ContainerWriter<W> {
    /// Starts a container on `w`, writing the magic.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(&CONTAINER_MAGIC)?;
        Ok(ContainerWriter { w })
    }

    /// Appends one module blob.
    pub fn append(&mut self, blob: &[u8]) -> io::Result<()> {
        self.w.write_all(&(blob.len() as u32).to_le_bytes())?;
        self.w.write_all(blob)
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

struct ManifestSource {
    origin: String,
    base: PathBuf,
    lines: io::Lines<BufReader<File>>,
    line_no: usize,
}

impl Iterator for ManifestSource {
    type Item = io::Result<CorpusItem>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(l) => l,
                Err(e) => return Some(Err(e)),
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            let Some(rel) = json_string_field(&line, "path") else {
                return Some(Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}:{}: manifest line has no \"path\"",
                        self.origin, self.line_no
                    ),
                )));
            };
            let p = self.base.join(rel);
            return Some(fs::read(&p).map(|bytes| CorpusItem {
                origin: p.display().to_string(),
                bytes,
            }));
        }
    }
}

/// Extracts a string field from one line of minimal JSON (enough for
/// `{"path": "...", ...}` manifests; handles `\"` and `\\` escapes).
fn json_string_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(ch) = chars.next() {
        match ch {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            other => out.push(other),
        }
    }
    None
}

/// Knobs for [`roll_corpus`].
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Peak-memory budget in bytes; batches are sized so the resident
    /// set stays under it. Default 1 GiB.
    pub mem_budget: u64,
    /// Worker count for the parallel driver; `0` means one per core.
    pub jobs: usize,
    /// Attach the cross-batch [`MemoStore`], so a definition whose closure
    /// key an earlier batch already rolled is replayed instead of rolled.
    /// Duplicates within one batch share a roll either way.
    pub memoize: bool,
    /// Frontend selection for corpus items.
    pub frontend: FrontendKind,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            mem_budget: 1 << 30,
            jobs: 0,
            memoize: true,
            frontend: FrontendKind::Auto,
        }
    }
}

/// Parses a [`CorpusOptions::mem_budget`] spelling: a byte count with an
/// optional `K`, `M` or `G` suffix (either case, binary multiples), with
/// surrounding whitespace ignored. Zero, a bare suffix and a product that
/// overflows `u64` are errors.
pub fn parse_mem_budget(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(1 << shift))
        .filter(|&b| b > 0)
        .ok_or_else(|| format!("invalid memory budget {s:?}"))
}

impl CorpusOptions {
    /// Worker count the driver will actually use: the size of the
    /// [`WorkerPool`] that [`roll_corpus`] spawns for `jobs`.
    pub fn effective_jobs(&self) -> u64 {
        rolag_par::requested_jobs(self.jobs) as u64
    }

    /// Input bytes per batch. In-memory IR expands the text by more than
    /// an order of magnitude (measured ~30x peak including driver
    /// scratch), so the budget is divided by an expansion factor times
    /// one share for the merged batch module and one per worker (a
    /// body-less copy of the batch plus the bodies the worker rolls and
    /// the entries it captures), clamped to stay useful at both extremes.
    pub fn batch_budget(&self) -> u64 {
        let denom = 64 * (self.effective_jobs() + 1);
        (self.mem_budget / denom).clamp(1 << 17, 1 << 23)
    }

    /// Cross-batch memo store capacity, scaled to the budget so the
    /// store itself cannot blow it (entries hold whole rolled bodies,
    /// which for generator-sized functions run to tens of kilobytes).
    pub fn store_capacity(&self) -> usize {
        (self.mem_budget >> 20).clamp(64, 1 << 16) as usize
    }
}

/// Whole-corpus outcome of [`roll_corpus`].
#[derive(Debug, Clone, Default)]
pub struct CorpusReport {
    /// Corpus items (modules) read.
    pub items: u64,
    /// Items whose frontend parse failed module-fatally.
    pub parse_failures: u64,
    /// Function definitions that reached the driver.
    pub functions: u64,
    /// Definitions whose rolled body differs from the input.
    pub changed: u64,
    /// Functions skipped by frontends (out-of-subset imports).
    pub skipped: u64,
    /// Skip counts by reason code.
    pub skip_reasons: BTreeMap<String, u64>,
    /// Batches rolled.
    pub batches: u64,
    /// Aggregated pass statistics across all batches.
    pub stats: RolagStats,
    /// Definitions served by in-batch memoization.
    pub cache_hits: u64,
    /// Definitions replayed from the cross-batch store.
    pub store_hits: u64,
    /// Input bytes consumed.
    pub bytes_in: u64,
    /// Process peak resident set (`VmHWM`), when the platform exposes
    /// it; `0` otherwise.
    pub peak_rss_bytes: u64,
    /// End-to-end wall clock, nanoseconds.
    pub wall_ns: u64,
    /// First few module-fatal diagnostics, rendered.
    pub diagnostics: Vec<String>,
}

impl CorpusReport {
    /// Estimated text bytes saved by rolling.
    pub fn bytes_saved(&self) -> u64 {
        self.stats.size_before.saturating_sub(self.stats.size_after)
    }

    /// Fraction of driver-visible definitions that changed.
    pub fn rolled_fraction(&self) -> f64 {
        if self.functions == 0 {
            return 0.0;
        }
        self.changed as f64 / self.functions as f64
    }

    /// Definitions processed per wall-clock second.
    pub fn funcs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.functions as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Process peak resident set in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

const MAX_DIAGNOSTICS: usize = 20;

/// Accumulates parsed modules into one batch module, deduplicating
/// declarations and renaming colliding definitions/globals.
struct BatchBuilder {
    module: Module,
    bytes: u64,
    merged: u64,
}

fn weaker(a: Effects, b: Effects) -> Effects {
    use Effects::*;
    match (a, b) {
        (ReadWrite, _) | (_, ReadWrite) => ReadWrite,
        (ReadOnly, _) | (_, ReadOnly) => ReadOnly,
        _ => ReadNone,
    }
}

impl BatchBuilder {
    fn new(index: u64) -> Self {
        BatchBuilder {
            module: Module::new(format!("corpus.batch{index}")),
            bytes: 0,
            merged: 0,
        }
    }

    /// Merges `m` into the batch, moving its function bodies in.
    /// Declarations with a matching name and signature are shared;
    /// colliding definitions and globals are renamed with a `.m{n}` suffix.
    fn merge(&mut self, m: Module) {
        let tmap = self.module.types.absorb(&m.types, 0);
        let remap_t = |t: rolag_ir::TypeId| tmap[t.index()];

        let mut gmap = Vec::with_capacity(m.num_globals());
        for gid in m.global_ids() {
            let g = m.global(gid);
            let mut data = GlobalData {
                name: g.name.clone(),
                ty: remap_t(g.ty),
                init: match &g.init {
                    GlobalInit::Ints { elem_ty, values } => GlobalInit::Ints {
                        elem_ty: remap_t(*elem_ty),
                        values: values.clone(),
                    },
                    other => other.clone(),
                },
                is_const: g.is_const,
            };
            if let Some(existing) = self.module.global_by_name(&data.name) {
                if *self.module.global(existing) == data {
                    gmap.push(existing);
                    continue;
                }
                data.name = self.rename(&data.name);
            }
            gmap.push(self.module.add_global(data));
        }

        let mut fmap = Vec::with_capacity(m.num_funcs());
        // The batch slot each source definition moves into.
        let mut defs = vec![None; m.num_funcs()];
        for fid in m.func_ids() {
            let f = m.func(fid);
            let sig: Vec<_> = f.param_tys().iter().map(|&t| remap_t(t)).collect();
            let ret = remap_t(f.ret_ty);
            if f.is_declaration {
                if let Some(existing) = self.module.func_by_name(&f.name) {
                    let ef = self.module.func(existing);
                    if ef.is_declaration && ef.param_tys() == sig.as_slice() && ef.ret_ty == ret {
                        let eff = weaker(ef.effects, f.effects);
                        self.module.func_mut(existing).effects = eff;
                        fmap.push(existing);
                        continue;
                    }
                    let name = self.rename(&f.name);
                    fmap.push(
                        self.module
                            .add_func(Function::declare(name, sig, ret, f.effects)),
                    );
                } else {
                    fmap.push(self.module.add_func(Function::declare(
                        f.name.clone(),
                        sig,
                        ret,
                        f.effects,
                    )));
                }
            } else {
                let name = if self.module.func_by_name(&f.name).is_some() {
                    self.rename(&f.name)
                } else {
                    f.name.clone()
                };
                // Placeholder declaration so forward/self references and
                // later modules resolve; replaced below.
                let bid =
                    self.module
                        .add_func(Function::declare(name, sig, ret, Effects::ReadWrite));
                fmap.push(bid);
                defs[fid.index()] = Some(bid);
            }
        }
        for (mut func, bid) in m.into_funcs().into_iter().zip(defs) {
            let Some(bid) = bid else {
                continue;
            };
            func.name = self.module.func(bid).name.clone();
            func.is_declaration = false;
            func.effects = Effects::ReadWrite;
            func.remap(Some(&tmap), |g| gmap[g.index()], |f| fmap[f.index()]);
            self.module.replace_func(bid, func);
        }
        self.merged += 1;
    }

    fn rename(&self, base: &str) -> String {
        let mut n = self.merged;
        loop {
            let cand = format!("{base}.m{n}");
            if self.module.func_by_name(&cand).is_none()
                && self.module.global_by_name(&cand).is_none()
            {
                return cand;
            }
            n += 1;
        }
    }
}

/// Rolls a streaming corpus in bounded batches.
///
/// Items are parsed with the configured frontend, merged into a batch
/// module until the batch's input-byte budget fills, and each batch is
/// rolled through [`roll_module_par`] with one persistent worker
/// pool and, with [`CorpusOptions::memoize`], a cross-batch
/// [`MemoStore`]. `on_batch` sees every rolled batch (for output
/// emission) before its memory is released.
pub fn roll_corpus<I, F>(
    items: I,
    opts: &RolagOptions,
    copts: &CorpusOptions,
    mut on_batch: F,
) -> io::Result<CorpusReport>
where
    I: Iterator<Item = io::Result<CorpusItem>>,
    F: FnMut(&Module, &DriverReport),
{
    let start = Instant::now();
    let pool = WorkerPool::new(copts.jobs);
    let store = MemoStore::new(copts.store_capacity());
    let driver = DriverOptions {
        workers: Workers::Pool(&pool),
        store: copts.memoize.then_some(&store),
    };
    let mut report = CorpusReport::default();
    let batch_budget = copts.batch_budget();
    let mut batch = BatchBuilder::new(0);

    let mut flush = |batch: &mut BatchBuilder, report: &mut CorpusReport| {
        if batch.merged == 0 {
            return;
        }
        let dr = roll_module_par(&mut batch.module, opts, &driver);
        report.batches += 1;
        report.functions += dr.functions as u64;
        report.changed += dr.changed as u64;
        report.cache_hits += dr.cache_hits;
        report.store_hits += dr.store_hits;
        report.stats += dr.stats;
        on_batch(&batch.module, &dr);
        *batch = BatchBuilder::new(report.batches);
    };

    for item in items {
        let item = item?;
        report.items += 1;
        report.bytes_in += item.bytes.len() as u64;
        let frontend = copts.frontend.frontend_for(&item.origin, &item.bytes);
        match frontend.parse(&item.bytes, &item.origin) {
            Ok(res) => {
                report.skipped += res.skips.len() as u64;
                for s in &res.skips {
                    *report
                        .skip_reasons
                        .entry(s.code.code().to_string())
                        .or_insert(0) += 1;
                }
                batch.merge(res.module);
                batch.bytes += item.bytes.len() as u64;
            }
            Err(d) => {
                report.parse_failures += 1;
                if report.diagnostics.len() < MAX_DIAGNOSTICS {
                    report.diagnostics.push(render_diag(&d, &item.bytes));
                }
            }
        }
        if batch.bytes >= batch_budget {
            flush(&mut batch, &mut report);
        }
    }
    flush(&mut batch, &mut report);

    report.peak_rss_bytes = peak_rss_bytes().unwrap_or(0);
    report.wall_ns = start.elapsed().as_nanos() as u64;
    Ok(report)
}

fn render_diag(d: &Diagnostic, bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(text) => d.render(text),
        Err(_) => d.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::printer::print_module;

    fn small_module(i: usize) -> String {
        format!(
            "module \"m{i}\"\n\nfunc @f{i}(i32 %p0) -> i32 {{\nentry:\n  %1 = add i32 %p0, i32 {i}\n  ret %1\n}}\n"
        )
    }

    #[test]
    fn concat_text_splits_modules() {
        let text = format!("{}{}", small_module(0), small_module(1));
        let items: Vec<_> = ConcatTextSource::new("c.rir".into(), text.into_bytes())
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].origin.ends_with("#0"));
        assert!(String::from_utf8_lossy(&items[1].bytes).contains("func @f1"));
    }

    #[test]
    fn container_round_trips() {
        let mut buf = Vec::new();
        {
            let mut w = ContainerWriter::new(&mut buf).unwrap();
            w.append(small_module(0).as_bytes()).unwrap();
            w.append(b"RLIR\x01\x00junk").unwrap();
            w.finish().unwrap();
        }
        assert!(buf.starts_with(&CONTAINER_MAGIC));
        // Skip the magic and decode the frames by hand.
        let mut at = 4usize;
        let mut frames = Vec::new();
        while at < buf.len() {
            let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
            frames.push(buf[at + 4..at + 4 + len].to_vec());
            at += 4 + len;
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], small_module(0).as_bytes());
    }

    #[test]
    fn batch_sizing_counts_the_workers_the_pool_spawns() {
        let copts = CorpusOptions {
            jobs: 0,
            ..CorpusOptions::default()
        };
        assert_eq!(
            copts.effective_jobs(),
            WorkerPool::new(0).worker_count() as u64
        );
    }

    #[test]
    fn mem_budget_spellings() {
        for (text, bytes) in [
            ("4096", 4096),
            ("3k", 3 << 10),
            ("3K", 3 << 10),
            ("256m", 256 << 20),
            ("256M", 256 << 20),
            ("2g", 2 << 30),
            ("2G", 2 << 30),
            (" 256M\t", 256 << 20),
        ] {
            assert_eq!(parse_mem_budget(text), Ok(bytes), "{text:?}");
        }
        for text in [
            "0",
            "0M",
            "M",
            "",
            "  ",
            "-1K",
            "1.5G",
            "256 M",
            "99999999999G",
        ] {
            let err = parse_mem_budget(text).expect_err(text);
            assert!(err.starts_with("invalid memory budget"), "{err}");
        }
    }

    #[test]
    fn manifest_field_parses() {
        assert_eq!(
            json_string_field(r#"{"path": "a/b.rir", "n": 3}"#, "path").as_deref(),
            Some("a/b.rir")
        );
        assert_eq!(
            json_string_field(r#"{"path":"x \"y\".ll"}"#, "path").as_deref(),
            Some("x \"y\".ll")
        );
        assert_eq!(json_string_field(r#"{"other": 1}"#, "path"), None);
    }

    #[test]
    fn batch_merge_dedups_and_renames() {
        let parse = |s: &str| rolag_ir::parser::parse_module(s).unwrap();
        let a = parse(
            "module \"a\"\n\ndeclare @ext(i32 %p0) -> void readonly\n\nfunc @f(i32 %p0) -> i32 {\nentry:\n  call void @ext(%p0)\n  ret %p0\n}\n",
        );
        let b = parse(
            "module \"b\"\n\ndeclare @ext(i32 %p0) -> void readwrite\n\nfunc @f(i32 %p0) -> i32 {\nentry:\n  call void @ext(%p0)\n  ret %p0\n}\n",
        );
        let mut batch = BatchBuilder::new(0);
        batch.merge(a);
        batch.merge(b);
        // One shared declaration (weakened to readwrite), two defs.
        assert_eq!(batch.module.num_funcs(), 3);
        let ext = batch.module.func_by_name("ext").unwrap();
        assert_eq!(batch.module.func(ext).effects, Effects::ReadWrite);
        assert!(batch.module.func_by_name("f").is_some());
        let renamed = batch.module.func_by_name("f.m1").unwrap();
        let text = print_module(&batch.module);
        assert!(text.contains("func @f.m1("), "{text}");
        assert!(!batch.module.func(renamed).is_declaration);
        rolag_ir::verify::verify_module(&batch.module).unwrap();
    }

    #[test]
    fn roll_corpus_streams_batches() {
        let items = (0..8).map(|i| {
            Ok(CorpusItem {
                origin: format!("mem#{i}"),
                bytes: small_module(i).into_bytes(),
            })
        });
        let opts = RolagOptions::default();
        let copts = CorpusOptions {
            mem_budget: 1 << 25, // tiny budget -> still one batch (clamped)
            ..CorpusOptions::default()
        };
        let mut batches = 0;
        let report = roll_corpus(items, &opts, &copts, |_m, _dr| batches += 1).unwrap();
        assert_eq!(report.items, 8);
        assert_eq!(report.functions, 8);
        assert_eq!(report.batches, batches as u64);
        assert!(report.parse_failures == 0);
        assert!(report.wall_ns > 0);
    }

    /// Replay from the cross-batch store is byte-identical to rolling each
    /// batch without it. Three bodies — one spilling irregular constants
    /// into a fresh `rolag.cdata` table — repeat across items that fill
    /// several batches, so later batches are served from the store.
    #[test]
    fn store_replay_matches_storeless_batches() {
        const SCATTER: [usize; 12] = [9, 2, 7, 1, 8, 3, 6, 4, 11, 5, 10, 0];
        let item = |i: usize| {
            let mut text = format!(
                "module \"m{i}\"\nglobal @a : [12 x i32] = zero\nfunc @f{i}() -> void {{\nentry:\n"
            );
            for (k, scattered) in SCATTER.iter().enumerate() {
                let value = match i % 3 {
                    0 => 7 * k,
                    1 => 7 * k + 3,
                    _ => *scattered,
                };
                text.push_str(&format!(
                    "  %g{k} = gep i32, @a, i64 {k}\n  store i32 {value}, %g{k}\n"
                ));
            }
            text.push_str("  ret\n}\n");
            Ok(CorpusItem {
                origin: format!("mem#{i}"),
                bytes: text.into_bytes(),
            })
        };
        let roll = |memoize| {
            let copts = CorpusOptions {
                mem_budget: 1 << 20, // clamps to the 128 KiB batch floor
                jobs: 2,
                memoize,
                ..CorpusOptions::default()
            };
            let mut batches = Vec::new();
            let report = roll_corpus(
                (0..500).map(item),
                &RolagOptions::default(),
                &copts,
                |m, _| batches.push(print_module(m)),
            )
            .unwrap();
            (report, batches)
        };
        let (plain, plain_batches) = roll(false);
        let (stored, stored_batches) = roll(true);
        assert!(stored.batches >= 2, "{} batches", stored.batches);
        assert!(stored.store_hits > 0);
        assert_eq!(plain.store_hits, 0);
        assert!(stored_batches[0].contains("const @rolag.cdata."));
        assert_eq!(stored_batches.len(), plain_batches.len());
        for (n, (a, b)) in stored_batches.iter().zip(&plain_batches).enumerate() {
            assert!(a == b, "batch {n} differs with the store attached");
        }
        assert_eq!(stored.stats, plain.stats);
    }
}
