//! Content-addressed PE-variant cache.
//!
//! Building a [`PeVariant`] (mining → merging → rule synthesis) is by far
//! the most expensive part of a cold experiment run, yet it is a pure
//! function of its inputs. This module caches finished variants on disk,
//! keyed by a 64-bit FNV-1a hash over a *canonical text serialization* of
//! everything the construction depends on:
//!
//! * the application dataflow graphs ([`apex_ir::to_text`], which
//!   round-trips exactly — two structurally identical graphs hash equal),
//! * the [`MinerConfig`], [`SubgraphSelection`], [`MergeOptions`] and
//!   [`TechModel`] (via their `Debug` form — any field change changes the
//!   key), with each [`Budget`] reduced to its deterministic limits
//!   (`max_steps`, `max_bytes`): a deadline or a cancel flag does not
//!   change what a completed build produces, and
//! * a codec format version, so stale entries from older builds can never
//!   be misread (they simply miss).
//!
//! Values are stored as a line-oriented text encoding of the full variant
//! (spec + sources + rules + synthesis report + degradations) under
//! `target/apex-cache/` — overridable with `APEX_CACHE_DIR`, disabled
//! entirely with `APEX_CACHE=off`. Writes are atomic (temp file + rename)
//! so concurrent sweeps can share one cache directory. Every entry is
//! one [`apex_fault::record::seal`]ed line `{v, variant}` whose `sum`
//! covers the format version and the variant text, verified on read; an
//! entry that is present but fails the checksum or the decoder is
//! **quarantined** — renamed to `<key>.corrupt` and counted — rather than
//! silently deleted, so disk corruption leaves evidence while the sweep
//! transparently rebuilds the value.
//!
//! The PE-Spec search ([`crate::most_specialized_variant`]) stores its
//! choice here too, as a *search record*: a sealed `{v, search}` line
//! holding only the chosen step's index, under a key
//! ([`crate::search_cache_key`]) that adds `max_steps` and the search's
//! evaluation options to what a step's key hashes. Records share the
//! entry path scheme, the checksum, quarantine, the tenant namespaces and
//! eviction with variant entries. They make the evaluation backend (map,
//! pipeline, place, route and the area/energy model) upstream of the
//! cache: a change to its output must bump [`FORMAT`] too.
//!
//! The in-tree `serde` shim is marker-only, so the codec here is written
//! by hand; [`encode_variant`] / [`decode_variant`] round-trip exactly,
//! which the warm-path determinism suite (`tests/determinism.rs`) pins
//! down to the [`datapath_hash`].

use crate::variant::{PeVariant, SubgraphSelection};
use apex_apps::Application;
use apex_fault::{
    fnv1a, parse_byte_size, record, ApexError, Budget, Degradation, DegradationKind, Provenance,
    Stage,
};
use apex_ir::{from_text, op_from_token, op_to_token, to_text, Graph, NodeId, OpKind};
use apex_merge::{DatapathConfig, DpNode, DpSource, MergeOptions, MergedDatapath, NodeConfig};
use apex_mining::MinerConfig;
use apex_pe::{PePipeline, PeSpec};
use apex_rewrite::{RewriteRule, RuleSet, SynthesisReport};
use apex_tech::TechModel;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bump when the entry or value encoding or anything upstream of variant
/// construction changes semantically; old entries then miss instead of
/// resurrecting stale designs. Search records make the evaluation backend
/// (map, pipeline, place, route, area and energy) upstream as well: a
/// change to its output (`tests/backend_golden.rs` pins it) must bump
/// this too, or a stale record picks a step the new backend would not.
/// The version is hashed into every cache key, so older entries are
/// simply never addressed again rather than misread or falsely
/// quarantined.
const FORMAT: &str = "apex-variant v3";

// ---------------------------------------------------------------------------
// key hashing
// ---------------------------------------------------------------------------

/// The content-addressed cache key for one variant-construction request.
///
/// `kind` names the constructor (`"baseline"`, `"pe1"`, `"specialized"`);
/// the optional parts are hashed only when the constructor consumes them.
#[allow(clippy::too_many_arguments)]
pub fn variant_cache_key(
    kind: &str,
    name: &str,
    analysis_apps: &[&Application],
    eval_apps: &[&Application],
    miner: Option<&MinerConfig>,
    selection: Option<&SubgraphSelection>,
    merge_opts: Option<&MergeOptions>,
    tech: Option<&TechModel>,
    extra_kinds: &BTreeSet<OpKind>,
) -> u64 {
    let parts = key_parts(
        kind,
        name,
        analysis_apps,
        eval_apps,
        miner,
        selection,
        merge_opts,
        tech,
        extra_kinds,
    );
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    fnv1a(&refs)
}

/// The canonical text parts [`variant_cache_key`] hashes; a search
/// record's key ([`crate::search_cache_key`]) appends its own.
#[allow(clippy::too_many_arguments)]
pub(crate) fn key_parts(
    kind: &str,
    name: &str,
    analysis_apps: &[&Application],
    eval_apps: &[&Application],
    miner: Option<&MinerConfig>,
    selection: Option<&SubgraphSelection>,
    merge_opts: Option<&MergeOptions>,
    tech: Option<&TechModel>,
    extra_kinds: &BTreeSet<OpKind>,
) -> Vec<String> {
    let mut parts: Vec<String> = vec![FORMAT.to_owned(), kind.to_owned(), name.to_owned()];
    parts.push(format!("analysis:{}", analysis_apps.len()));
    for app in analysis_apps {
        parts.push(to_text(&app.graph));
    }
    parts.push(format!("eval:{}", eval_apps.len()));
    for app in eval_apps {
        parts.push(to_text(&app.graph));
    }
    let miner = miner.map(|m| MinerConfig {
        budget: deterministic(&m.budget),
        ..m.clone()
    });
    let merge_opts = merge_opts.map(|o| MergeOptions {
        budget: deterministic(&o.budget),
    });
    parts.push(format!("miner:{miner:?}"));
    parts.push(format!("selection:{selection:?}"));
    parts.push(format!("merge:{merge_opts:?}"));
    parts.push(format!("tech:{tech:?}"));
    parts.push(format!("extra:{extra_kinds:?}"));
    parts
}

/// The part of a budget a completed build is a pure function of: the step
/// and byte caps, without the deadline and the cancel flag.
fn deterministic(budget: &Budget) -> Budget {
    Budget {
        deadline: None,
        cancel: None,
        ..budget.clone()
    }
}

/// Whether a search inside the build stopped on its deadline or a cancel
/// flag. Such a variant is not a pure function of its cache key (more
/// time would build a different one), so it is returned but not stored.
pub(crate) fn stopped_by_clock(variant: &PeVariant) -> bool {
    variant.degradations.iter().any(|d| {
        [Provenance::TimedOut, Provenance::Cancelled]
            .into_iter()
            .any(|p| Degradation::from_provenance(d.stage, p).as_ref() == Some(d))
    })
}

/// A short fingerprint of a variant's architectural datapath — what the
/// determinism suite compares to assert a cache hit reproduces the *same
/// hardware*, not merely something equivalent.
pub fn datapath_hash(variant: &PeVariant) -> u64 {
    let mut s = String::new();
    write_datapath(&mut s, &variant.spec.datapath);
    fnv1a(&[&s])
}

// ---------------------------------------------------------------------------
// the cache itself
// ---------------------------------------------------------------------------

/// On-disk, content-addressed store of finished [`PeVariant`]s.
///
/// A cache may be **namespaced** per tenant ([`VariantCache::namespaced`]):
/// entries then live under `<root>/tenants/<tenant>/`, so one multi-tenant
/// daemon shares a single store without tenants being able to address (or
/// poison) each other's entries. The optional **byte cap**
/// ([`VariantCache::with_max_bytes`], `APEX_CACHE_MAX_BYTES`) is enforced
/// over the whole root — all namespaces together — by LRU eviction on
/// every store; see [`VariantCache::evict_to_cap`].
#[derive(Debug)]
pub struct VariantCache {
    /// Where this handle's entries live (a namespace subdir, or the root).
    dir: Option<PathBuf>,
    /// The eviction root shared by every namespace of this store.
    root: Option<PathBuf>,
    /// Byte cap over `root`; `None` = unbounded (the pre-cap behaviour).
    max_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    evicted: AtomicU64,
}

impl VariantCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        VariantCache {
            dir: Some(dir.clone()),
            root: Some(dir),
            max_bytes: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// A disabled cache: every load misses, stores are dropped.
    pub fn disabled() -> Self {
        VariantCache {
            dir: None,
            root: None,
            max_bytes: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Sets the LRU byte cap enforced over the cache root on every store.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// A view of this store scoped to one tenant: entries live under
    /// `<root>/tenants/<tenant>/` (the tenant name is sanitized to a safe
    /// path component — it came off the wire). Counters are fresh per
    /// view; the byte cap is shared with the root store.
    pub fn namespaced(&self, tenant: &str) -> VariantCache {
        let Some(root) = &self.root else {
            return VariantCache::disabled();
        };
        VariantCache {
            dir: Some(root.join("tenants").join(sanitize_tenant(tenant))),
            root: Some(root.clone()),
            max_bytes: self.max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Cache configured from the environment: `APEX_CACHE=off|0|no`
    /// disables it, `APEX_CACHE_DIR` overrides the location, and
    /// `APEX_CACHE_MAX_BYTES` (plain bytes, or with a `k`/`m`/`g`
    /// suffix) caps the store with LRU eviction. Default location is
    /// `target/apex-cache` under the enclosing cargo workspace (falling
    /// back to the current directory).
    pub fn from_env() -> Self {
        if let Ok(v) = std::env::var("APEX_CACHE") {
            let v = v.trim().to_ascii_lowercase();
            if v == "off" || v == "0" || v == "no" || v == "false" {
                return VariantCache::disabled();
            }
        }
        let max_bytes = std::env::var("APEX_CACHE_MAX_BYTES")
            .ok()
            .and_then(|v| parse_byte_size(&v));
        if let Ok(dir) = std::env::var("APEX_CACHE_DIR") {
            if !dir.trim().is_empty() {
                return VariantCache::at(dir).with_max_bytes(max_bytes);
            }
        }
        VariantCache::at(default_cache_dir()).with_max_bytes(max_bytes)
    }

    /// The process-wide cache used by the experiment harness and the CLI.
    pub fn shared() -> &'static VariantCache {
        static SHARED: OnceLock<VariantCache> = OnceLock::new();
        SHARED.get_or_init(VariantCache::from_env)
    }

    /// Whether this cache can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Number of successful loads since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of failed loads since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of corrupt entries renamed to `<key>.corrupt` since
    /// construction (surfaced in the report summary).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Number of entries deleted by the byte-cap LRU policy since
    /// construction.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key:016x}.var")))
    }

    /// Loads, checksum-verifies, and decodes the entry for `key`. A
    /// missing file is a plain miss; a file that is *present* but fails
    /// the checksum or decoder is quarantined (renamed to `<key>.corrupt`)
    /// so corruption is preserved as evidence, then reported as a miss and
    /// rebuilt.
    pub fn load(&self, key: u64) -> Option<PeVariant> {
        self.load_with(key, decode_entry)
    }

    /// Loads the search record for `key` ([`crate::search_cache_key`]):
    /// the index of the step a PE-Spec search chose. Counted, refreshed
    /// and quarantined like a variant entry.
    pub fn load_search(&self, key: u64) -> Option<usize> {
        self.load_with(key, decode_search)
    }

    /// [`VariantCache::load`] with the entry decoder given.
    fn load_with<T>(&self, key: u64, decode: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let path = self.entry_path(key)?;
        let Ok(text) = std::fs::read_to_string(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match decode(&text) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // refresh the entry's mtime so the byte-cap eviction pass
                // (LRU by mtime) sees it as recently used, not merely
                // recently written; best-effort like every cache I/O
                if let Ok(f) = std::fs::File::options().write(true).open(&path) {
                    let _ = f.set_modified(std::time::SystemTime::now());
                }
                Some(v)
            }
            None => {
                let quarantine = path.with_extension("corrupt");
                if std::fs::rename(&path, &quarantine).is_ok() {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Atomically stores a variant under `key` as a sealed entry.
    /// Best-effort: an unwritable cache directory silently degrades to
    /// pass-through (the sweep must not fail because a cache could not be
    /// written).
    pub fn store(&self, key: u64, variant: &PeVariant) {
        if self.is_enabled() {
            self.store_text(key, &encode_entry(variant));
        }
    }

    /// Stores a search record: `step` is the index of the step the search
    /// for `key` chose ([`VariantCache::load_search`]).
    pub(crate) fn store_search(&self, key: u64, step: usize) {
        self.store_text(key, &encode_search(step));
    }

    /// [`VariantCache::store`] of an encoded entry.
    fn store_text(&self, key: u64, text: &str) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(".{key:016x}.{}.tmp", std::process::id()));
        // write the tmp file through the I/O fault adapter so injected
        // ENOSPC / short writes degrade exactly like real ones: the
        // partial tmp file is removed and the variant is simply not
        // cached (the caller already holds the computed value)
        let wrote = std::fs::File::create(&tmp).and_then(|mut f| {
            apex_fault::iofault::write_all(
                &mut f,
                text.as_bytes(),
                "io::cache_enospc",
                "io::cache_short_write",
            )
        });
        match wrote {
            Ok(()) => {
                if std::fs::rename(&tmp, &path).is_err() {
                    let _ = std::fs::remove_file(&tmp);
                }
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
            }
        }
        if let Some(cap) = self.max_bytes {
            self.evict_to_cap(cap);
        }
    }

    /// Deletes least-recently-used entries until the store (the whole
    /// root, every tenant namespace included) fits in `cap` bytes.
    ///
    /// Eviction order: quarantined `.corrupt` files first (they are dead
    /// weight kept only as evidence, so they count toward the cap and go
    /// before any live entry), then live entries by ascending mtime (LRU —
    /// [`VariantCache::load`] refreshes mtime on every hit), path as the
    /// deterministic tie-break. Deletes are single `remove_file` calls
    /// (atomic) and a concurrently vanished file — another process
    /// evicting the same store — is treated as already freed, never an
    /// error; the `serve::cache_evict_race` fail point simulates exactly
    /// that race. Returns the number of files this call deleted.
    pub fn evict_to_cap(&self, cap: u64) -> u64 {
        let Some(root) = &self.root else { return 0 };
        let mut entries: Vec<(bool, std::time::SystemTime, PathBuf, u64)> = Vec::new();
        collect_cache_files(root, &mut entries);
        let mut total: u64 = entries.iter().map(|e| e.3).sum();
        if total <= cap {
            return 0;
        }
        // corrupt-first, then oldest-first; path breaks mtime ties so two
        // processes scanning the same store agree on the victim order
        entries.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let mut deleted = 0u64;
        for (_corrupt, _mtime, path, len) in entries {
            if total <= cap {
                break;
            }
            #[cfg(feature = "fault-injection")]
            if apex_fault::failpoints::should_fire("serve::cache_evict_race") {
                // simulate a concurrent evictor winning the race: the file
                // is gone before our own delete lands
                let _ = std::fs::remove_file(&path);
            }
            match std::fs::remove_file(&path) {
                Ok(()) => {
                    total = total.saturating_sub(len);
                    deleted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // lost the race to another evictor: the bytes are
                    // freed either way
                    total = total.saturating_sub(len);
                }
                Err(_) => {
                    // an undeletable file (permissions, live handle on
                    // some platforms) is skipped; eviction is best-effort
                }
            }
        }
        self.evicted.fetch_add(deleted, Ordering::Relaxed);
        deleted
    }

    /// Total bytes of cache files (live + quarantined) under the root.
    pub fn total_bytes(&self) -> u64 {
        let Some(root) = &self.root else { return 0 };
        let mut entries = Vec::new();
        collect_cache_files(root, &mut entries);
        entries.iter().map(|e| e.3).sum()
    }

    /// The memoizing entry point: returns the cached variant for `key`, or
    /// builds, stores, and returns it. Build errors and builds stopped by
    /// a deadline or cancel flag are never cached.
    ///
    /// # Errors
    /// Propagates the builder's error on a miss.
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<PeVariant, ApexError>,
    ) -> Result<PeVariant, ApexError> {
        if let Some(v) = self.load(key) {
            return Ok(v);
        }
        let v = build()?;
        if !stopped_by_clock(&v) {
            self.store(key, &v);
        }
        Ok(v)
    }

    /// Runs `f` on the view of this store scoped to an optional tenant
    /// namespace (the store itself without one). The view's counter
    /// activity is folded back into this store's counters, so a daemon's
    /// footer stats stay accurate across namespaces.
    pub(crate) fn in_namespace<R>(
        &self,
        tenant: Option<&str>,
        f: impl FnOnce(&VariantCache) -> R,
    ) -> R {
        let Some(tenant) = tenant else {
            return f(self);
        };
        let ns = self.namespaced(tenant);
        let out = f(&ns);
        self.hits.fetch_add(ns.hits(), Ordering::Relaxed);
        self.misses.fetch_add(ns.misses(), Ordering::Relaxed);
        self.quarantined.fetch_add(ns.quarantined(), Ordering::Relaxed);
        self.evicted.fetch_add(ns.evicted(), Ordering::Relaxed);
        out
    }
}

// ---------------------------------------------------------------------------
// per-thread tenant scope
// ---------------------------------------------------------------------------

thread_local! {
    /// The tenant namespace variant builds on this thread should cache
    /// under (`None` = the root namespace, i.e. the offline CLI).
    static THREAD_TENANT: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with every variant-cache access on this thread scoped to
/// `tenant`'s namespace. Used by the serve daemon: a job thread enters the
/// submitting tenant's scope, and the deep `cached()` call sites inside
/// variant builds pick it up without threading a handle through every
/// stage. Restores the previous scope on exit, including across panics.
pub fn with_thread_tenant<R>(tenant: &str, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            THREAD_TENANT.with(|t| *t.borrow_mut() = prev);
        }
    }
    let prev = THREAD_TENANT.with(|t| t.borrow_mut().replace(tenant.to_owned()));
    let _restore = Restore(prev);
    f()
}

/// The tenant scope installed on this thread, if any.
pub fn thread_tenant() -> Option<String> {
    THREAD_TENANT.with(|t| t.borrow().clone())
}

/// `<workspace>/target/<name>`, where `<workspace>` is the nearest
/// ancestor of the current directory holding a `Cargo.lock` (so tests run
/// from member-crate directories share one location); falls back to the
/// current directory. Shared by the variant cache and the sweep journal.
pub(crate) fn workspace_target_subdir(name: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut probe: &Path = &cwd;
    loop {
        if probe.join("Cargo.lock").exists() {
            return probe.join("target").join(name);
        }
        match probe.parent() {
            Some(p) => probe = p,
            None => return cwd.join("target").join(name),
        }
    }
}

fn default_cache_dir() -> PathBuf {
    workspace_target_subdir("apex-cache")
}

/// Reduces an untrusted tenant name (it arrived over a socket) to a safe
/// single path component: alphanumerics, `-`, `_` and `.` pass through,
/// everything else becomes `_`, and the result is capped at 64 chars and
/// never empty or dot-only (no `..` traversal, no hidden-file surprises).
pub(crate) fn sanitize_tenant(tenant: &str) -> String {
    let mut out: String = tenant
        .chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().all(|c| c == '.') {
        out = "default".to_owned();
    }
    out
}

/// Recursively collects `(is_corrupt, mtime, path, len)` for every cache
/// file (`.var` entry or `.corrupt` quarantine) under `dir`. Unreadable
/// directories or metadata are skipped — eviction must never fail a sweep.
fn collect_cache_files(dir: &Path, out: &mut Vec<(bool, std::time::SystemTime, PathBuf, u64)>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            collect_cache_files(&path, out);
            continue;
        }
        let is_corrupt = path.extension().is_some_and(|e| e == "corrupt");
        let is_var = path.extension().is_some_and(|e| e == "var");
        if !is_corrupt && !is_var {
            continue; // leave tmp files and foreign files alone
        }
        let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        out.push((is_corrupt, mtime, path, meta.len()));
    }
}

// ---------------------------------------------------------------------------
// entry envelope: one sealed record
// ---------------------------------------------------------------------------

/// Wraps the variant encoding in the on-disk entry envelope: one
/// [`record::seal`]ed line `{v, variant}` whose `sum` covers both.
fn encode_entry(variant: &PeVariant) -> String {
    record::seal(record::fields(&[
        ("v", FORMAT),
        ("variant", &encode_variant(variant)),
    ]))
}

/// Opens the sealed envelope and decodes the variant; `None` on any
/// checksum mismatch, version mismatch or malformation (the caller
/// quarantines the file).
fn decode_entry(text: &str) -> Option<PeVariant> {
    let fields = record::open(text)?;
    match (fields.get("v"), fields.get("variant")) {
        (Some(v), Some(body)) if v == FORMAT && fields.len() == 2 => decode_variant(body),
        _ => None,
    }
}

/// A search record in the same envelope: one sealed line `{v, search}`
/// holding the chosen step's index, never a copy of its variant.
fn encode_search(step: usize) -> String {
    record::seal(record::fields(&[("v", FORMAT), ("search", &step.to_string())]))
}

/// Opens a search record; `None` on any checksum mismatch, version
/// mismatch or malformation, as [`decode_entry`].
fn decode_search(text: &str) -> Option<usize> {
    let fields = record::open(text)?;
    match (fields.get("v"), fields.get("search")) {
        (Some(v), Some(step)) if v == FORMAT && fields.len() == 2 => step.parse().ok(),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// value codec: encode
// ---------------------------------------------------------------------------

/// Escapes a string onto the rest of a line (newlines and backslashes).
fn esc_line(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unesc_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Escapes a string into a single whitespace-free token.
fn esc_tok(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    if out.is_empty() {
        "\\e".to_owned()
    } else {
        out
    }
}

fn unesc_tok(s: &str) -> String {
    if s == "\\e" {
        return String::new();
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn src_tok(src: DpSource) -> String {
    match src {
        DpSource::WordInput(k) => format!("w{k}"),
        DpSource::BitInput(k) => format!("b{k}"),
        DpSource::Node(k) => format!("n{k}"),
    }
}

fn src_from_tok(tok: &str) -> Option<DpSource> {
    let (head, rest) = tok.split_at(1);
    match head {
        "w" => rest.parse().ok().map(DpSource::WordInput),
        "b" => rest.parse().ok().map(DpSource::BitInput),
        "n" => rest.parse().ok().map(DpSource::Node),
        _ => None,
    }
}

fn write_config(out: &mut String, cfg: &DatapathConfig) {
    let _ = write!(out, "C {} {}", esc_tok(&cfg.name), cfg.node_cfg.len());
    for nc in &cfg.node_cfg {
        match nc {
            None => out.push_str(" -"),
            Some(nc) => {
                let _ = write!(out, " {} {}", op_to_token(nc.op), nc.port_sel.len());
                for s in &nc.port_sel {
                    let _ = write!(out, " {s}");
                }
            }
        }
    }
    for sel in [&cfg.word_out_sel, &cfg.bit_out_sel] {
        let _ = write!(out, " {}", sel.len());
        for s in sel {
            let _ = write!(out, " {}", src_tok(*s));
        }
    }
    for map in [&cfg.word_input_map, &cfg.bit_input_map] {
        let _ = write!(out, " {}", map.len());
        for m in map {
            let _ = write!(out, " {m}");
        }
    }
    let _ = write!(out, " {}", cfg.node_map.len());
    for (a, b) in &cfg.node_map {
        let _ = write!(out, " {a}:{b}");
    }
    out.push('\n');
}

fn write_datapath(out: &mut String, dp: &MergedDatapath) {
    let _ = writeln!(out, "dpname {}", esc_line(&dp.name));
    let _ = writeln!(
        out,
        "io {} {} {} {}",
        dp.word_inputs, dp.bit_inputs, dp.word_outputs, dp.bit_outputs
    );
    let _ = writeln!(out, "nodes {}", dp.nodes.len());
    for node in &dp.nodes {
        let _ = write!(out, "N {}", node.ops.len());
        for op in &node.ops {
            let _ = write!(out, " {}", op_to_token(*op));
        }
        let _ = write!(out, " {}", node.port_candidates.len());
        for port in &node.port_candidates {
            let _ = write!(out, " {}", port.len());
            for s in port {
                let _ = write!(out, " {}", src_tok(*s));
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "configs {}", dp.configs.len());
    for cfg in &dp.configs {
        write_config(out, cfg);
    }
}

fn write_graph(out: &mut String, g: &Graph) {
    let text = to_text(g);
    let _ = writeln!(out, "g {}", text.lines().count());
    out.push_str(&text);
}

/// Serializes a variant to the cache's line-oriented text format.
pub fn encode_variant(v: &PeVariant) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{FORMAT}");
    let _ = writeln!(out, "name {}", esc_line(&v.spec.name));
    let _ = writeln!(out, "legacy {}", u8::from(v.spec.legacy_control));
    match &v.spec.pipeline {
        None => {
            let _ = writeln!(out, "pipeline -");
        }
        Some(p) => {
            let _ = write!(out, "pipeline {} {}", p.stages, p.stage_of_node.len());
            for s in &p.stage_of_node {
                let _ = write!(out, " {s}");
            }
            out.push('\n');
        }
    }
    write_datapath(&mut out, &v.spec.datapath);
    let _ = writeln!(out, "sources {}", v.sources.len());
    for g in &v.sources {
        write_graph(&mut out, g);
    }
    let _ = writeln!(out, "rules {}", v.rules.rules.len());
    for r in &v.rules.rules {
        let _ = write!(
            out,
            "rule {} {} {}",
            esc_tok(&r.name),
            r.ops_covered,
            r.payload_bindings.len()
        );
        for (nid, dp_node) in &r.payload_bindings {
            let _ = write!(out, " {}:{dp_node}", nid.0);
        }
        out.push('\n');
        write_graph(&mut out, &r.pattern);
        write_config(&mut out, &r.config);
    }
    let _ = write!(out, "missing {}", v.synthesis.missing.len());
    for m in &v.synthesis.missing {
        let _ = write!(out, " {}", esc_tok(m));
    }
    out.push('\n');
    let _ = writeln!(out, "rejected {}", v.synthesis.rejected);
    let _ = writeln!(out, "degradations {}", v.degradations.len());
    for d in &v.degradations {
        let _ = writeln!(
            out,
            "deg {} {} {}",
            d.stage.name(),
            d.kind.name(),
            esc_line(&d.detail)
        );
    }
    out
}

// ---------------------------------------------------------------------------
// value codec: decode (any malformation ⇒ None ⇒ cache miss)
// ---------------------------------------------------------------------------

struct Reader<'a> {
    lines: Vec<&'a str>,
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            lines: text.lines().collect(),
            at: 0,
        }
    }

    fn line(&mut self) -> Option<&'a str> {
        let l = self.lines.get(self.at).copied()?;
        self.at += 1;
        Some(l)
    }

    /// Reads a line of the form `<tag> <rest>` and returns `<rest>`.
    fn tagged(&mut self, tag: &str) -> Option<&'a str> {
        self.line()?.strip_prefix(tag)?.strip_prefix(' ')
    }

    /// Reads `<tag> <count>` followed by `count` raw lines, rejoined.
    fn block(&mut self, tag: &str) -> Option<String> {
        let n: usize = self.tagged(tag)?.trim().parse().ok()?;
        let mut s = String::new();
        for _ in 0..n {
            s.push_str(self.line()?);
            s.push('\n');
        }
        Some(s)
    }
}

fn read_config(line: &str) -> Option<DatapathConfig> {
    let mut toks = line.strip_prefix("C ")?.split_whitespace();
    let name = unesc_tok(toks.next()?);
    let n_nodes: usize = toks.next()?.parse().ok()?;
    let mut node_cfg = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let head = toks.next()?;
        if head == "-" {
            node_cfg.push(None);
            continue;
        }
        let op = op_from_token(head)?;
        let k: usize = toks.next()?.parse().ok()?;
        let mut port_sel = Vec::with_capacity(k);
        for _ in 0..k {
            port_sel.push(toks.next()?.parse().ok()?);
        }
        node_cfg.push(Some(NodeConfig { op, port_sel }));
    }
    let mut read_srcs = || -> Option<Vec<DpSource>> {
        let k: usize = toks.next()?.parse().ok()?;
        (0..k).map(|_| src_from_tok(toks.next()?)).collect()
    };
    let word_out_sel = read_srcs()?;
    let bit_out_sel = read_srcs()?;
    let mut read_u16s = || -> Option<Vec<u16>> {
        let k: usize = toks.next()?.parse().ok()?;
        (0..k).map(|_| toks.next()?.parse().ok()).collect()
    };
    let word_input_map = read_u16s()?;
    let bit_input_map = read_u16s()?;
    let k: usize = toks.next()?.parse().ok()?;
    let mut node_map = Vec::with_capacity(k);
    for _ in 0..k {
        let (a, b) = toks.next()?.split_once(':')?;
        node_map.push((a.parse().ok()?, b.parse().ok()?));
    }
    if toks.next().is_some() {
        return None;
    }
    Some(DatapathConfig {
        name,
        node_cfg,
        word_out_sel,
        bit_out_sel,
        word_input_map,
        bit_input_map,
        node_map,
    })
}

fn read_datapath(r: &mut Reader) -> Option<MergedDatapath> {
    let name = unesc_line(r.tagged("dpname")?);
    let mut io = r.tagged("io")?.split_whitespace();
    let word_inputs = io.next()?.parse().ok()?;
    let bit_inputs = io.next()?.parse().ok()?;
    let word_outputs = io.next()?.parse().ok()?;
    let bit_outputs = io.next()?.parse().ok()?;
    let n_nodes: usize = r.tagged("nodes")?.trim().parse().ok()?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let line = r.line()?;
        let mut toks = line.strip_prefix("N ")?.split_whitespace();
        let n_ops: usize = toks.next()?.parse().ok()?;
        let ops: Vec<_> = (0..n_ops)
            .map(|_| toks.next().and_then(op_from_token))
            .collect::<Option<_>>()?;
        let n_ports: usize = toks.next()?.parse().ok()?;
        let mut port_candidates = Vec::with_capacity(n_ports);
        for _ in 0..n_ports {
            let k: usize = toks.next()?.parse().ok()?;
            let port: Vec<_> = (0..k)
                .map(|_| toks.next().and_then(src_from_tok))
                .collect::<Option<_>>()?;
            port_candidates.push(port);
        }
        if toks.next().is_some() {
            return None;
        }
        nodes.push(DpNode {
            ops,
            port_candidates,
        });
    }
    let n_cfg: usize = r.tagged("configs")?.trim().parse().ok()?;
    let mut configs = Vec::with_capacity(n_cfg);
    for _ in 0..n_cfg {
        configs.push(read_config(r.line()?)?);
    }
    Some(MergedDatapath {
        name,
        nodes,
        word_inputs,
        bit_inputs,
        word_outputs,
        bit_outputs,
        configs,
    })
}

fn read_graph(r: &mut Reader) -> Option<Graph> {
    let text = r.block("g")?;
    from_text(&text).ok()
}

/// Parses a variant from the cache text format; `None` on any
/// malformation (the caller treats it as a miss).
pub fn decode_variant(text: &str) -> Option<PeVariant> {
    let mut r = Reader::new(text);
    if r.line()? != FORMAT {
        return None;
    }
    let name = unesc_line(r.tagged("name")?);
    let legacy_control = match r.tagged("legacy")? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let pipe_line = r.tagged("pipeline")?;
    let pipeline = if pipe_line == "-" {
        None
    } else {
        let mut toks = pipe_line.split_whitespace();
        let stages: u32 = toks.next()?.parse().ok()?;
        let n: usize = toks.next()?.parse().ok()?;
        let stage_of_node: Vec<u32> = (0..n)
            .map(|_| toks.next().and_then(|t| t.parse().ok()))
            .collect::<Option<_>>()?;
        Some(PePipeline {
            stage_of_node,
            stages,
        })
    };
    let datapath = read_datapath(&mut r)?;
    let n_sources: usize = r.tagged("sources")?.trim().parse().ok()?;
    let sources: Vec<Graph> = (0..n_sources)
        .map(|_| read_graph(&mut r))
        .collect::<Option<_>>()?;
    let n_rules: usize = r.tagged("rules")?.trim().parse().ok()?;
    let mut rules = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        let mut toks = r.line()?.strip_prefix("rule ")?.split_whitespace();
        let rule_name = unesc_tok(toks.next()?);
        let ops_covered: usize = toks.next()?.parse().ok()?;
        let n_bind: usize = toks.next()?.parse().ok()?;
        let mut payload_bindings = Vec::with_capacity(n_bind);
        for _ in 0..n_bind {
            let (a, b) = toks.next()?.split_once(':')?;
            payload_bindings.push((NodeId(a.parse().ok()?), b.parse().ok()?));
        }
        let pattern = read_graph(&mut r)?;
        let config = read_config(r.line()?)?;
        rules.push(RewriteRule {
            name: rule_name,
            pattern,
            config,
            payload_bindings,
            ops_covered,
        });
    }
    let mut miss_toks = r.tagged("missing")?.split_whitespace();
    let n_missing: usize = miss_toks.next()?.parse().ok()?;
    let missing: Vec<String> = (0..n_missing)
        .map(|_| miss_toks.next().map(unesc_tok))
        .collect::<Option<_>>()?;
    let rejected: usize = r.tagged("rejected")?.trim().parse().ok()?;
    let n_deg: usize = r.tagged("degradations")?.trim().parse().ok()?;
    let mut degradations = Vec::with_capacity(n_deg);
    for _ in 0..n_deg {
        let rest = r.tagged("deg")?;
        let (stage_s, rest) = rest.split_once(' ')?;
        let (kind_s, detail) = rest.split_once(' ')?;
        degradations.push(Degradation::new(
            Stage::from_name(stage_s)?,
            DegradationKind::from_name(kind_s)?,
            unesc_line(detail),
        ));
    }
    if r.line().is_some() {
        return None;
    }
    // reject spec-level inconsistencies a bit-flip could smuggle in
    datapath.validate().ok()?;
    Some(PeVariant {
        spec: PeSpec {
            name,
            datapath,
            legacy_control,
            pipeline,
        },
        sources,
        rules: RuleSet { rules },
        synthesis: SynthesisReport { missing, rejected },
        degradations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{baseline_variant, specialized_variant};
    use apex_apps::gaussian;
    use std::time::Duration;

    fn spec_variant() -> PeVariant {
        let app = gaussian();
        specialized_variant(
            "pe_cache_test",
            &[&app],
            &[&app],
            &MinerConfig::default(),
            &SubgraphSelection::default(),
            &MergeOptions::default(),
            &TechModel::default(),
            &BTreeSet::new(),
        )
        .unwrap()
    }

    fn assert_variants_equal(a: &PeVariant, b: &PeVariant) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.synthesis, b.synthesis);
        assert_eq!(a.degradations, b.degradations);
    }

    #[test]
    fn codec_round_trips_a_specialized_variant() {
        let v = spec_variant();
        let decoded = decode_variant(&encode_variant(&v)).expect("decodes");
        assert_variants_equal(&v, &decoded);
        assert_eq!(datapath_hash(&v), datapath_hash(&decoded));
    }

    #[test]
    fn codec_round_trips_the_baseline() {
        let app = gaussian();
        let v = baseline_variant(&[&app]).unwrap();
        let decoded = decode_variant(&encode_variant(&v)).expect("decodes");
        assert_variants_equal(&v, &decoded);
    }

    /// A unit stripped of its ops while it still feeds another unit
    /// fails the structure check instead of panicking in it.
    #[test]
    fn unit_without_ops_decodes_as_none() {
        let app = gaussian();
        let mut v = baseline_variant(&[&app]).unwrap();
        let dp = &mut v.spec.datapath;
        let fed = dp
            .nodes
            .iter()
            .flat_map(|n| n.port_candidates.iter().flatten())
            .find_map(|c| match *c {
                DpSource::Node(j) => Some(j as usize),
                _ => None,
            })
            .expect("a unit feeds another");
        dp.nodes[fed].ops.clear();
        assert!(decode_variant(&encode_variant(&v)).is_none());
    }

    #[test]
    fn corrupt_entries_decode_as_none() {
        let v = spec_variant();
        let good = encode_variant(&v);
        assert!(decode_variant("").is_none());
        assert!(decode_variant("apex-variant v999\n").is_none());
        // truncation at every tenth line must never panic, only miss
        let lines: Vec<&str> = good.lines().collect();
        for cut in (0..lines.len()).step_by(10) {
            let partial = lines[..cut].join("\n");
            assert!(decode_variant(&partial).is_none(), "cut at {cut}");
        }
        // flip a count field
        let bad = good.replacen("rules ", "rules 9", 1);
        assert!(decode_variant(&bad).is_none());

        // the entry envelope catches corruption the decoder might accept:
        // a flipped payload byte fails the checksum line
        let entry = encode_entry(&v);
        assert!(decode_entry(&entry).is_some());
        let flipped = entry.replacen("name ", "nbme ", 1);
        assert!(decode_entry(&flipped).is_none());
        assert!(decode_entry("no checksum line").is_none());

        // an `apex-variant v2` entry (checksum header line, then the body)
        // is never served, even with a valid checksum
        let v2_body = good.replacen(FORMAT, "apex-variant v2", 1);
        let v2_entry = format!("sum {:016x}\n{v2_body}", fnv1a(&[&v2_body]));
        assert!(decode_entry(&v2_entry).is_none());

        // a corrupt on-disk entry is quarantined to <key>.corrupt, counted,
        // and reported as a miss — never silently rebuilt over
        let dir = std::env::temp_dir().join(format!("apex-cache-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = VariantCache::at(&dir);
        let key = 0x1234_5678_9ABC_DEF0u64;
        cache.store(key, &v);
        let path = dir.join(format!("{key:016x}.var"));
        std::fs::write(&path, flipped).unwrap();
        assert!(cache.load(key).is_none());
        assert_eq!(cache.quarantined(), 1);
        assert!(!path.exists(), "corrupt entry left in place");
        assert!(
            dir.join(format!("{key:016x}.corrupt")).exists(),
            "quarantine file missing"
        );
        // the quarantined key rebuilds: a store+load round trip works again
        cache.store(key, &v);
        assert!(cache.load(key).is_some());
        assert_eq!(cache.quarantined(), 1, "clean reload must not re-quarantine");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_store_load_hit_counters() {
        let dir = std::env::temp_dir().join(format!("apex-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = VariantCache::at(&dir);
        let v = spec_variant();
        let key = 0xABCD_EF01_2345_6789u64;
        assert!(cache.load(key).is_none());
        assert_eq!(cache.misses(), 1);
        cache.store(key, &v);
        let loaded = cache.load(key).expect("hit after store");
        assert_eq!(cache.hits(), 1);
        assert_variants_equal(&v, &loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_or_build_builds_once() {
        let dir = std::env::temp_dir().join(format!("apex-cache-gob-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = VariantCache::at(&dir);
        let app = gaussian();
        let key = variant_cache_key(
            "baseline",
            "pe_base",
            &[],
            &[&app],
            None,
            None,
            None,
            None,
            &BTreeSet::new(),
        );
        let mut builds = 0;
        for _ in 0..3 {
            let v = cache
                .get_or_build(key, || {
                    builds += 1;
                    baseline_variant(&[&app])
                })
                .unwrap();
            assert_eq!(v.spec.name, "pe_base");
        }
        assert_eq!(builds, 1, "two warm runs must not rebuild");
        assert_eq!(cache.hits(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builds_stopped_by_the_clock_are_returned_but_not_stored() {
        let dir = std::env::temp_dir().join(format!("apex-cache-clock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = VariantCache::at(&dir);
        let app = gaussian();
        for (key, stop) in [(1, Provenance::TimedOut), (2, Provenance::Cancelled)] {
            let mut builds = 0;
            for _ in 0..2 {
                let v = cache
                    .get_or_build(key, || {
                        builds += 1;
                        let mut v = baseline_variant(&[&app])?;
                        v.degradations.extend(Degradation::from_provenance(Stage::Mine, stop));
                        Ok(v)
                    })
                    .unwrap();
                assert_eq!(v.degradations.len(), 1, "{stop}: the stopped build is returned");
            }
            assert_eq!(builds, 2, "{stop}: a clock-stopped build must not be stored");
        }
        assert_eq!(cache.hits(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_is_pass_through() {
        let cache = VariantCache::disabled();
        let v = spec_variant();
        cache.store(7, &v);
        assert!(cache.load(7).is_none());
        assert!(!cache.is_enabled());
    }

    #[test]
    fn key_separates_apps_and_configs() {
        let g = gaussian();
        let h = apex_apps::harris();
        let base = variant_cache_key(
            "specialized",
            "pe",
            &[&g],
            &[&g],
            Some(&MinerConfig::default()),
            Some(&SubgraphSelection::default()),
            Some(&MergeOptions::default()),
            Some(&TechModel::default()),
            &BTreeSet::new(),
        );
        let other_app = variant_cache_key(
            "specialized",
            "pe",
            &[&h],
            &[&h],
            Some(&MinerConfig::default()),
            Some(&SubgraphSelection::default()),
            Some(&MergeOptions::default()),
            Some(&TechModel::default()),
            &BTreeSet::new(),
        );
        let other_sel = variant_cache_key(
            "specialized",
            "pe",
            &[&g],
            &[&g],
            Some(&MinerConfig::default()),
            Some(&SubgraphSelection {
                per_app: 3,
                ..SubgraphSelection::default()
            }),
            Some(&MergeOptions::default()),
            Some(&TechModel::default()),
            &BTreeSet::new(),
        );
        assert_ne!(base, other_app);
        assert_ne!(base, other_sel);
    }

    #[test]
    fn namespaced_caches_do_not_share_entries() {
        let dir = std::env::temp_dir().join(format!("apex-cache-ns-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root = VariantCache::at(&dir);
        let v = spec_variant();
        let key = 0x5555_0000_1111_2222u64;
        let acme = root.namespaced("acme");
        let globex = root.namespaced("globex");
        acme.store(key, &v);
        assert!(acme.load(key).is_some(), "same-tenant load hits");
        assert!(globex.load(key).is_none(), "tenants must not share entries");
        assert!(root.load(key).is_none(), "root must not see tenant entries");
        // a second view of the same tenant shares the store
        assert!(root.namespaced("acme").load(key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_names_are_sanitized_to_safe_path_components() {
        assert_eq!(sanitize_tenant("acme-1"), "acme-1");
        assert_eq!(sanitize_tenant("../../etc/passwd"), ".._.._etc_passwd");
        assert_eq!(sanitize_tenant(""), "default");
        assert_eq!(sanitize_tenant(".."), "default");
        assert_eq!(sanitize_tenant("a/b\\c d"), "a_b_c_d");
        assert!(sanitize_tenant(&"x".repeat(200)).len() <= 64);
        // traversal can never survive sanitization
        assert!(!sanitize_tenant("../../x").contains('/'));
    }

    #[test]
    fn byte_cap_evicts_lru_with_corrupt_entries_first() {
        let dir = std::env::temp_dir().join(format!("apex-cache-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // three fake entries of 100 bytes each with staggered mtimes, plus
        // one quarantined file: cap at 250 must evict the corpse first,
        // then the stalest live entry
        let mk = |name: &str, age_s: u64| {
            let p = dir.join(name);
            std::fs::write(&p, [b'x'; 100]).unwrap();
            let t = std::time::SystemTime::now() - Duration::from_secs(age_s);
            std::fs::File::options()
                .write(true)
                .open(&p)
                .unwrap()
                .set_modified(t)
                .unwrap();
            p
        };
        let corrupt = mk("00000000000000aa.corrupt", 10); // newest, but corrupt
        let oldest = mk("00000000000000bb.var", 300);
        let middle = mk("00000000000000cc.var", 200);
        let newest = mk("00000000000000dd.var", 100);
        let cache = VariantCache::at(&dir).with_max_bytes(Some(250));
        assert_eq!(cache.total_bytes(), 400);
        let deleted = cache.evict_to_cap(250);
        assert_eq!(deleted, 2, "two files freed to get 400 under 250");
        assert!(!corrupt.exists(), "corrupt entries are evicted first");
        assert!(!oldest.exists(), "then the least-recently-used entry");
        assert!(middle.exists());
        assert!(newest.exists());
        assert_eq!(cache.evicted(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_enforces_cap_and_hits_refresh_recency() {
        let dir = std::env::temp_dir().join(format!("apex-cache-lru-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let v = spec_variant();
        let entry_bytes = encode_entry(&v).len() as u64;
        // cap fits two entries but not three
        let cache = VariantCache::at(&dir).with_max_bytes(Some(entry_bytes * 2 + entry_bytes / 2));
        cache.store(1, &v);
        std::thread::sleep(Duration::from_millis(20));
        cache.store(2, &v);
        std::thread::sleep(Duration::from_millis(20));
        // touch entry 1 so entry 2 is now the LRU victim
        assert!(cache.load(1).is_some());
        std::thread::sleep(Duration::from_millis(20));
        cache.store(3, &v);
        assert!(cache.load(1).is_some(), "recently-hit entry survives");
        assert!(cache.load(2).is_none(), "LRU entry was evicted");
        assert!(cache.load(3).is_some(), "just-stored entry survives");
        assert_eq!(cache.evicted(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["", "plain", "with space", "tab\tand\nnewline", "back\\slash"] {
            assert_eq!(unesc_tok(&esc_tok(s)), s);
            if !s.contains('\t') {
                assert_eq!(unesc_line(&esc_line(s)), s);
            }
        }
    }
}
