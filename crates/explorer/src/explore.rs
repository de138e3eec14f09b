//! Exhaustive exploration: the execution graph of a protocol.
//!
//! [`Explorer`] steps configurations *purely* (no mutable system), branching
//! on both sources of nondeterminism — which process moves, and which
//! admissible outcome a nondeterministic object picks. A fluent
//! [`Exploration`] builder ([`Explorer::exploration`]) builds the full
//! [`ExplorationGraph`] by breadth-first search with configuration
//! deduplication, up to a configurable limit. A complete graph
//! (`complete == true`) covers **every** execution of the protocol, which is
//! what turns the paper's universally-quantified properties into finite
//! checks.
//!
//! ```ignore
//! let graph = explorer
//!     .exploration()
//!     .limits(Limits::new(1_000_000))
//!     .threads(4)
//!     .on_progress(|level| eprintln!("level width {}", level.width))
//!     .run()?;
//! ```
//!
//! ## Engine
//!
//! There is one engine. Every run starts as a **sequential BFS** on the
//! calling thread: each node of a level is expanded against the live
//! dedup index and merged on the spot, so node indices are assigned in
//! FIFO order. This is the reference every other execution must match.
//!
//! When more than one thread is allowed ([`ExploreOptions::threads`]) and
//! the machine has more than one core, the run has already spent a fixed
//! multiple of the helper pool's spawn/join cost, and its nodes cost
//! enough each to repay the pool's per-node overhead (a bar that falls as
//! the helper count grows), the engine **recruits** helpers at the next
//! level boundary:
//! the remaining frontier is handed to a work-stealing pool (per-worker
//! Chase–Lev deques, DESIGN.md §12) that shares the run's index, interners
//! and memos as they are. Small graphs finish before the gate opens and
//! never pay for a thread; cheap, memory-bound raw graphs stay on the
//! calling thread, where they run fastest.
//!
//! Work stealing assigns indices in discovery order, so a handed-off
//! graph is **renumbered canonically** during assembly: one O(V+E) BFS
//! from the hand-off frontier, following each node's edges in their stored
//! `(pid, outcome)` order, gives every node the index the sequential BFS
//! would have given it. **Any thread count produces the identical graph**
//! — same configurations, same indices, same edges — and the stats that
//! describe its shape (levels, peak frontier, dedup hits) come from that
//! canonical pass. A hand-off that would truncate (the pool runs past
//! `max_configs`) or fails is rerun on the sequential engine, so the budget
//! keeps meaning "the first `max_configs` configurations in BFS order" and
//! an error is always the one the sequential BFS meets first.
//!
//! Deduplication never compares full configurations: object states and
//! process statuses are hash-consed into `u32` ids
//! ([`crate::intern::Interner`]), and a configuration is keyed by its short
//! id vector in a sharded index ([`crate::intern::ConcurrentIndex`]). The
//! sequential BFS and the pool's workers expand a node with the same code,
//! reaching these tables and the run's memos exclusively or shared.
//!
//! Every exploration reports [`ExploreStats`] — throughput, dedup rate,
//! frontier shape, per-level timing, the recruitment point — on the
//! resulting graph.

use crate::config::Configuration;
use crate::intern::{CompactConfig, ConcurrentIndex, Interner, SHARDS};
use crate::live::{EtaModel, LiveMetrics, ProgressWatcher};
use crate::sampling::SampleConfig;
use crate::stats::{
    duration_ns, duration_us, ExploreStats, LatencyHistograms, LevelStats, PhaseTimes, Recruit,
    WorkerStats,
};
use crate::symmetry::ConfigSymmetry;
use lbsa_core::spec::{ObjectSpec, Outcomes};
use lbsa_core::{AnyObject, AnyState, ObjId, Op, Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::process::{ProcStatus, Protocol, Symmetry};
use lbsa_support::deque as lfdeque;
use lbsa_support::hash::{FxHashMap, FxHasher};
use lbsa_support::json::Json;
use lbsa_support::obs::{Counter, HistogramNs, Registry, TimerNs, Tracer};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// A per-level progress callback, invoked by [`Exploration::run`] after
/// each BFS level with that level's [`LevelStats`].
type ProgressCallback<'e> = Box<dyn FnMut(&LevelStats) + 'e>;

/// Resource limits for exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of configurations to **expand** (compute successors
    /// of). When the reachable space is larger, the graph is returned
    /// truncated, with `complete == false`; discovered-but-unexpanded
    /// configurations stay in the graph with no outgoing edges.
    pub max_configs: usize,
}

impl Limits {
    /// Creates a limit on the number of expanded configurations.
    #[must_use]
    pub fn new(max_configs: usize) -> Self {
        Limits { max_configs }
    }
}

impl Default for Limits {
    /// Defaults to one million configurations — ample for the experiment
    /// instances, small enough to fail fast on runaway state spaces.
    fn default() -> Self {
        Limits {
            max_configs: 1_000_000,
        }
    }
}

/// Tuning knobs for one exploration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Resource limits (see [`Limits`]).
    pub limits: Limits,
    /// The most threads the run may use. `0` means auto: the
    /// `LBSA_EXPLORE_THREADS` environment variable if set, otherwise every
    /// core the machine offers (optionally capped by
    /// `LBSA_EXPLORE_MAX_THREADS`). `1` keeps the run on the calling
    /// thread. Above one, the engine recruits work-stealing helpers — one
    /// fewer than `threads` or than the machine's cores, whichever is
    /// smaller — once the run's measured cost makes them worth their
    /// spawn/join and per-node cost (see the module docs). The thread count
    /// never affects the resulting graph, only how fast it is built.
    pub threads: usize,
    /// Recruit the helpers at the root instead of waiting for the cost
    /// gate: a multi-threaded run then explores its whole graph on the
    /// work-stealing pool of exactly `threads` workers, even beyond the
    /// machine's cores. For tests pinning the hand-off and for benchmarking
    /// the pool itself; production runs should leave this off. Ignored
    /// when the run resolves to one thread.
    pub force_parallel: bool,
}

impl ExploreOptions {
    /// The concrete thread count this run will use.
    ///
    /// `0` resolves to `LBSA_EXPLORE_THREADS` if set, otherwise all
    /// available cores, capped by `LBSA_EXPLORE_MAX_THREADS` when that is
    /// set. The recruitment gate further caps the pool at the machine's
    /// cores (see [`ExploreOptions::threads`]); this count is what the run
    /// reports as `threads`.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        if let Some(n) = env_threads("LBSA_EXPLORE_THREADS") {
            return n;
        }
        let cores = available_cores();
        match env_threads("LBSA_EXPLORE_MAX_THREADS") {
            Some(cap) => cores.min(cap),
            None => cores,
        }
    }
}

/// The machine's core count, read once per process: the query costs
/// system calls and cgroup file reads (tens of microseconds), a visible
/// share of the small explorations the paper pipeline runs by the hundred.
fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// A positive thread count from an environment variable, if present and
/// parseable.
fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Estimated cost of spawning and joining one helper thread. Deliberately
/// pessimistic: recruiting too late costs a little throughput, recruiting
/// too early costs a regression on graphs that finish in milliseconds.
const SPAWN_JOIN_COST: Duration = Duration::from_micros(50);

/// How many times the helper pool's spawn/join cost a run must already
/// have spent on the calling thread before it recruits. The run's cost so
/// far is the engine's only cheap predictor of the cost still to come: a
/// graph that has not used this much by a level boundary is likely to
/// finish sooner than the pool would pay for itself.
const RECRUIT_MULTIPLE: u32 = 100;

/// The least a node of *every* level so far must have cost for one helper
/// to repay the pool's per-node overhead: its own bookkeeping plus
/// assembly and canonical renumbering, about half a microsecond per node
/// on raw graphs. Raw exploration is memory-bound at one to two
/// microseconds per node (up to ~25 on its first levels, while the memos
/// warm up) and allocation-heavy: on a 2-core Xeon host, two copies of
/// the 236k-config k-set run in two threads of one process get only
/// 1.25–1.4× the throughput of one (glibc's per-thread arenas trim and
/// fault their pages back in; two processes get up to 2×), and the pool
/// loses. Orbit canonicalization at hundreds of microseconds per node is
/// compute-bound and nearly doubles. Measured with one helper only; see
/// [`RecruitGate::new`] for more.
const POOL_NODE_COST: Duration = Duration::from_micros(50);

/// When a run recruits its work-stealing helpers, fixed when it starts.
#[derive(Clone, Copy, Debug)]
struct RecruitGate {
    /// Pool size once recruited: the calling thread plus its helpers.
    /// `1` means the run never recruits.
    workers: usize,
    /// Run time the run must have spent before recruiting: the pool's
    /// spawn/join cost times [`RECRUIT_MULTIPLE`].
    after: Duration,
    /// Cost per node every completed level must have reached.
    node_cost: Duration,
}

impl RecruitGate {
    /// The gate of a run allowed `threads` threads. The pool never holds
    /// more workers than the machine has cores: helpers beyond them would
    /// time-slice with the calling thread and only add overhead. The
    /// per-node bar falls in proportion to the helper count, since the
    /// gain on a costly node grows with the helpers and the per-node
    /// overhead does not. `force` (see [`ExploreOptions::force_parallel`])
    /// pins `threads` workers whatever the cores.
    fn new(threads: usize, force: bool) -> Self {
        let workers = if force {
            threads
        } else {
            threads.min(available_cores())
        };
        let helpers = u32::try_from(workers.saturating_sub(1)).unwrap_or(u32::MAX);
        RecruitGate {
            workers,
            after: SPAWN_JOIN_COST.saturating_mul(RECRUIT_MULTIPLE.saturating_mul(helpers)),
            node_cost: POOL_NODE_COST / helpers.max(1),
        }
    }

    /// Checked at each level boundary: the run has already cost enough to
    /// pay for spawning the pool, and each of its (at least two) completed
    /// levels cost enough per node to pay for the pool's per-node
    /// overhead. Judging every level rather than the average keeps one
    /// stalled level — a page-fault storm, the allocator consolidating a
    /// large freed graph, a preempted thread — from passing for expensive
    /// nodes.
    fn open(&self, elapsed: Duration, levels: &[LevelStats]) -> bool {
        let costly = |l: &LevelStats| {
            u32::try_from(l.width).is_ok_and(|w| l.elapsed >= self.node_cost.saturating_mul(w))
        };
        levels.len() >= 2 && elapsed >= self.after && levels.iter().all(costly)
    }
}

/// One labelled edge of the execution graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// The process that takes the step.
    pub pid: Pid,
    /// The index of the object outcome chosen (0 for deterministic objects).
    pub outcome: usize,
    /// Index of the target configuration.
    pub target: usize,
}

/// The (possibly truncated) execution graph of a protocol.
#[derive(Clone, Debug)]
pub struct ExplorationGraph<L> {
    /// All discovered configurations; index 0 is the initial configuration.
    pub configs: Vec<Configuration<L>>,
    /// Outgoing edges per configuration. Empty for unexpanded (frontier)
    /// configurations of a truncated graph and for terminal configurations.
    pub edges: Vec<Vec<Edge>>,
    /// `expanded[i]` is `true` if configuration `i`'s successors were
    /// computed (always true when `complete`).
    pub expanded: Vec<bool>,
    /// `true` if the whole reachable space was covered.
    pub complete: bool,
    /// Total number of transitions discovered.
    pub transitions: usize,
    /// Metrics of the exploration that built this graph. Timing fields vary
    /// run to run; everything structural is deterministic.
    pub stats: ExploreStats,
}

impl<L> ExplorationGraph<L> {
    /// Number of discovered configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Returns `true` if the graph holds no configurations (never the case
    /// for graphs built by [`Explorer::explore`], which always contain at
    /// least the initial configuration).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Approximate heap bytes held by the graph itself: the configuration
    /// and edge storage (shallow — per-configuration heap such as deep
    /// object states is estimated at one `Configuration` header each, not
    /// traversed). Feeds the `mem.graph_bytes` report metric.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let configs = self.configs.capacity() * std::mem::size_of::<Configuration<L>>();
        let edges: usize = self
            .edges
            .iter()
            .map(|e| e.capacity() * std::mem::size_of::<Edge>())
            .sum::<usize>()
            + self.edges.capacity() * std::mem::size_of::<Vec<Edge>>();
        configs + edges + self.expanded.capacity()
    }

    /// Iterates over the indices of terminal configurations (no process can
    /// step).
    pub fn terminal_indices(&self) -> impl Iterator<Item = usize> + '_
    where
        L: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    {
        self.configs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_terminal())
            .map(|(i, _)| i)
    }

    /// Structural equality: same configurations at the same indices, same
    /// edges, same expansion set, same completeness. Stats (timings) are
    /// deliberately ignored — this is the equality under which the engine
    /// guarantees thread-count independence.
    #[must_use]
    pub fn same_structure(&self, other: &Self) -> bool
    where
        L: PartialEq,
    {
        self.configs == other.configs
            && self.edges == other.edges
            && self.expanded == other.expanded
            && self.complete == other.complete
            && self.transitions == other.transitions
    }

    /// A hash over the graph's structural content (configurations, edges,
    /// expansion set, completeness) — a cheap fingerprint for determinism
    /// checks across runs and thread counts.
    #[must_use]
    pub fn structural_digest(&self) -> u64
    where
        L: std::hash::Hash,
    {
        use std::hash::{Hash, Hasher};
        let mut h = lbsa_support::hash::FxHasher::default();
        self.configs.hash(&mut h);
        self.edges.hash(&mut h);
        self.expanded.hash(&mut h);
        self.complete.hash(&mut h);
        self.transitions.hash(&mut h);
        h.finish()
    }

    /// Returns `true` if the graph contains a cycle reachable from the
    /// initial configuration (iterative three-color DFS).
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        self.find_cycle().is_some()
    }

    /// Finds a cycle if one exists: returns the index of a configuration
    /// that lies on a cycle.
    #[must_use]
    pub fn find_cycle(&self) -> Option<usize> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; self.configs.len()];
        // Iterative DFS: stack of (node, next-edge-index).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = Color::Grey;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < self.edges[node].len() {
                let target = self.edges[node][*next].target;
                *next += 1;
                match color[target] {
                    Color::Grey => return Some(target),
                    Color::White => {
                        color[target] = Color::Grey;
                        stack.push((target, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
        None
    }

    /// BFS depth of each configuration from the initial one (`None` for
    /// configurations unreachable through recorded edges — only possible in
    /// truncated graphs).
    #[must_use]
    pub fn depths(&self) -> Vec<Option<usize>> {
        let mut depth = vec![None; self.configs.len()];
        depth[0] = Some(0);
        let mut queue = VecDeque::from([0usize]);
        while let Some(node) = queue.pop_front() {
            let d = depth[node].expect("queued nodes have depths");
            for e in &self.edges[node] {
                if depth[e.target].is_none() {
                    depth[e.target] = Some(d + 1);
                    queue.push_back(e.target);
                }
            }
        }
        depth
    }

    /// Renders the graph in Graphviz DOT format. `label` produces each
    /// node's label; terminal configurations are drawn as double circles,
    /// the initial configuration as a box.
    #[must_use]
    pub fn to_dot<F>(&self, mut label: F) -> String
    where
        L: Clone + Eq + std::hash::Hash + std::fmt::Debug,
        F: FnMut(usize, &Configuration<L>) -> String,
    {
        use std::fmt::Write as _;
        let mut out = String::from("digraph execution {\n  rankdir=LR;\n");
        for (i, config) in self.configs.iter().enumerate() {
            let text = label(i, config).replace('"', "'");
            let shape = if i == 0 {
                "box"
            } else if config.is_terminal() {
                "doublecircle"
            } else {
                "ellipse"
            };
            let _ = writeln!(out, "  n{i} [label=\"{text}\", shape={shape}];");
        }
        for (i, edges) in self.edges.iter().enumerate() {
            for e in edges {
                let _ = writeln!(
                    out,
                    "  n{i} -> n{} [label=\"{}/{}\"];",
                    e.target, e.pid, e.outcome
                );
            }
        }
        out.push_str("}\n");
        out
    }

    /// Reconstructs a path (as a list of edges) from the initial
    /// configuration to `target` by BFS.
    #[must_use]
    pub fn path_to(&self, target: usize) -> Option<Vec<Edge>> {
        self.bfs_path(|_| true, |node| node == target)
    }

    /// The BFS-shortest path from the initial configuration to the first
    /// node `hit` accepts, following only the edges `follow` admits. A
    /// predecessor is stored as a node index alone — the edge taken is its
    /// first admitted edge into the node — so the search costs one word
    /// per configuration.
    pub(crate) fn bfs_path(
        &self,
        follow: impl Fn(&Edge) -> bool,
        hit: impl Fn(usize) -> bool,
    ) -> Option<Vec<Edge>> {
        const UNSEEN: usize = usize::MAX;
        if hit(0) {
            return Some(Vec::new());
        }
        let mut pred = vec![UNSEEN; self.configs.len()];
        pred[0] = 0;
        let mut found = None;
        let mut queue = VecDeque::from([0usize]);
        'bfs: while let Some(node) = queue.pop_front() {
            for e in self.edges[node].iter().filter(|e| follow(e)) {
                if pred[e.target] == UNSEEN {
                    pred[e.target] = node;
                    if hit(e.target) {
                        found = Some(e.target);
                        break 'bfs;
                    }
                    queue.push_back(e.target);
                }
            }
        }
        let mut cur = found?;
        let mut path = Vec::new();
        while cur != 0 {
            let prev = pred[cur];
            path.push(
                *self.edges[prev]
                    .iter()
                    .find(|e| e.target == cur && follow(e))?,
            );
            cur = prev;
        }
        path.reverse();
        Some(path)
    }
}

/// A sharded, lock-guarded memo: the store behind a run's transition memo
/// and its canon memo (see [`Tables`]). The sequential BFS reaches it
/// through `&mut` and takes no lock; pool workers share it by reference
/// and take the shard locks. So do the lookup counters: an atomic add
/// per lookup is a visible share of a small sequential run.
struct Memo<K, V> {
    shards: [RwLock<FxHashMap<K, V>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V> Memo<K, V> {
    fn new() -> Self {
        Memo {
            shards: std::array::from_fn(|_| RwLock::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of<Q: Hash + ?Sized>(key: &Q) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }

    /// Applies `read` to `key`'s entry under its shard's read lock.
    fn get<Q, R>(&self, key: &Q, read: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard = self.shards[Self::shard_of(key)].read();
        let found = shard.expect("memo lock poisoned").get(key).map(read);
        let count = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        count.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`Memo::get`] for exclusive access (no lock).
    fn get_mut<Q, R>(&mut self, key: &Q, read: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard = self.shards[Self::shard_of(key)].get_mut();
        let found = shard.expect("memo lock poisoned").get(key).map(read);
        let count = if found.is_some() {
            &mut self.hits
        } else {
            &mut self.misses
        };
        *count.get_mut() += 1;
        found
    }

    fn insert(&self, key: K, value: V) {
        let shard = &self.shards[Self::shard_of(&key)];
        shard
            .write()
            .expect("memo lock poisoned")
            .insert(key, value);
    }

    /// [`Memo::insert`] for exclusive access (no lock).
    fn insert_mut(&mut self, key: K, value: V) {
        let shard = self.shards[Self::shard_of(&key)].get_mut();
        shard.expect("memo lock poisoned").insert(key, value);
    }
}

/// The interned `(object-state id, proc-status id)` outcome pairs of one
/// step, in outcome order.
type Pairs = Box<[(u32, u32)]>;

/// One canon-memo entry: the canonical compact key and its configuration.
type CanonEntry<L> = (CompactConfig, Arc<Configuration<L>>);

/// The lookup tables of one run. Every node expansion reads and fills
/// them, on the sequential BFS and on the work-stealing pool it hands off
/// to, which takes them over as they stand.
struct Tables<L> {
    states: Interner<AnyState>,
    procs: Interner<ProcStatus<L>>,
    index: ConcurrentIndex,
    /// The transition memo. By the determinism contract the successors of
    /// one `(pid, local state, object state)` triple are a pure function,
    /// and after interning the triple is three integers. The memo maps
    /// `(object-state id, proc-status id, pid)` to the interned
    /// `(object-state, proc-status)` id pairs of the successors, in outcome
    /// order, so a recurring step (retry loops revisit the same local state
    /// against the same object state from thousands of configurations)
    /// runs neither the specification nor the protocol.
    steps: Memo<(u32, u32, u32), Pairs>,
    /// The canon memo of a symmetry-reduced run: a raw successor's
    /// delta-patched key (the parent's canonical key with the stepped
    /// slots replaced) to the successor's canonical key and configuration.
    /// Every node is canonical, so the patched key determines the raw
    /// successor; retry loops and diamond interleavings reproduce the same
    /// patched keys from thousands of parents, and on a hit neither the raw
    /// successor nor the orbit computation is needed.
    canon: Memo<CompactConfig, CanonEntry<L>>,
    /// Estimated heap bytes of the canon memo, tracked at insert time (O(1)
    /// to read, so a live watcher can poll it).
    canon_bytes: Counter,
}

impl<L: Clone + Eq + Hash> Tables<L> {
    fn new() -> Self {
        Tables {
            states: Interner::new(),
            procs: Interner::new(),
            index: ConcurrentIndex::new(),
            steps: Memo::new(),
            canon: Memo::new(),
            canon_bytes: Counter::new(),
        }
    }

    /// Estimated heap bytes of the two interners.
    fn interner_bytes(&self) -> usize {
        self.states.approx_bytes() + self.procs.approx_bytes()
    }

    /// Accounts one canon-memo entry: key payloads plus a shallow
    /// `Configuration`, 16 bytes per `Arc` header and 24 assumed map-slot
    /// overhead, matching the estimate discipline of
    /// `Interner::approx_bytes`.
    fn account_canon(&self, raw: &[u32], entry: &CanonEntry<L>) {
        let bytes = 2 * 16
            + 24
            + (raw.len() + entry.0.len()) * std::mem::size_of::<u32>()
            + std::mem::size_of::<(CompactConfig, CanonEntry<L>)>()
            + std::mem::size_of::<Configuration<L>>();
        self.canon_bytes.add(bytes as u64);
    }
}

/// How [`Explorer::expand`] reaches a run's [`Tables`]. `&mut Tables` is
/// the sequential BFS's exclusive access: it takes no lock, and a
/// transition-memo hit touches no reference count. [`Shared`] is a pool
/// worker's: shard locks, behind a private L1 of the transition memo.
trait Access<L> {
    fn intern_state(&mut self, state: &AnyState) -> u32;
    fn intern_proc(&mut self, status: &ProcStatus<L>) -> u32;
    /// The object state and the process status behind two interned ids.
    fn resolve(&mut self, state: u32, proc: u32) -> (AnyState, ProcStatus<L>);
    /// Copies the memoized outcome pairs of `step` into `out`; `false` on
    /// a miss.
    fn pairs(&mut self, step: (u32, u32, u32), out: &mut Vec<(u32, u32)>) -> bool;
    fn remember_pairs(&mut self, step: (u32, u32, u32), pairs: Pairs);
    fn canon(&mut self, raw: &[u32]) -> Option<CanonEntry<L>>;
    fn remember_canon(&mut self, raw: &[u32], entry: CanonEntry<L>);
    /// `key`'s node index, and `true` if this call claimed it: the claimer
    /// owns the node and must record and schedule it.
    fn claim(&mut self, key: &[u32]) -> (u32, bool);
}

/// Replaces `out`'s contents with `pairs`.
fn copy_pairs(pairs: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    out.clear();
    out.extend_from_slice(pairs);
}

impl<L: Clone + Eq + Hash> Access<L> for Tables<L> {
    fn intern_state(&mut self, state: &AnyState) -> u32 {
        self.states.intern_mut(state)
    }

    fn intern_proc(&mut self, status: &ProcStatus<L>) -> u32 {
        self.procs.intern_mut(status)
    }

    fn resolve(&mut self, state: u32, proc: u32) -> (AnyState, ProcStatus<L>) {
        let state = self.states.resolve_mut(state).clone();
        (state, self.procs.resolve_mut(proc).clone())
    }

    fn pairs(&mut self, step: (u32, u32, u32), out: &mut Vec<(u32, u32)>) -> bool {
        self.steps.get_mut(&step, |p| copy_pairs(p, out)).is_some()
    }

    fn remember_pairs(&mut self, step: (u32, u32, u32), pairs: Pairs) {
        self.steps.insert_mut(step, pairs);
    }

    fn canon(&mut self, raw: &[u32]) -> Option<CanonEntry<L>> {
        self.canon.get_mut(raw, Clone::clone)
    }

    fn remember_canon(&mut self, raw: &[u32], entry: CanonEntry<L>) {
        self.account_canon(raw, &entry);
        self.canon.insert_mut(raw.into(), entry);
    }

    fn claim(&mut self, key: &[u32]) -> (u32, bool) {
        self.index.get_or_insert_mut(key)
    }
}

/// A pool worker's access to the run's [`Tables`]: shared, through the
/// shard locks, with a private L1 in front of the transition memo. Repeat
/// steps, the common case on dense graphs, resolve with a plain map lookup
/// instead of a shard lock; the shared memo stays the source of truth, so
/// workers still reuse each other's first computations.
struct Shared<'t, L> {
    tables: &'t Tables<L>,
    l1: FxHashMap<(u32, u32, u32), Pairs>,
    l1_hits: u64,
}

impl<L: Clone + Eq + Hash> Access<L> for Shared<'_, L> {
    fn intern_state(&mut self, state: &AnyState) -> u32 {
        self.tables.states.intern(state)
    }

    fn intern_proc(&mut self, status: &ProcStatus<L>) -> u32 {
        self.tables.procs.intern(status)
    }

    fn resolve(&mut self, state: u32, proc: u32) -> (AnyState, ProcStatus<L>) {
        let state = self.tables.states.resolve_with(state, Clone::clone);
        (state, self.tables.procs.resolve_with(proc, Clone::clone))
    }

    fn pairs(&mut self, step: (u32, u32, u32), out: &mut Vec<(u32, u32)>) -> bool {
        if let Some(pairs) = self.l1.get(&step) {
            self.l1_hits += 1;
            copy_pairs(pairs, out);
            return true;
        }
        let Some(pairs) = self.tables.steps.get(&step, Clone::clone) else {
            return false;
        };
        copy_pairs(&pairs, out);
        self.l1.insert(step, pairs);
        true
    }

    fn remember_pairs(&mut self, step: (u32, u32, u32), pairs: Pairs) {
        self.l1.insert(step, pairs.clone());
        self.tables.steps.insert(step, pairs);
    }

    fn canon(&mut self, raw: &[u32]) -> Option<CanonEntry<L>> {
        self.tables.canon.get(raw, Clone::clone)
    }

    fn remember_canon(&mut self, raw: &[u32], entry: CanonEntry<L>) {
        self.tables.account_canon(raw, &entry);
        self.tables.canon.insert(raw.into(), entry);
    }

    fn claim(&mut self, key: &[u32]) -> (u32, bool) {
        self.tables.index.get_or_insert(key)
    }
}

/// Interns every component of `config` into a compact id vector:
/// object-state ids followed by process-status ids.
fn compact<L, A: Access<L>>(config: &Configuration<L>, tables: &mut A) -> CompactConfig {
    let mut key = Vec::with_capacity(config.object_states.len() + config.procs.len());
    key.extend(config.object_states.iter().map(|s| tables.intern_state(s)));
    key.extend(config.procs.iter().map(|p| tables.intern_proc(p)));
    key.into()
}

/// `parent` with object `obj`'s state and process `pid`'s status replaced,
/// built from parts: the two replaced slots are never cloned.
fn patched<L: Clone>(
    parent: &Configuration<L>,
    obj: usize,
    state: AnyState,
    pid: usize,
    status: ProcStatus<L>,
) -> Configuration<L> {
    let (mut state, mut status) = (Some(state), Some(status));
    Configuration {
        object_states: (parent.object_states.iter().enumerate())
            .map(|(j, s)| match state.take_if(|_| j == obj) {
                Some(state) => state,
                None => s.clone(),
            })
            .collect(),
        procs: (parent.procs.iter().enumerate())
            .map(|(j, p)| match status.take_if(|_| j == pid) {
                Some(status) => status,
                None => p.clone(),
            })
            .collect(),
    }
}

/// Per-node buffers of [`Explorer::expand`], reused for every node one
/// thread expands: the successor key being patched, the current step's
/// outcome pairs, and the node's edges.
#[derive(Default)]
struct Scratch {
    key: Vec<u32>,
    pairs: Vec<(u32, u32)>,
    edges: Vec<Edge>,
}

/// One pending node of the work-stealing pool: its assigned index, its
/// compact dedup key (the delta-interning base for its successors), and
/// its configuration, which rides the deque by value — the worker that
/// expands the task moves it into the assembly set.
struct WsTask<L> {
    id: u32,
    key: CompactConfig,
    config: Configuration<L>,
}

/// Backoff thresholds of the work-stealing idle loop, in consecutive
/// failed sweeps: the first [`WS_SPIN_ROUNDS`] failures spin-wait, the
/// next [`WS_YIELD_ROUNDS`] yield the core, and everything past that
/// parks the thread for [`WS_PARK`] between quiescence re-checks — so a
/// worker can burn at most `WS_SPIN_ROUNDS + WS_YIELD_ROUNDS` sweeps of
/// CPU per idle episode before it starts sleeping.
const WS_SPIN_ROUNDS: u32 = 6;
/// See [`WS_SPIN_ROUNDS`].
const WS_YIELD_ROUNDS: u32 = 10;
/// How long an exhausted worker parks between quiescence re-checks. No
/// unpark signal exists (quiescence is detected by polling `pending`),
/// so the timeout bounds both the wasted CPU and the wake-up latency.
const WS_PARK: Duration = Duration::from_micros(100);
/// Upper bound on tasks transferred by one batched steal.
const WS_STEAL_MAX: usize = 32;

/// What one work-stealing worker hands back at join besides its
/// [`WorkerStats`]: the sub-graph it built. Node indices come from the
/// shared [`ConcurrentIndex`], so the per-worker pieces assemble by index.
struct WsWorkerOut<L> {
    /// Flat pool of every edge this worker emitted, in expansion order —
    /// one growing allocation instead of a `Vec` per task.
    edge_pool: Vec<Edge>,
    /// `(node, start, len, configuration)` for every node this worker
    /// expanded: its slice of [`WsWorkerOut::edge_pool`], and its
    /// configuration — ownership rides the task, so the record is made
    /// where it ends.
    nodes: Vec<(u32, u32, u32, Configuration<L>)>,
    /// Transition-memo hits served by this worker's private L1 map
    /// without touching the shared memo.
    memo_l1_hits: u64,
}

/// Canonicalizes through the optional probe timer: traced runs clock the
/// call into the canonicalization-phase accumulator, untraced runs pay
/// nothing beyond the `Option` check (overhead policy: no per-successor
/// clock reads unless a tracer asked for them).
///
/// Goes through [`ConfigSymmetry::canonicalize_incremental`]: engine inputs
/// are one-step patches of canonical parents, the access pattern the lazy
/// already-minimal check is built for. Both its branches return the same
/// representative, so graphs stay byte-identical.
fn timed_canonicalize<L: Clone>(
    sym: &ConfigSymmetry<'_, L>,
    config: &Configuration<L>,
    probe: Option<&CanonProbe>,
) -> Configuration<L> {
    match probe {
        Some(p) => {
            let t0 = Instant::now();
            let canon = sym.canonicalize_incremental(config);
            let elapsed = t0.elapsed();
            p.timer.record(elapsed);
            p.hist.record(elapsed);
            canon
        }
        None => sym.canonicalize_incremental(config),
    }
}

/// The run-scoped accounting of one attempt at a run: the symmetry
/// counters as the attempt found them, and the latency stores it fills.
struct Accounting {
    canon_calls: u64,
    canon_fast: u64,
    canon_full: u64,
    /// Per-call canonicalization timing means a clock read per successor,
    /// so by the overhead policy it runs only under an attached tracer;
    /// untraced runs report `PhaseTimes::canonicalize == 0`.
    canon: CanonProbe,
    /// Per-level latency distributions: the level clocks are read anyway,
    /// so these are always on.
    hists: LatencyHistograms,
}

impl Accounting {
    fn new<L: Clone>(sym: Option<&ConfigSymmetry<'_, L>>) -> Self {
        Accounting {
            canon_calls: sym.map_or(0, ConfigSymmetry::canon_calls),
            canon_fast: sym.map_or(0, ConfigSymmetry::canon_fast_hits),
            canon_full: sym.map_or(0, ConfigSymmetry::canon_full_calls),
            canon: CanonProbe::default(),
            hists: LatencyHistograms::default(),
        }
    }
}

/// The per-call canonicalization probe behind [`timed_canonicalize`],
/// attached only when a tracer is enabled (overhead policy): the timer
/// totals into [`PhaseTimes::canonicalize`], the histogram becomes the
/// `hist.canonicalize` latency distribution of the run's stats.
#[derive(Default)]
struct CanonProbe {
    timer: TimerNs,
    hist: HistogramNs,
}

/// The state of one exhaustive run: what the sequential BFS builds level
/// by level, and what a work-stealing hand-off takes over as it stands.
struct Run<L> {
    tables: Tables<L>,
    /// Every discovered configuration, by node index.
    configs: Vec<Configuration<L>>,
    /// Outgoing edges of the expanded nodes `0..edges.len()`. BFS expands
    /// in index order, so the expanded set is always a prefix.
    edges: Vec<Vec<Edge>>,
    /// Compact keys of the next level — the nodes
    /// `edges.len()..configs.len()`, in index order — back to back in one
    /// buffer, one key length each.
    frontier: Vec<u32>,
    transitions: usize,
    dedup_hits: usize,
    peak_frontier: usize,
    levels: Vec<LevelStats>,
    /// Time spent expanding: sequential levels plus the pool's run.
    expand: Duration,
}

/// What a work-stealing hand-off adds to a run's stats.
struct WsReport {
    recruit: Recruit,
    workers: Vec<WorkerStats>,
    memo_l1_hits: u64,
    /// Assembly and canonical renumbering.
    merge: Duration,
}

/// How a sequential BFS ended.
enum Finished<L> {
    /// The graph is built; `ws` describes the pool if one was recruited.
    Built {
        run: Box<Run<L>>,
        complete: bool,
        ws: Option<WsReport>,
    },
    /// The hand-off at `Recruit` truncated or failed: the run must be
    /// redone sequentially from `root` (the graph's root, already
    /// canonical under symmetry reduction, where canonicalizing again
    /// changes nothing).
    Rerun {
        recruit: Recruit,
        root: Configuration<L>,
    },
}

/// Everything about one exhaustive run that stays fixed while it runs.
struct RunCtx<'r, 'p, L> {
    limits: Limits,
    force: bool,
    gate: RecruitGate,
    sym: Option<&'r ConfigSymmetry<'p, L>>,
    tracer: &'r Tracer,
    live: Option<&'r LiveMetrics>,
    canon_probe: Option<&'r CanonProbe>,
    hists: &'r LatencyHistograms,
    started: Instant,
}

/// Emits one finished level's `level` trace event and feeds it to the
/// progress callback. `pooled` marks levels the work-stealing pool
/// expanded: their shape comes from the canonical renumbering pass, and
/// they carry no clock of their own.
fn report_level(
    tracer: &Tracer,
    on_progress: &mut Option<ProgressCallback<'_>>,
    level: &LevelStats,
    new: usize,
    pooled: bool,
) {
    tracer.emit_with("level", || {
        Json::object()
            .set("level", level.level)
            .set("width", level.width)
            .set("transitions", level.transitions)
            .set("dedup", level.transitions - new)
            .set("elapsed_us", duration_us(level.elapsed))
            .set("pooled", pooled)
    });
    if let Some(cb) = on_progress.as_mut() {
        cb(level);
    }
}

/// A pure, replayable stepper over a protocol's configurations.
#[derive(Debug)]
pub struct Explorer<'a, P: Protocol> {
    protocol: &'a P,
    objects: &'a [AnyObject],
    tracer: Tracer,
    registry: Option<Registry>,
}

impl<'a, P: Protocol> Explorer<'a, P> {
    /// Creates an explorer for `protocol` over `objects`, with tracing
    /// disabled (attach a sink with [`Explorer::with_trace`]).
    #[must_use]
    pub fn new(protocol: &'a P, objects: &'a [AnyObject]) -> Self {
        Explorer {
            protocol,
            objects,
            tracer: Tracer::disabled(),
            registry: None,
        }
    }

    /// Attaches a [`Tracer`]: every exploration and check started from
    /// this explorer, and every witness replayed against it, emits its
    /// events through it. A per-run override is available on the builder
    /// ([`Exploration::trace`]).
    #[must_use]
    pub fn with_trace(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a live-metrics [`Registry`]: every exploration started
    /// from this explorer (checks included) publishes its live counters
    /// and gauges there, exactly as if [`Exploration::registry`] had been
    /// called on each builder.
    #[must_use]
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The attached tracer ([`Tracer::disabled`] unless
    /// [`Explorer::with_trace`] was called).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The protocol being explored.
    #[must_use]
    pub fn protocol(&self) -> &P {
        self.protocol
    }

    /// The object table.
    #[must_use]
    pub fn objects(&self) -> &[AnyObject] {
        self.objects
    }

    /// The initial configuration.
    #[must_use]
    pub fn initial_config(&self) -> Configuration<P::LocalState> {
        Configuration {
            object_states: self.objects.iter().map(ObjectSpec::initial_state).collect(),
            procs: (0..self.protocol.num_processes())
                .map(|i| ProcStatus::Running(self.protocol.init(Pid(i))))
                .collect(),
        }
    }

    /// What `pid` does next from `config`: its running local state, the
    /// object and operation it applies, and the object's admissible
    /// outcomes. The checks behind [`Explorer::successors_of`],
    /// [`Explorer::step`] and the engine's transition-memo misses.
    #[allow(clippy::type_complexity)]
    fn outcomes_of<'c>(
        &self,
        config: &'c Configuration<P::LocalState>,
        pid: Pid,
    ) -> Result<(&'c P::LocalState, ObjId, Op, Outcomes<AnyState>), RuntimeError> {
        let local = match config.procs.get(pid.index()) {
            None => {
                return Err(RuntimeError::PidOutOfRange {
                    pid,
                    len: config.procs.len(),
                })
            }
            Some(ProcStatus::Running(s)) => s,
            Some(_) => return Err(RuntimeError::ProcessNotRunning(pid)),
        };
        let (obj, op) = self.protocol.pending_op(pid, local);
        let spec = self
            .objects
            .get(obj.index())
            .ok_or(RuntimeError::ObjIdOutOfRange {
                obj,
                len: self.objects.len(),
            })?;
        let outs = spec.outcomes(&config.object_states[obj.index()], &op)?;
        Ok((local, obj, op, outs))
    }

    /// All configurations reachable from `config` by one step of `pid`, one
    /// per admissible object outcome (in outcome order).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ProcessNotRunning`] if `pid` cannot step, and
    /// propagates specification errors.
    pub fn successors_of(
        &self,
        config: &Configuration<P::LocalState>,
        pid: Pid,
    ) -> Result<Vec<Configuration<P::LocalState>>, RuntimeError> {
        let (local, obj, _, outs) = self.outcomes_of(config, pid)?;
        Ok(outs
            .into_iter()
            .map(|(response, state)| {
                let status = self.protocol.on_response(pid, local, response).into();
                patched(config, obj.index(), state, pid.index(), status)
            })
            .collect())
    }

    /// Replays one chosen step: `pid` takes its pending operation and the
    /// object resolves to its `outcome`-th admissible result (0 for
    /// deterministic objects). Returns the successor configuration together
    /// with what happened at the object — the raw material for a replayable
    /// [`lbsa_runtime::trace::TraceEvent`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::OutcomeOutOfRange`] if the object admits
    /// fewer than `outcome + 1` results, plus every error
    /// [`Explorer::successors_of`] can raise.
    pub fn step(
        &self,
        config: &Configuration<P::LocalState>,
        pid: Pid,
        outcome: usize,
    ) -> Result<StepRecord<P::LocalState>, RuntimeError> {
        let (local, obj, op, outs) = self.outcomes_of(config, pid)?;
        let len = outs.len();
        let (response, state) = outs
            .into_iter()
            .nth(outcome)
            .ok_or(RuntimeError::OutcomeOutOfRange { obj, outcome, len })?;
        let status = self.protocol.on_response(pid, local, response).into();
        Ok(StepRecord {
            config: patched(config, obj.index(), state, pid.index(), status),
            obj,
            op,
            response,
        })
    }

    /// Starts a fluent [`Exploration`] of this explorer's protocol.
    ///
    /// This is the single entry point to the engine: configure the run with
    /// the builder, then finish with [`Exploration::run`] for the raw graph
    /// or a checking terminal ([`Exploration::check_consensus`],
    /// [`Exploration::check_k_set_agreement`], [`Exploration::check_dac`],
    /// [`Exploration::check_wait_free`]) for a [`Verdict`](crate::Verdict).
    pub fn exploration(&self) -> Exploration<'_, 'a, P> {
        Exploration {
            explorer: self,
            from: None,
            options: ExploreOptions::default(),
            on_progress: None,
            symmetry: None,
            tracer: None,
            sample: None,
            registry: self.registry.clone(),
            progress_every: None,
        }
    }

    /// The engine: builds the execution graph reachable from `initial`.
    ///
    /// Starts on the sequential BFS, may recruit work-stealing helpers at a
    /// level boundary (see the module docs), and reruns sequentially when a
    /// hand-off truncates or fails. The graph is identical for every thread
    /// count; so is the error a failing run reports — the one the
    /// sequential BFS meets first.
    fn run_engine(
        &self,
        initial: Configuration<P::LocalState>,
        options: ExploreOptions,
        mut on_progress: Option<ProgressCallback<'_>>,
        sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
        tracer: &Tracer,
        live: Option<&LiveMetrics>,
    ) -> Result<ExplorationGraph<P::LocalState>, RuntimeError> {
        let started = Instant::now();
        let threads = options.resolved_threads();
        let limits = options.limits;
        if let Some(live) = live {
            live.workers.set_usize(1);
        }
        let gate = RecruitGate::new(threads, options.force_parallel);
        tracer.emit_with("explore.begin", || {
            Json::object()
                .set("threads", threads)
                .set("max_configs", limits.max_configs)
                .set("force_parallel", options.force_parallel)
                .set("reduced", sym.is_some())
                .set("pool_workers", gate.workers)
                .set("recruit_after_us", duration_us(gate.after))
                .set("recruit_node_ns", duration_ns(gate.node_cost))
        });
        // One attempt, or two when a hand-off is abandoned and the run is
        // redone sequentially. Each attempt starts its run-scoped accounting
        // afresh, so the stats describe the attempt that built the graph.
        let mut root = initial;
        let mut rerun_of: Option<Recruit> = None;
        let (run, complete, ws, recruit, acct) = loop {
            let acct = Accounting::new(sym);
            let ctx = RunCtx {
                limits,
                force: options.force_parallel,
                gate,
                sym,
                tracer,
                live,
                canon_probe: tracer.enabled().then_some(&acct.canon),
                hists: &acct.hists,
                started,
            };
            // The rerun's levels before the recruit point were reported
            // once, by the abandoned attempt, and stay quiet.
            let quiet = rerun_of.map_or(0, |r| r.level);
            let may_recruit = gate.workers > 1 && rerun_of.is_none();
            match self.bfs(root, &ctx, may_recruit, &mut on_progress, quiet)? {
                Finished::Built { run, complete, ws } => {
                    let recruit = rerun_of.or_else(|| ws.as_ref().map(|w| w.recruit));
                    break (run, complete, ws, recruit, acct);
                }
                Finished::Rerun { recruit, root: r } => {
                    // Live counters already hold the abandoned attempt.
                    if let Some(live) = live {
                        live.workers.set_usize(1);
                        live.mem_deques.set(0);
                    }
                    root = r;
                    rerun_of = Some(Recruit {
                        rerun: true,
                        ..recruit
                    });
                }
            }
        };

        let Run {
            tables,
            configs,
            mut edges,
            transitions,
            dedup_hits,
            peak_frontier,
            levels,
            expand,
            ..
        } = *run;
        let expanded_count = edges.len();
        edges.resize_with(configs.len(), Vec::new);
        let expanded: Vec<bool> = (0..configs.len()).map(|i| i < expanded_count).collect();
        let (merge, memo_l1_hits, workers) = ws.map_or((Duration::ZERO, 0, Vec::new()), |w| {
            (w.merge, w.memo_l1_hits, w.workers)
        });
        let stats = ExploreStats {
            configs: configs.len(),
            expanded: expanded_count,
            transitions,
            dedup_hits,
            distinct_object_states: tables.states.len(),
            distinct_proc_statuses: tables.procs.len(),
            peak_frontier,
            threads,
            recruit,
            reduced: sym.is_some(),
            elapsed: started.elapsed(),
            phases: PhaseTimes {
                expand,
                merge,
                canonicalize: acct.canon.timer.total(),
            },
            memo_hits: tables.steps.hits.load(Ordering::Relaxed) + memo_l1_hits,
            memo_misses: tables.steps.misses.load(Ordering::Relaxed),
            intern_hits: tables.states.hits() + tables.procs.hits(),
            intern_misses: tables.states.misses() + tables.procs.misses(),
            canon_calls: sym.map_or(0, ConfigSymmetry::canon_calls) - acct.canon_calls,
            canon_patches: (sym.map_or(0, ConfigSymmetry::canon_fast_hits) - acct.canon_fast)
                + tables.canon.hits.load(Ordering::Relaxed),
            canon_full: sym.map_or(0, ConfigSymmetry::canon_full_calls) - acct.canon_full,
            interner_bytes: tables.interner_bytes(),
            index_bytes: tables.index.approx_bytes(),
            levels,
            workers,
            hist: {
                acct.hists.canonicalize.merge(&acct.canon.hist);
                acct.hists
            },
        };
        if let Some(live) = live {
            live.frontier_depth.set(0);
            live.mem_interner.set_usize(stats.interner_bytes);
            live.mem_index.set_usize(stats.index_bytes);
        }
        tracer.emit_with("explore.end", || stats.to_json());
        Ok(ExplorationGraph {
            configs,
            edges,
            expanded,
            complete,
            transitions,
            stats,
        })
    }

    /// The sequential BFS from `initial`: expands one level at a time on
    /// the calling thread, merging every successor into the live index on
    /// the spot. With `may_recruit`, checks the recruitment gate at each
    /// level boundary and hands the frontier to [`Explorer::work_steal`]
    /// once it opens. Levels below `quiet_levels` were already reported by
    /// an abandoned hand-off and emit no events or callbacks.
    fn bfs(
        &self,
        initial: Configuration<P::LocalState>,
        ctx: &RunCtx<'_, '_, P::LocalState>,
        may_recruit: bool,
        on_progress: &mut Option<ProgressCallback<'_>>,
        quiet_levels: usize,
    ) -> Result<Finished<P::LocalState>, RuntimeError> {
        // Under symmetry reduction every graph node is the canonical
        // representative of its orbit, starting with the root.
        let initial = match ctx.sym {
            Some(s) => s.canonicalize(&initial),
            None => initial,
        };
        let mut run = Run {
            tables: Tables::new(),
            configs: Vec::new(),
            edges: Vec::new(),
            frontier: Vec::new(),
            transitions: 0,
            dedup_hits: 0,
            peak_frontier: 0,
            levels: Vec::new(),
            expand: Duration::ZERO,
        };
        let initial_key = compact(&initial, &mut run.tables);
        run.tables.claim(&initial_key);
        run.configs.push(initial);
        run.frontier.extend_from_slice(&initial_key);
        let key_len = initial_key.len();
        let mut complete = true;
        // Per-node buffers, and the configurations a node's expansion
        // claimed, appended to the graph once it is done.
        let mut scratch = Scratch::default();
        let mut fresh = Vec::new();

        while run.edges.len() < run.configs.len() {
            let width = run.configs.len() - run.edges.len();
            // The budget counts *expanded* configurations: truncate the
            // level to whatever budget remains, in one pass.
            let take = width.min(ctx.limits.max_configs.saturating_sub(run.edges.len()));
            // Recruit only where the pool can finish the level: a level the
            // budget already cuts stays sequential.
            if may_recruit
                && take == width
                && (ctx.force || ctx.gate.open(ctx.started.elapsed(), &run.levels))
            {
                let recruit = Recruit {
                    level: run.levels.len(),
                    at: ctx.started.elapsed(),
                    helpers: ctx.gate.workers - 1,
                    rerun: false,
                };
                let root = run.configs[0].clone();
                return Ok(match self.work_steal(run, ctx, recruit, on_progress) {
                    Some((run, ws)) => Finished::Built {
                        run: Box::new(run),
                        complete: true,
                        ws: Some(ws),
                    },
                    None => Finished::Rerun { recruit, root },
                });
            }
            run.peak_frontier = run.peak_frontier.max(width);
            if take < width {
                complete = false;
            }
            if take == 0 {
                break;
            }
            let level = run.levels.len();
            let level_started = Instant::now();
            let first = run.edges.len();
            let known = run.configs.len();
            let frontier = std::mem::take(&mut run.frontier);
            let mut level_transitions = 0usize;
            for k in 0..take {
                let key = &frontier[k * key_len..(k + 1) * key_len];
                let config = &run.configs[first + k];
                self.expand(
                    &mut run.tables,
                    ctx,
                    config,
                    key,
                    &mut scratch,
                    |_, key, config| {
                        run.frontier.extend_from_slice(key);
                        fresh.push(config);
                    },
                )?;
                run.configs.append(&mut fresh);
                level_transitions += scratch.edges.len();
                // Exact-size allocation; the scratch keeps its capacity.
                run.edges.push(scratch.edges.clone());
            }
            run.transitions += level_transitions;
            let elapsed = level_started.elapsed();
            run.expand += elapsed;
            let new = run.configs.len() - known;
            run.dedup_hits += level_transitions - new;
            // Live mirror: one batch of relaxed bumps per level (never per
            // successor), plus O(1) gauge refreshes for the watcher.
            if let Some(live) = ctx.live {
                live.configs.add(take as u64);
                live.transitions.add(level_transitions as u64);
                live.dedup_hits.add((level_transitions - new) as u64);
                live.frontier_depth.set_usize(new);
                live.mem_interner.set_usize(run.tables.interner_bytes());
                live.mem_index.set_usize(run.tables.index.approx_bytes());
                live.mem_canon.set(run.tables.canon_bytes.get() as i64);
            }
            let stats = LevelStats {
                level,
                width: take,
                transitions: level_transitions,
                elapsed,
            };
            run.levels.push(stats);
            ctx.hists.level_expand.record(elapsed);
            if level >= quiet_levels {
                report_level(ctx.tracer, on_progress, &stats, new, false);
            }
            if take < width {
                // Truncated: the rest of this frontier (and everything newly
                // discovered) stays unexpanded.
                break;
            }
        }
        Ok(Finished::Built {
            run: Box::new(run),
            complete,
            ws: None,
        })
    }

    /// Expands one node, `config` with compact key `key`, into
    /// `scratch.edges`: one edge per running process and object outcome,
    /// in `(pid, outcome)` order. This is the one expansion of the engine:
    /// the sequential BFS runs it with exclusive access to the run's
    /// [`Tables`], pool workers with shared access. Every successor this
    /// call claims in the dedup index goes to `claimed`, with its node
    /// index, key and configuration.
    ///
    /// Steps go through the transition memo, so a repeated step runs
    /// neither the object specification nor the protocol. Successor keys
    /// are built by **delta-interning**: a successor differs from its
    /// parent in exactly one object state and one process status, so its
    /// key is the parent's key with two slots patched, and a successor
    /// that deduplicates is never materialized.
    fn expand<A: Access<P::LocalState>>(
        &self,
        tables: &mut A,
        ctx: &RunCtx<'_, '_, P::LocalState>,
        config: &Configuration<P::LocalState>,
        key: &[u32],
        scratch: &mut Scratch,
        mut claimed: impl FnMut(u32, &[u32], Configuration<P::LocalState>),
    ) -> Result<(), RuntimeError> {
        let n_obj = config.object_states.len();
        scratch.edges.clear();
        for (i, status) in config.procs.iter().enumerate() {
            let ProcStatus::Running(local) = status else {
                continue;
            };
            let pid = Pid(i);
            let (obj, _) = self.protocol.pending_op(pid, local);
            if obj.index() >= n_obj {
                return Err(RuntimeError::ObjIdOutOfRange {
                    obj,
                    len: self.objects.len(),
                });
            }
            // `(pid, running local state)` determines `(obj, op)`, so the
            // triple pins down the whole step.
            let step = (key[obj.index()], key[n_obj + i], i as u32);
            if !tables.pairs(step, &mut scratch.pairs) {
                let (.., outs) = self.outcomes_of(config, pid)?;
                scratch.pairs.clear();
                for (response, state) in outs {
                    let status = self.protocol.on_response(pid, local, response).into();
                    let pair = (tables.intern_state(&state), tables.intern_proc(&status));
                    scratch.pairs.push(pair);
                }
                tables.remember_pairs(step, scratch.pairs.as_slice().into());
            }
            for (outcome, &(state, proc)) in scratch.pairs.iter().enumerate() {
                scratch.key.clear();
                scratch.key.extend_from_slice(key);
                scratch.key[obj.index()] = state;
                scratch.key[n_obj + i] = proc;
                let target = match ctx.sym {
                    None => {
                        let (target, new) = tables.claim(&scratch.key);
                        if new {
                            let (state, proc) = tables.resolve(state, proc);
                            let next = patched(config, obj.index(), state, i, proc);
                            claimed(target, &scratch.key, next);
                        }
                        target
                    }
                    // Orbit mode: the dedup key is the compacted canonical
                    // representative. The raw patched key is not that key,
                    // but it *identifies* the raw successor, so it
                    // memoizes the canonicalization.
                    Some(sym) => {
                        let (key, canon) = tables.canon(&scratch.key).unwrap_or_else(|| {
                            let (state, proc) = tables.resolve(state, proc);
                            let raw = patched(config, obj.index(), state, i, proc);
                            let canon = timed_canonicalize(sym, &raw, ctx.canon_probe);
                            let entry = (compact(&canon, tables), Arc::new(canon));
                            tables.remember_canon(&scratch.key, entry.clone());
                            entry
                        });
                        let (target, new) = tables.claim(&key);
                        if new {
                            claimed(target, &key, (*canon).clone());
                        }
                        target
                    }
                };
                scratch.edges.push(Edge {
                    pid,
                    outcome,
                    target: target as usize,
                });
            }
        }
        Ok(())
    }

    /// The work-stealing hand-off: expands everything from `run`'s frontier
    /// on a pool of `ctx.gate.workers` workers — the calling thread plus the
    /// recruited helpers — then assembles the pool's pieces into `run` in
    /// canonical BFS order. Returns `None` when the pool would truncate or
    /// a step failed; the caller then redoes the run sequentially.
    ///
    /// No levels, no barriers: each worker owns a LIFO deque of pending
    /// nodes; an idle worker steals the older half of a victim's deque
    /// (FIFO end — thieves take the work closest to the root, whose
    /// subtrees are largest). The pool shares the run's
    /// [`ConcurrentIndex`], which keeps assigning node indices in discovery
    /// order past the sequential prefix.
    ///
    /// Termination uses a single pending-task counter: it is incremented
    /// before a node becomes stealable and decremented only after its
    /// expansion (including enqueuing all children), so `pending == 0` with
    /// all deques empty proves quiescence.
    ///
    /// The frontier itself is lock-free: each worker owns the bottom end of
    /// a Chase–Lev deque ([`lfdeque`], DESIGN.md §12) and thieves race on
    /// the top end with a single CAS, so no deque mutex exists anywhere on
    /// the hot path. An idle worker sweeps the other deques in ring order
    /// from a per-sweep xorshift-randomized start (so simultaneous thieves
    /// fan out instead of convoying on one victim), batch-stealing up to
    /// half the victim (capped at [`WS_STEAL_MAX`]); on a completely empty
    /// sweep it backs off spin → yield → timed park (see
    /// [`WS_SPIN_ROUNDS`]), which keeps an idle worker's CPU burn bounded
    /// while `pending` polling still detects quiescence.
    #[allow(clippy::too_many_lines)]
    fn work_steal(
        &self,
        mut run: Run<P::LocalState>,
        ctx: &RunCtx<'_, '_, P::LocalState>,
        recruit: Recruit,
        on_progress: &mut Option<ProgressCallback<'_>>,
    ) -> Option<(Run<P::LocalState>, WsReport)> {
        let ws_started = Instant::now();
        let workers = ctx.gate.workers;
        let (tracer, live, hists) = (ctx.tracer, ctx.live, ctx.hists);
        let traced = tracer.enabled();
        // Nodes below `base` already have their canonical index; the
        // frontier is `first..base`, and the pool numbers from `base` on.
        let first = run.edges.len();
        let base = run.configs.len();
        tracer.emit_with("explore.recruit", || {
            Json::object()
                .set("level", recruit.level)
                .set("at_us", duration_us(recruit.at))
                .set("helpers", recruit.helpers)
                .set("frontier", base - first)
                .set("forced", ctx.force)
        });
        if let Some(live) = live {
            live.workers.set_usize(workers);
            live.mem_deques.set(0);
        }
        let budget = ctx.limits.max_configs - first;

        let (owners, stealers): (Vec<lfdeque::Owner<WsTask<P::LocalState>>>, Vec<_>) =
            (0..workers).map(|_| lfdeque::deque()).unzip();
        // Seed the deques round-robin with the frontier, so every worker
        // starts on its own share instead of stealing its first task.
        let frontier = std::mem::take(&mut run.frontier);
        let seeded = base - first;
        let key_len = frontier.len() / seeded;
        for (k, config) in run.configs.split_off(first).into_iter().enumerate() {
            owners[k % workers].push(WsTask {
                id: u32::try_from(first + k).expect("graphs are bounded well below u32::MAX nodes"),
                key: frontier[k * key_len..(k + 1) * key_len].into(),
                config,
            });
        }
        // Queued-or-in-flight nodes; bumped before a task becomes stealable,
        // dropped only after its children are enqueued.
        let pending = AtomicUsize::new(seeded);
        // Expansion claims, one per task; a claim past the budget stops the
        // pool.
        let claimed = AtomicUsize::new(0);
        let truncated = AtomicBool::new(false);
        let abort = AtomicBool::new(false);
        let first_error: Mutex<Option<RuntimeError>> = Mutex::new(None);
        let tables = &run.tables;

        // The whole worker loop: the calling thread runs it as worker 0,
        // each recruited helper as one of the others. Captures the run
        // state by reference.
        let run_worker = |me: usize, own: lfdeque::Owner<WsTask<P::LocalState>>| {
            let mut stats = WorkerStats {
                worker: me,
                ..WorkerStats::default()
            };
            let mut out = WsWorkerOut {
                edge_pool: Vec::new(),
                nodes: Vec::new(),
                memo_l1_hits: 0,
            };
            let mut shared = Shared {
                tables,
                l1: FxHashMap::default(),
                l1_hits: 0,
            };
            let mut scratch = Scratch::default();
            // The children of the task being expanded, reused for
            // the whole run.
            let mut spawned: Vec<WsTask<P::LocalState>> = Vec::new();
            // Consecutive failed sweeps drive the
            // spin→yield→park backoff; any found task resets it.
            let mut backoff: u32 = 0;
            // Per-worker xorshift32 stream (odd seed from a
            // golden-ratio multiply) rotating each sweep's
            // starting victim so simultaneous thieves fan out
            // across victims instead of convoying on one.
            let mut rng: u32 = (me as u32).wrapping_mul(0x9E37_79B9) | 1;
            loop {
                if abort.load(Ordering::Acquire) {
                    break;
                }
                // The own deque first (depth-first locally,
                // cache-warm parents), then sweep the victims.
                let task = match own.pop() {
                    Some(task) => {
                        stats.local_hits += 1;
                        backoff = 0;
                        task
                    }
                    None => {
                        // The no-local-work path — sweep, spin,
                        // yield — counts as idle time; the clock
                        // only runs while this worker is not
                        // expanding, so it is measured even on
                        // untraced runs. Parked waits are timed
                        // separately in `parked` so reported
                        // idle stays proportional to burned CPU.
                        let sweep_t0 = Instant::now();
                        let mut stolen = None;
                        if workers > 1 {
                            rng ^= rng << 13;
                            rng ^= rng >> 17;
                            rng ^= rng << 5;
                            let rot = rng as usize % (workers - 1);
                            for k in 0..workers - 1 {
                                let victim = (me + 1 + (rot + k) % (workers - 1)) % workers;
                                match stealers[victim].steal_batch_and_pop(&own, WS_STEAL_MAX) {
                                    lfdeque::Steal::Taken((task, extra)) => {
                                        stolen = Some((task, victim, extra));
                                        break;
                                    }
                                    // A lost CAS race means the
                                    // victim is being drained by
                                    // someone; move on rather
                                    // than contend on one deque.
                                    lfdeque::Steal::Empty | lfdeque::Steal::Retry => {}
                                }
                            }
                        }
                        match stolen {
                            Some((task, victim_hit, extra)) => {
                                stats.steals += 1;
                                if let Some(live) = live {
                                    live.steals.bump();
                                }
                                backoff = 0;
                                // The batched extras landed in
                                // our own deque; the task in
                                // hand counts toward depth too.
                                stats.max_deque_depth = stats.max_deque_depth.max(own.len() + 1);
                                let sweep = sweep_t0.elapsed();
                                stats.idle += sweep;
                                if traced {
                                    hists.steal.record(sweep);
                                    hists.steal_batch.record_ns(extra as u64 + 1);
                                    tracer.emit_with("ws.steal", || {
                                        Json::object()
                                            .set("worker", me)
                                            .set("victim", victim_hit)
                                            .set("outcome", "hit")
                                            .set("batch", extra + 1)
                                            .set("latency_us", duration_us(sweep))
                                    });
                                }
                                task
                            }
                            None => {
                                stats.steal_fails += 1;
                                stats.idle += sweep_t0.elapsed();
                                // Per-attempt miss events would
                                // be unbounded in a spin storm;
                                // power-of-two sampling keeps the
                                // trace logarithmic while the
                                // `spins`/`parks` fields preserve
                                // the storm's true intensity.
                                if traced && stats.steal_fails.is_power_of_two() {
                                    tracer.emit_with("ws.steal", || {
                                        Json::object()
                                            .set("worker", me)
                                            .set("outcome", "miss")
                                            .set("spins", stats.idle_spins)
                                            .set("parks", stats.park_count)
                                            .set("pending", pending.load(Ordering::Relaxed))
                                    });
                                }
                                if pending.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                // Exponential backoff: brief
                                // spins first (work usually
                                // reappears in microseconds),
                                // then scheduler yields, then
                                // timed parks — so a starved
                                // worker's CPU burn is bounded
                                // per idle episode while the
                                // `pending` poll above still
                                // detects quiescence promptly.
                                backoff = backoff.saturating_add(1);
                                if backoff <= WS_SPIN_ROUNDS {
                                    stats.idle_spins += 1;
                                    for _ in 0..(1u32 << backoff) {
                                        std::hint::spin_loop();
                                    }
                                } else if backoff <= WS_SPIN_ROUNDS + WS_YIELD_ROUNDS {
                                    stats.idle_spins += 1;
                                    std::thread::yield_now();
                                } else {
                                    stats.park_count += 1;
                                    if let Some(live) = live {
                                        live.parked_workers.add(1);
                                    }
                                    let park_t0 = Instant::now();
                                    std::thread::park_timeout(WS_PARK);
                                    if let Some(live) = live {
                                        live.parked_workers.sub(1);
                                    }
                                    stats.parked += park_t0.elapsed();
                                }
                                continue;
                            }
                        }
                    }
                };
                if claimed.fetch_add(1, Ordering::Relaxed) >= budget {
                    // The sequential BFS would truncate this graph, and
                    // its budget means a BFS prefix: stop the pool, the
                    // run is redone sequentially.
                    truncated.store(true, Ordering::Relaxed);
                    abort.store(true, Ordering::Release);
                    break;
                }
                // Per-task expansion timing is a clock read per
                // task: traced runs only.
                let task_t0 = traced.then(Instant::now);
                // The worker that claims a successor schedules it.
                let expanded = self.expand(
                    &mut shared,
                    ctx,
                    &task.config,
                    &task.key,
                    &mut scratch,
                    |id, key, config| {
                        spawned.push(WsTask {
                            id,
                            key: key.into(),
                            config,
                        });
                    },
                );
                if let Err(err) = expanded {
                    let mut slot = first_error.lock().expect("error slot poisoned");
                    slot.get_or_insert(err);
                    abort.store(true, Ordering::Release);
                    break;
                }
                let edge_start = out.edge_pool.len();
                let edge_len = scratch.edges.len();
                out.edge_pool.extend_from_slice(&scratch.edges);
                stats.expanded += 1;
                stats.transitions += edge_len;
                let spawned_now = spawned.len();
                // Expansion done: the task surrenders its configuration
                // to the assembly set here.
                out.nodes.push((
                    task.id,
                    u32::try_from(edge_start).expect("edge pool overflow"),
                    u32::try_from(edge_len).expect("edge fan-out overflow"),
                    task.config,
                ));
                // Retire this task and enqueue its children in
                // one `pending` update: the first child inherits
                // this task's slot.
                match spawned.len() {
                    0 => {
                        pending.fetch_sub(1, Ordering::AcqRel);
                    }
                    1 => {}
                    n => {
                        pending.fetch_add(n - 1, Ordering::AcqRel);
                    }
                }
                for child in spawned.drain(..) {
                    own.push(child);
                }
                stats.max_deque_depth = stats.max_deque_depth.max(own.len());
                // Live mirror: a few relaxed bumps per task (never per
                // successor), and O(1)-readable mem gauges refreshed at a
                // coarse beat so the watcher never perturbs the hot path.
                if let Some(live) = live {
                    live.configs.bump();
                    live.transitions.add(edge_len as u64);
                    live.dedup_hits.add(edge_len as u64 - spawned_now as u64);
                    live.frontier_depth
                        .set_usize(pending.load(Ordering::Relaxed));
                    if stats.expanded.is_multiple_of(64) {
                        live.mem_interner.set_usize(tables.interner_bytes());
                        live.mem_index.set_usize(tables.index.approx_bytes());
                        live.mem_canon.set(tables.canon_bytes.get() as i64);
                    }
                }
                if let Some(t0) = task_t0 {
                    let d = t0.elapsed();
                    stats.busy += d;
                    hists.task_expand.record(d);
                    // A progress beat on the first task and every
                    // 32nd after: the beat timestamps are what
                    // obs_analyze turns into the per-worker
                    // utilization timeline.
                    let done = stats.expanded;
                    if done == 1 || done.is_multiple_of(32) {
                        let depth = own.len();
                        tracer.emit_with("ws.expand", || {
                            Json::object()
                                .set("worker", me)
                                .set("expanded", done)
                                .set("transitions", stats.transitions)
                                .set("deque", depth)
                                .set("steals", stats.steals)
                                .set("parks", stats.park_count)
                                .set("busy_us", duration_us(stats.busy))
                                .set("idle_us", duration_us(stats.idle))
                        });
                    }
                }
            }
            stats.deque_grows = own.grows();
            if let Some(live) = live {
                live.mem_deques.add(own.approx_bytes() as i64);
            }
            out.memo_l1_hits = shared.l1_hits;
            tracer.emit_with("ws.done", || stats.to_json());
            (stats, out)
        };
        let outs: Vec<(WorkerStats, WsWorkerOut<P::LocalState>)> = std::thread::scope(|s| {
            let run_worker = &run_worker;
            let mut owners = owners.into_iter();
            let own0 = owners.next().expect("a pool has at least one worker");
            let helpers: Vec<_> = owners
                .enumerate()
                .map(|(k, own)| s.spawn(move || run_worker(k + 1, own)))
                .collect();
            let mut outs = vec![run_worker(0, own0)];
            outs.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("work-stealing worker panicked")),
            );
            outs
        });
        let expand = ws_started.elapsed();
        let merge_started = Instant::now();
        if truncated.load(Ordering::Relaxed)
            || first_error
                .into_inner()
                .expect("error slot poisoned")
                .is_some()
        {
            return None;
        }
        // The stealers are the last handles on tasks an aborted pool left
        // queued; nothing is queued now, but release them before assembly.
        drop(stealers);
        let total = tables.index.len();

        // Assembly and canonical renumbering. `span[old - first]` locates a
        // node's edges in its worker's pool; `renum[old - base]` is a pool
        // node's canonical index. One BFS from the frontier, following each
        // node's edges in their stored (pid, outcome) order, numbers the
        // pool's nodes exactly as the sequential BFS would have.
        let mut report = WsReport {
            recruit,
            workers: Vec::with_capacity(workers),
            memo_l1_hits: 0,
            merge: Duration::ZERO,
        };
        let mut span: Vec<(u32, u32, u32)> = vec![(0, 0, 0); total - first];
        let mut slots: Vec<Option<Configuration<P::LocalState>>> =
            (first..total).map(|_| None).collect();
        let mut pools: Vec<Vec<Edge>> = Vec::with_capacity(outs.len());
        for (w, (stats, out)) in outs.into_iter().enumerate() {
            report.workers.push(stats);
            report.memo_l1_hits += out.memo_l1_hits;
            let w = u32::try_from(w).expect("worker count fits u32");
            for (id, start, len, config) in out.nodes {
                span[id as usize - first] = (w, start, len);
                slots[id as usize - first] = Some(config);
            }
            pools.push(out.edge_pool);
        }
        let mut renum = vec![u32::MAX; total - base];
        // `order[k]` is the original index of canonical node `first + k`.
        let mut order: Vec<u32> = (first..base).map(|i| i as u32).collect();
        order.reserve(total - base);
        let mut next = u32::try_from(base).expect("graphs are bounded well below u32::MAX nodes");
        let mut level_start = 0usize;
        while level_start < order.len() {
            let level_end = order.len();
            let mut level_transitions = 0usize;
            for k in level_start..level_end {
                let (w, start, len) = span[order[k] as usize - first];
                let edges = &pools[w as usize][start as usize..(start + len) as usize];
                level_transitions += edges.len();
                for e in edges {
                    if e.target >= base && renum[e.target - base] == u32::MAX {
                        renum[e.target - base] = next;
                        next += 1;
                        order.push(e.target as u32);
                    }
                }
            }
            let width = level_end - level_start;
            let new = order.len() - level_end;
            let stats = LevelStats {
                level: run.levels.len(),
                width,
                transitions: level_transitions,
                elapsed: Duration::ZERO,
            };
            run.levels.push(stats);
            run.peak_frontier = run.peak_frontier.max(width);
            run.transitions += level_transitions;
            run.dedup_hits += level_transitions - new;
            report_level(tracer, on_progress, &stats, new, true);
            level_start = level_end;
        }
        debug_assert_eq!(order.len(), total - first, "every pool node is reachable");
        run.edges.reserve(total - first);
        run.configs.reserve(total - first);
        for &old in &order {
            let (w, start, len) = span[old as usize - first];
            let edges = &pools[w as usize][start as usize..(start + len) as usize];
            run.edges.push(
                edges
                    .iter()
                    .map(|e| Edge {
                        target: if e.target < base {
                            e.target
                        } else {
                            renum[e.target - base] as usize
                        },
                        ..*e
                    })
                    .collect(),
            );
            run.configs.push(
                slots[old as usize - first]
                    .take()
                    .expect("every expanded node carries its configuration"),
            );
        }
        report.merge = merge_started.elapsed();
        run.expand += expand;
        Some((run, report))
    }
}

/// The result of replaying one chosen step via [`Explorer::step`]: the
/// successor configuration plus the object-level event that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord<L> {
    /// The successor configuration.
    pub config: Configuration<L>,
    /// The object the operation was applied to.
    pub obj: ObjId,
    /// The operation taken.
    pub op: Op,
    /// The response the chosen outcome returned.
    pub response: Value,
}

/// A fluent, configured exploration run: the single front door to the
/// engine.
///
/// Build one with [`Explorer::exploration`], chain the knobs you need,
/// then finish with [`Exploration::run`] for the graph or with a checking
/// terminal for a [`Verdict`](crate::Verdict) (see [`crate::verdict`]):
///
/// ```ignore
/// let graph = explorer
///     .exploration()
///     .from(config)                 // default: the initial configuration
///     .limits(Limits::new(50_000))  // default: Limits::default()
///     .threads(1)                   // default: auto
///     .on_progress(|l| eprintln!("{} configs", l.width))
///     .run()?;
/// ```
#[must_use = "an Exploration does nothing until .run() is called"]
pub struct Exploration<'e, 'a, P: Protocol> {
    explorer: &'e Explorer<'a, P>,
    from: Option<Configuration<P::LocalState>>,
    options: ExploreOptions,
    on_progress: Option<ProgressCallback<'e>>,
    symmetry: Option<ConfigSymmetry<'a, P::LocalState>>,
    tracer: Option<Tracer>,
    sample: Option<SampleConfig>,
    registry: Option<Registry>,
    progress_every: Option<Duration>,
}

/// What a checking terminal (see [`crate::verdict`]) needs from a
/// consumed builder: the graph is only built when no sampling sweep was
/// asked for, and the symmetry handle survives the run so reduced-graph
/// violations can be de-canonicalized.
pub(crate) struct CheckParts<'e, 'a, P: Protocol> {
    pub explorer: &'e Explorer<'a, P>,
    pub tracer: Tracer,
    pub symmetry: Option<ConfigSymmetry<'a, P::LocalState>>,
    pub run: CheckRun<P::LocalState>,
    /// Live-metrics handles, present when the builder opted into a
    /// registry or progress streaming. An exhaustive run consumes them
    /// inside [`Exploration::run_for_check`]; sampling hands them to the
    /// verdict layer, whose sweep does the actual work.
    pub live: Option<LiveMetrics>,
    /// The builder's progress cadence, for a sampling sweep, whose work
    /// runs after `run_for_check` returns.
    pub progress_every: Option<Duration>,
}

/// What [`Exploration::run_for_check`] did for a checking terminal.
pub(crate) enum CheckRun<L> {
    /// Explored exhaustively: the graph, or the step error that stopped it.
    Explored(Box<Result<ExplorationGraph<L>, RuntimeError>>),
    /// Ran nothing: the terminal samples with this configuration.
    Sample(SampleConfig),
}

impl<'e, 'a, P: Protocol> Exploration<'e, 'a, P> {
    /// Makes the checking terminals run a seeded sampling sweep (see
    /// [`crate::sampling`]) instead of exploring. Sampling reaches instances
    /// far beyond the exhaustive frontier but cannot prove a property: a
    /// clean sweep answers [`Outcome::HoldsSampled`](crate::Outcome::HoldsSampled)
    /// with a Clopper–Pearson confidence bound, never
    /// [`Outcome::Holds`](crate::Outcome::Holds), and violations come back
    /// as replayable, `confirm()`-able [`Witness`](crate::Witness)es. The
    /// verdict and any violating seed are independent of the worker thread
    /// count. Only k-set agreement (and consensus) can be sampled; see
    /// [`Exploration::check_dac`]. [`Exploration::run`] ignores this — a
    /// graph of sampled runs would be a contradiction in terms.
    ///
    /// ```ignore
    /// let verdict = explorer
    ///     .exploration()
    ///     .sample(SampleConfig { runs: 10_000, ..SampleConfig::default() })
    ///     .check_consensus(&inputs);
    /// match verdict.outcome {
    ///     Outcome::HoldsSampled { confidence, .. } => println!("p(viol) < {}", 1.0 - confidence),
    ///     Outcome::Violated(_) => println!("{}", verdict.describe()), // witness replays the seed
    ///     _ => unreachable!(),
    /// }
    /// ```
    pub fn sample(mut self, config: SampleConfig) -> Self {
        self.sample = Some(config);
        self
    }

    /// Sets the resource limits (see [`Limits`]).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.options.limits = limits;
        self
    }

    /// Caps the number of configurations to expand — shorthand for
    /// `.limits(Limits::new(max_configs))`.
    pub fn max_configs(mut self, max_configs: usize) -> Self {
        self.options.limits = Limits::new(max_configs);
        self
    }

    /// Sets the worker thread count (`0` = auto; see
    /// [`ExploreOptions::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Starts the search from `initial` instead of the protocol's initial
    /// configuration.
    pub fn from(mut self, initial: Configuration<P::LocalState>) -> Self {
        self.from = Some(initial);
        self
    }

    /// Recruits the work-stealing helpers at the root instead of waiting
    /// for the cost gate (see [`ExploreOptions::force_parallel`]). For
    /// tests and benchmarks of the hand-off; the graph is the same either
    /// way.
    pub fn force_parallel(mut self) -> Self {
        self.options.force_parallel = true;
        self
    }

    /// Enables symmetry reduction: the graph's nodes become canonical orbit
    /// representatives under the protocol's declared pid symmetry
    /// ([`lbsa_runtime::process::Symmetry`]), shrinking the explored state
    /// space by up to the symmetry group's order. No-op when the declared
    /// group is trivial (all pid classes distinct).
    ///
    /// The resulting graph's node set is a system of orbit representatives,
    /// not the raw reachable set: checker predicates are orbit-invariant
    /// (see [`crate::symmetry`]), and witnesses extracted from a reduced
    /// graph must be de-canonicalized through
    /// [`crate::symmetry::Concretizer`] before replay on the raw system —
    /// the checking terminals (see [`crate::verdict`]) do exactly that.
    pub fn symmetric(mut self) -> Self
    where
        P: Symmetry,
        P::LocalState: Ord,
    {
        let sym = ConfigSymmetry::of(self.explorer.protocol);
        self.symmetry = if sym.is_trivial() { None } else { Some(sym) };
        self
    }

    /// Registers a callback invoked after each BFS level is merged, with
    /// that level's [`LevelStats`] (which carries the level's BFS index in
    /// [`LevelStats::level`]) — for progress reporting on long runs. Levels
    /// a recruited work-stealing pool expanded are reported once the pool
    /// finishes, by the canonical renumbering pass; every level of
    /// [`ExploreStats::levels`] is reported exactly once, in order.
    pub fn on_progress(mut self, callback: impl FnMut(&LevelStats) + 'e) -> Self {
        self.on_progress = Some(Box::new(callback));
        self
    }

    /// Attaches a [`Tracer`] for this run only, overriding whatever the
    /// explorer carries ([`Explorer::with_trace`]): the engine emits
    /// `explore.begin`/`level`/`explore.recruit`/`explore.end` phase events
    /// through it, and per-call canonicalization timing is switched on. Build one
    /// over any [`lbsa_support::obs::TraceSink`]:
    ///
    /// ```ignore
    /// let graph = explorer
    ///     .exploration()
    ///     .trace(Tracer::new(StderrSink))
    ///     .run()?;
    /// ```
    pub fn trace(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a live-metrics [`Registry`]: the run registers its
    /// counters and gauges (`explore.configs`, `explore.frontier_depth`,
    /// `mem.interner_bytes`, …) under dotted names and keeps them current
    /// *while the engine runs*, instead of only materializing
    /// [`ExploreStats`] at the end. Snapshot it from another thread with
    /// [`Registry::snapshot`] or render it with
    /// [`Registry::render_prometheus`] at any point during or after the
    /// run. Without this (or [`Exploration::progress_every`]) the engines
    /// skip every live update — the disabled path is one branch per level
    /// or per task.
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Streams in-flight progress: a background watcher thread samples
    /// the live metrics every `period` and emits a `progress` trace event
    /// — instantaneous and EMA configs/sec, frontier depth, worker
    /// utilization, an ETA estimate, and memory gauges — through the
    /// run's tracer, for all three strategies. A final event (with
    /// `"final": true`) is emitted at completion, so even runs shorter
    /// than one period produce at least one. Requires an enabled tracer
    /// ([`Exploration::trace`] or [`Explorer::with_trace`]); without one
    /// there is nowhere to stream and no watcher is spawned.
    pub fn progress_every(mut self, period: Duration) -> Self {
        self.progress_every = Some(period);
        self
    }

    /// The live handles this run should update, if any: an explicit
    /// registry, or a private one when only progress streaming was
    /// requested.
    fn live_metrics(&self) -> Option<LiveMetrics> {
        match (&self.registry, self.progress_every) {
            (Some(registry), _) => Some(LiveMetrics::register(registry)),
            (None, Some(_)) => Some(LiveMetrics::register(&Registry::new())),
            (None, None) => None,
        }
    }

    /// Runs the exploration and returns the execution graph.
    ///
    /// # Errors
    ///
    /// Propagates step errors (these indicate protocol bugs, not explored
    /// behaviours). The error is the one the sequential BFS meets first,
    /// whatever the thread count.
    pub fn run(mut self) -> Result<ExplorationGraph<P::LocalState>, RuntimeError> {
        let tracer = self
            .tracer
            .take()
            .unwrap_or_else(|| self.explorer.tracer.clone());
        let symmetry = self.symmetry.take();
        let live = self.live_metrics();
        self.explore(&tracer, symmetry.as_ref(), live.as_ref())
    }

    /// The one exhaustive run behind [`run`](Exploration::run) and the
    /// `check_*` terminals: the progress watcher (when asked for) around
    /// the engine, and the final graph gauge.
    fn explore(
        &mut self,
        tracer: &Tracer,
        symmetry: Option<&ConfigSymmetry<'a, P::LocalState>>,
        live: Option<&LiveMetrics>,
    ) -> Result<ExplorationGraph<P::LocalState>, RuntimeError> {
        let explorer = self.explorer;
        let initial = self
            .from
            .take()
            .unwrap_or_else(|| explorer.initial_config());
        let watcher = match (self.progress_every, live) {
            (Some(period), Some(live)) if tracer.enabled() => Some(ProgressWatcher::spawn(
                live.clone(),
                tracer.clone(),
                period,
                EtaModel::Exhaustive,
            )),
            _ => None,
        };
        let result = explorer.run_engine(
            initial,
            self.options,
            self.on_progress.take(),
            symmetry,
            tracer,
            live,
        );
        if let (Some(live), Ok(graph)) = (live, &result) {
            live.mem_graph.set_usize(graph.approx_bytes());
        }
        if let Some(watcher) = watcher {
            watcher.finish();
        }
        result
    }

    /// Consumes the builder for a checking terminal: runs the engine unless
    /// a sampling sweep was asked for (sampling builds no graph) and hands
    /// the verdict layer the pieces [`run`](Exploration::run) would
    /// otherwise drop — the effective tracer and the symmetry handle.
    pub(crate) fn run_for_check(mut self) -> CheckParts<'e, 'a, P> {
        let explorer = self.explorer;
        let tracer = self
            .tracer
            .take()
            .unwrap_or_else(|| explorer.tracer.clone());
        let symmetry = self.symmetry.take();
        let live = self.live_metrics();
        let run = match self.sample {
            // Sampling runs inside the verdict layer — the live handles
            // and cadence ride along in the returned parts.
            Some(config) => CheckRun::Sample(config),
            None => CheckRun::Explored(Box::new(self.explore(
                &tracer,
                symmetry.as_ref(),
                live.as_ref(),
            ))),
        };
        CheckParts {
            explorer,
            tracer,
            symmetry,
            run,
            live,
            progress_every: self.progress_every,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::{ObjId, Op, Value};
    use lbsa_runtime::process::Step;

    /// Two processes propose their pid to a consensus object and decide.
    #[derive(Debug)]
    struct RaceConsensus {
        n: usize,
    }

    impl Protocol for RaceConsensus {
        type LocalState = ();

        fn num_processes(&self) -> usize {
            self.n
        }

        fn init(&self, _pid: Pid) {}

        fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(Value::Int(pid.index() as i64)))
        }

        fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
            Step::Decide(resp)
        }
    }

    /// One process proposes to a 2-SA object repeatedly, never deciding —
    /// an intentionally cyclic protocol.
    #[derive(Debug)]
    struct ForeverProposer;

    impl Protocol for ForeverProposer {
        type LocalState = ();

        fn num_processes(&self) -> usize {
            1
        }

        fn init(&self, _pid: Pid) {}

        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(Value::Int(1)))
        }

        fn on_response(&self, _pid: Pid, _s: &(), _resp: Value) -> Step<()> {
            Step::Continue(())
        }
    }

    #[test]
    fn race_consensus_graph_shape() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(g.complete);
        // Both orders of the two proposals, converging to terminal configs
        // where both decided the first proposer's value.
        for t in g.terminal_indices() {
            let c = &g.configs[t];
            assert!(c.all_decided());
            assert_eq!(c.distinct_decisions().len(), 1);
        }
        // Exactly two distinct terminal outcomes: decided-0 and decided-1.
        let outcomes: std::collections::BTreeSet<Vec<Value>> = g
            .terminal_indices()
            .map(|t| g.configs[t].distinct_decisions())
            .collect();
        assert_eq!(outcomes.len(), 2);
        assert!(!g.has_cycle());
    }

    #[test]
    fn every_interleaving_is_covered() {
        // With n processes taking exactly one step each on a deterministic
        // object, there are n! interleavings but far fewer distinct
        // configurations; the graph must count transitions, not paths.
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(g.complete);
        assert!(g.transitions >= 6);
        // All terminals agree on one value.
        for t in g.terminal_indices() {
            assert_eq!(g.configs[t].distinct_decisions().len(), 1);
        }
    }

    #[test]
    fn cyclic_protocol_is_detected() {
        let p = ForeverProposer;
        let objects = vec![AnyObject::strong_sa()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(
            g.complete,
            "state space is finite despite the infinite execution"
        );
        assert!(g.has_cycle());
        let on_cycle = g.find_cycle().unwrap();
        assert!(g.path_to(on_cycle).is_some());
    }

    #[test]
    fn truncation_is_reported() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects)
            .exploration()
            .max_configs(2)
            .run()
            .unwrap();
        assert!(!g.complete);
        assert!(g.expanded.iter().filter(|&&e| e).count() <= 2);
    }

    #[test]
    fn budget_counts_expanded_configs_exactly() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let full = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(full.complete);
        let total = full.len();
        for budget in 1..total + 2 {
            let g = Explorer::new(&p, &objects)
                .exploration()
                .max_configs(budget)
                .run()
                .unwrap();
            let expanded = g.expanded.iter().filter(|&&e| e).count();
            assert_eq!(
                expanded,
                budget.min(total),
                "budget {budget} must expand exactly min(budget, reachable)"
            );
            assert_eq!(g.stats.expanded, expanded);
            assert_eq!(g.complete, budget >= total);
            // Truncated graphs expand a prefix of the BFS order: every
            // expanded node index is below every unexpanded one that has
            // no edges recorded.
            if let Some(first_unexpanded) = g.expanded.iter().position(|&e| !e) {
                assert!(g.expanded[..first_unexpanded].iter().all(|&e| e));
                assert!(g.expanded[first_unexpanded..].iter().all(|&e| !e));
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_graph() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let sequential = ex.exploration().threads(1).run().unwrap();
        for threads in [2, 4, 8] {
            // Recruit at the root so the pool and the canonical
            // renumbering are exercised whatever the cost gate would do.
            let parallel = ex
                .exploration()
                .threads(threads)
                .force_parallel()
                .run()
                .unwrap();
            assert!(
                sequential.same_structure(&parallel),
                "graph differs at {threads} threads"
            );
            assert_eq!(sequential.structural_digest(), parallel.structural_digest());
            assert_eq!(parallel.stats.threads, threads);
            assert!(parallel.stats.work_stealing());
            assert_eq!(parallel.stats.recruit.map(|r| r.level), Some(0));
            // The cost gate keeps a graph this small on the calling
            // thread; the graph must match either way.
            let gated = ex.exploration().threads(threads).run().unwrap();
            assert!(sequential.same_structure(&gated));
        }
    }

    #[test]
    fn thread_count_does_not_change_truncated_graphs() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        for budget in [1, 3, 7, 20] {
            let seq = ex
                .exploration()
                .max_configs(budget)
                .threads(1)
                .run()
                .unwrap();
            let par = ex
                .exploration()
                .max_configs(budget)
                .threads(4)
                .force_parallel()
                .run()
                .unwrap();
            assert!(
                seq.same_structure(&par),
                "truncated graph differs at budget {budget}"
            );
        }
    }

    #[test]
    fn cyclic_graphs_are_thread_count_independent() {
        let p = ForeverProposer;
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        let seq = ex.exploration().threads(1).run().unwrap();
        let par = ex.exploration().threads(4).force_parallel().run().unwrap();
        assert!(seq.same_structure(&par));
        assert!(par.has_cycle());
    }

    #[test]
    fn small_multithreaded_runs_never_recruit() {
        // A workload this tiny finishes long before the cost gate opens: a
        // threads(8) run must stay on the calling thread and say so.
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let mut seen = 0;
        let g = Explorer::new(&p, &objects)
            .exploration()
            .threads(8)
            .on_progress(|_| seen += 1)
            .run()
            .unwrap();
        assert_eq!(g.stats.recruit, None);
        assert!(g.stats.workers.is_empty());
        assert_eq!(seen, g.stats.levels.len());
        assert!(!g.stats.summary().contains("work-stealing"));
    }

    #[test]
    fn the_recruitment_gate_follows_the_cores_and_the_helper_count() {
        let cores = available_cores();
        let natural = RecruitGate::new(64, false);
        assert_eq!(natural.workers, cores.min(64), "capped at the cores");
        assert_eq!(RecruitGate::new(1, false).workers, 1);
        let forced = RecruitGate::new(8, true);
        assert_eq!(forced.workers, 8, "a forced pool ignores the cores");
        assert_eq!(forced.node_cost, POOL_NODE_COST / 7);
        assert_eq!(forced.after, SPAWN_JOIN_COST * RECRUIT_MULTIPLE * 7);
        assert_eq!(RecruitGate::new(2, true).node_cost, POOL_NODE_COST);
        // Two completed levels, each over the per-node bar, past the
        // run-time threshold: open. One cheap level keeps it shut.
        let gate = RecruitGate::new(2, true);
        let level = |level, width, us| LevelStats {
            level,
            width,
            transitions: width,
            elapsed: Duration::from_micros(us),
        };
        let costly = [level(0, 1, 60), level(1, 4, 240)];
        assert!(gate.open(gate.after, &costly));
        assert!(!gate.open(gate.after / 2, &costly));
        assert!(!gate.open(gate.after, &costly[..1]));
        assert!(!gate.open(gate.after, &[level(0, 1, 60), level(1, 4, 100)]));
    }

    #[test]
    fn stats_are_consistent_with_the_graph() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert_eq!(g.stats.configs, g.len());
        assert_eq!(g.stats.transitions, g.transitions);
        assert_eq!(g.stats.expanded, g.expanded.iter().filter(|&&e| e).count());
        // Every transition either discovered a new node or deduplicated.
        assert_eq!(g.stats.dedup_hits, g.transitions - (g.len() - 1));
        assert_eq!(
            g.stats.levels.iter().map(|l| l.width).sum::<usize>(),
            g.stats.expanded
        );
        assert_eq!(
            g.stats.levels.iter().map(|l| l.transitions).sum::<usize>(),
            g.transitions
        );
        assert!(g.stats.peak_frontier >= 1);
        assert!(g.stats.dedup_rate() >= 0.0 && g.stats.dedup_rate() <= 1.0);
        assert!(!g.is_empty());
    }

    #[test]
    fn a_protocol_without_processes_or_objects_has_one_expanded_config() {
        // Empty compact keys: the frontier bookkeeping must not divide by
        // the key length.
        let p = RaceConsensus { n: 0 };
        let objects: Vec<AnyObject> = Vec::new();
        let ex = Explorer::new(&p, &objects);
        for threads in [1, 2] {
            let g = ex
                .exploration()
                .threads(threads)
                .force_parallel()
                .run()
                .unwrap();
            assert!(g.complete);
            assert_eq!(g.len(), 1);
            assert_eq!(g.expanded, vec![true]);
            assert_eq!(g.transitions, 0);
        }
    }

    #[test]
    fn auto_thread_count_resolves_positive() {
        let options = ExploreOptions::default();
        assert!(options.resolved_threads() >= 1);
        let pinned = ExploreOptions {
            threads: 3,
            ..ExploreOptions::default()
        };
        assert_eq!(pinned.resolved_threads(), 3);
    }

    #[test]
    fn successors_branch_on_object_nondeterminism() {
        // A 2-SA object with two captured values gives two successor
        // configurations for one propose step.
        #[derive(Debug)]
        struct ProposeOnce;
        impl Protocol for ProposeOnce {
            type LocalState = u8;
            fn num_processes(&self) -> usize {
                3
            }
            fn init(&self, _pid: Pid) -> u8 {
                0
            }
            fn pending_op(&self, pid: Pid, _s: &u8) -> (ObjId, Op) {
                (ObjId(0), Op::Propose(Value::Int(pid.index() as i64)))
            }
            fn on_response(&self, _pid: Pid, _s: &u8, resp: Value) -> Step<u8> {
                Step::Decide(resp)
            }
        }
        let p = ProposeOnce;
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        let c0 = ex.initial_config();
        let c1 = &ex.successors_of(&c0, Pid(0)).unwrap()[0];
        let c2s = ex.successors_of(c1, Pid(1)).unwrap();
        // STATE = {0}; proposing 1 captures it, then either member may be
        // returned: two branches.
        assert_eq!(c2s.len(), 2);
        let decisions: Vec<_> = c2s.iter().map(|c| c.procs[1].decision().unwrap()).collect();
        assert_eq!(decisions, vec![Value::Int(0), Value::Int(1)]);
    }

    #[test]
    fn an_object_beyond_the_table_is_a_step_error() {
        // Process 1 names object 7 of a one-object table, an index past
        // the compact key as well: the run fails, at any thread count.
        #[derive(Debug)]
        struct Stray;
        impl Protocol for Stray {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                2
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(7 * pid.index()), Op::Read)
            }
            fn on_response(&self, _pid: Pid, _s: &(), _resp: Value) -> Step<()> {
                Step::Halt
            }
        }
        let objects = vec![AnyObject::register()];
        let explorer = Explorer::new(&Stray, &objects);
        for threads in [1, 2] {
            let err = explorer
                .exploration()
                .threads(threads)
                .force_parallel()
                .run()
                .expect_err("object 7 does not exist");
            let expected = RuntimeError::ObjIdOutOfRange {
                obj: ObjId(7),
                len: 1,
            };
            assert_eq!(err, expected, "{threads} threads");
        }
    }

    #[test]
    fn stepping_disabled_process_errors() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let c0 = ex.initial_config();
        let c1 = &ex.successors_of(&c0, Pid(0)).unwrap()[0];
        assert!(matches!(
            ex.successors_of(c1, Pid(0)),
            Err(RuntimeError::ProcessNotRunning(Pid(0)))
        ));
        assert!(matches!(
            ex.successors_of(&c0, Pid(7)),
            Err(RuntimeError::PidOutOfRange { .. })
        ));
    }

    #[test]
    fn path_reconstruction_reaches_target() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let g = ex.exploration().run().unwrap();
        for t in g.terminal_indices() {
            let path = g.path_to(t).expect("terminal reachable from root");
            // Replay the path through successors_of and confirm we land on t.
            let mut cur = g.configs[0].clone();
            for e in &path {
                cur = ex
                    .successors_of(&cur, e.pid)
                    .unwrap()
                    .into_iter()
                    .nth(e.outcome)
                    .unwrap();
            }
            assert_eq!(cur, g.configs[t]);
        }
    }

    #[test]
    fn depths_are_bfs_distances() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let depths = g.depths();
        assert_eq!(depths[0], Some(0));
        // Every edge target is at most one deeper than its source.
        for (i, edges) in g.edges.iter().enumerate() {
            for e in edges {
                let (di, dt) = (depths[i].unwrap(), depths[e.target].unwrap());
                assert!(dt <= di + 1);
            }
        }
        // Terminal configurations of this two-step protocol sit at depth 2.
        for t in g.terminal_indices() {
            assert_eq!(depths[t], Some(2));
        }
    }

    #[test]
    fn builder_from_matches_explicit_initial() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let c0 = ex.initial_config();
        let c1 = ex.successors_of(&c0, Pid(0)).unwrap().remove(0);
        let g = ex.exploration().from(c1.clone()).run().unwrap();
        assert_eq!(g.configs[0], c1);
        assert!(g.complete);
    }

    #[test]
    fn on_progress_sees_every_level() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let mut widths = Vec::new();
        let g = ex
            .exploration()
            .threads(1)
            .on_progress(|level| widths.push(level.width))
            .run()
            .unwrap();
        assert_eq!(
            widths,
            g.stats.levels.iter().map(|l| l.width).collect::<Vec<_>>()
        );
        assert_eq!(widths.iter().sum::<usize>(), g.stats.expanded);
    }

    #[test]
    fn builder_forms_produce_the_same_graph() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let reference = ex.exploration().run().unwrap();
        assert!(
            reference.same_structure(&ex.exploration().limits(Limits::default()).run().unwrap())
        );
        assert!(reference.same_structure(&ex.exploration().threads(0).run().unwrap()));
        assert!(reference.same_structure(
            &ex.exploration()
                .from(ex.initial_config())
                .limits(Limits::default())
                .run()
                .unwrap()
        ));
        assert!(reference.same_structure(
            &ex.exploration()
                .from(ex.initial_config())
                .threads(0)
                .run()
                .unwrap()
        ));
    }

    #[test]
    fn step_replays_the_chosen_successor() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let c0 = ex.initial_config();
        let succs = ex.successors_of(&c0, Pid(1)).unwrap();
        for (i, succ) in succs.iter().enumerate() {
            let rec = ex.step(&c0, Pid(1), i).unwrap();
            assert_eq!(&rec.config, succ);
            assert_eq!(rec.obj, ObjId(0));
            assert_eq!(rec.op, Op::Propose(Value::Int(1)));
        }
        assert!(matches!(
            ex.step(&c0, Pid(1), succs.len()),
            Err(RuntimeError::OutcomeOutOfRange { .. })
        ));
        assert!(matches!(
            ex.step(&c0, Pid(9), 0),
            Err(RuntimeError::PidOutOfRange { .. })
        ));
    }

    /// A fully symmetric race: every process proposes the *same* value to a
    /// consensus object and decides the response. All pids are
    /// interchangeable, so the symmetry group is the full S_n.
    #[derive(Debug)]
    struct SymmetricRace {
        n: usize,
    }

    impl Protocol for SymmetricRace {
        type LocalState = ();

        fn num_processes(&self) -> usize {
            self.n
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(Value::Int(7)))
        }
        fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
            Step::Decide(resp)
        }
    }

    impl Symmetry for SymmetricRace {
        fn pid_classes(&self) -> Vec<u32> {
            vec![0; self.n]
        }
    }

    #[test]
    fn symmetric_exploration_shrinks_the_graph() {
        let p = SymmetricRace { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().run().unwrap();
        let reduced = ex.exploration().symmetric().run().unwrap();
        assert!(raw.complete && reduced.complete);
        assert!(!raw.stats.reduced);
        assert!(reduced.stats.reduced);
        assert!(
            reduced.len() < raw.len(),
            "reduction must shrink the graph: raw {} vs reduced {}",
            raw.len(),
            reduced.len()
        );
        // Identical verdict-relevant structure: the same set of terminal
        // decision multisets is reachable in both graphs.
        let outcomes = |g: &ExplorationGraph<()>| -> std::collections::BTreeSet<Vec<Value>> {
            g.terminal_indices()
                .map(|t| {
                    let mut ds: Vec<Value> = g.configs[t]
                        .decisions()
                        .into_iter()
                        .map(|d| d.expect("all decided"))
                        .collect();
                    ds.sort();
                    ds
                })
                .collect()
        };
        assert_eq!(outcomes(&raw), outcomes(&reduced));
    }

    #[test]
    fn reduced_graphs_are_thread_count_independent() {
        let p = SymmetricRace { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let seq = ex.exploration().symmetric().threads(1).run().unwrap();
        for threads in [2, 4] {
            let par = ex
                .exploration()
                .symmetric()
                .threads(threads)
                .force_parallel()
                .run()
                .unwrap();
            assert!(
                seq.same_structure(&par),
                "reduced graph differs at {threads} threads"
            );
        }
    }

    #[test]
    fn trivial_symmetry_changes_nothing() {
        // RaceConsensus proposes pid-dependent values, so declaring all
        // pids distinct yields the trivial group — .symmetric() must be a
        // no-op, bit for bit.
        #[derive(Debug)]
        struct AsymmetricRace(RaceConsensus);
        impl Protocol for AsymmetricRace {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                self.0.num_processes()
            }
            fn init(&self, pid: Pid) {
                self.0.init(pid);
            }
            fn pending_op(&self, pid: Pid, s: &()) -> (ObjId, Op) {
                self.0.pending_op(pid, s)
            }
            fn on_response(&self, pid: Pid, s: &(), resp: Value) -> Step<()> {
                self.0.on_response(pid, s, resp)
            }
        }
        impl Symmetry for AsymmetricRace {
            fn pid_classes(&self) -> Vec<u32> {
                (0..self.num_processes() as u32).collect()
            }
        }
        let p = AsymmetricRace(RaceConsensus { n: 3 });
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().run().unwrap();
        let reduced = ex.exploration().symmetric().run().unwrap();
        assert!(raw.same_structure(&reduced));
        assert!(
            !reduced.stats.reduced,
            "trivial group must disable reduction"
        );
    }

    #[test]
    fn level_stats_carry_their_bfs_index() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let mut seen = Vec::new();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .on_progress(|l| seen.push(l.level))
            .run()
            .unwrap();
        assert_eq!(seen, (0..g.stats.levels.len()).collect::<Vec<_>>());
        for (i, l) in g.stats.levels.iter().enumerate() {
            assert_eq!(l.level, i);
        }
    }

    #[test]
    fn phase_breakdown_is_bounded_by_elapsed() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        // Sequential: the expand phase is exactly the sum of the levels,
        // and nothing is merged.
        let seq = ex.exploration().threads(1).run().unwrap();
        assert!(seq.stats.phases.measured() <= seq.stats.elapsed);
        let levels: Duration = seq.stats.levels.iter().map(|l| l.elapsed).sum();
        assert_eq!(seq.stats.phases.expand, levels);
        assert_eq!(seq.stats.phases.merge, Duration::ZERO);
        // Handed off at the root: the pooled levels carry no clock, the
        // pool's run is expansion, assembly is the merge phase.
        let pooled = ex.exploration().threads(2).force_parallel().run().unwrap();
        assert!(pooled.stats.phases.measured() <= pooled.stats.elapsed);
        assert!(pooled.stats.levels.iter().all(|l| l.elapsed.is_zero()));
        assert!(pooled.stats.phases.expand > Duration::ZERO);
        // Untraced runs never pay for per-call canonicalization clocks.
        assert_eq!(seq.stats.phases.canonicalize, Duration::ZERO);
        assert_eq!(pooled.stats.phases.canonicalize, Duration::ZERO);
    }

    #[test]
    fn engine_counters_are_consistent() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        // Every interner miss created one distinct value.
        assert_eq!(
            g.stats.intern_misses,
            (g.stats.distinct_object_states + g.stats.distinct_proc_statuses) as u64
        );
        assert!(g.stats.memo_hits + g.stats.memo_misses > 0);
        assert!(g.stats.memo_hit_rate() >= 0.0 && g.stats.memo_hit_rate() <= 1.0);
        // Raw exploration never canonicalizes.
        assert_eq!(g.stats.canon_calls, 0);

        let p = SymmetricRace { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let reduced = Explorer::new(&p, &objects)
            .exploration()
            .symmetric()
            .run()
            .unwrap();
        assert!(reduced.stats.canon_calls > 0);
    }

    #[test]
    fn traced_runs_emit_phase_events() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let sink = MemorySink::new();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .trace(Tracer::new(sink.clone()))
            .run()
            .unwrap();
        let names = sink.names();
        assert_eq!(names.first(), Some(&"explore.begin"));
        assert_eq!(names.last(), Some(&"explore.end"));
        assert_eq!(
            names.iter().filter(|n| **n == "level").count(),
            g.stats.levels.len()
        );
        assert!(
            !names.contains(&"explore.recruit"),
            "a graph this small never recruits"
        );
        // The end event embeds the stats document.
        let end = sink.events().pop().unwrap();
        assert_eq!(
            end.fields.get("configs").and_then(Json::as_i64),
            Some(g.stats.configs as i64)
        );
        assert_eq!(
            end.fields.get("transitions").and_then(Json::as_i64),
            Some(g.stats.transitions as i64)
        );
    }

    #[test]
    fn explorer_tracer_is_inherited_and_overridable() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let sink = MemorySink::new();
        let ex = Explorer::new(&p, &objects).with_trace(Tracer::new(sink.clone()));
        assert!(ex.tracer().enabled());
        ex.exploration().run().unwrap();
        let inherited = sink.events().len();
        assert!(inherited > 0, "builder must inherit the explorer's tracer");
        // A per-run override redirects events away from the explorer's sink.
        let override_sink = MemorySink::new();
        ex.exploration()
            .trace(Tracer::new(override_sink.clone()))
            .run()
            .unwrap();
        assert_eq!(sink.events().len(), inherited);
        assert!(!override_sink.events().is_empty());
    }

    #[test]
    fn traced_reduced_runs_clock_canonicalization() {
        use lbsa_support::obs::MemorySink;
        let p = SymmetricRace { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let sink = MemorySink::new();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .symmetric()
            .trace(Tracer::new(sink.clone()))
            .run()
            .unwrap();
        assert!(g.stats.canon_calls > 0);
        assert!(g.stats.phases.canonicalize > Duration::ZERO);
        // Canonicalization happens inside expansion, so its clock is a
        // subset of the expansion phase.
        assert!(g.stats.phases.canonicalize <= g.stats.phases.expand);
    }

    #[test]
    fn dot_export_mentions_every_node_and_edge() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let dot = g.to_dot(|i, c| format!("c{i}:{:?}", c.distinct_decisions()));
        assert!(dot.starts_with("digraph"));
        for i in 0..g.configs.len() {
            assert!(dot.contains(&format!("n{i} [label=")), "missing node n{i}");
        }
        assert_eq!(dot.matches(" -> ").count(), g.transitions);
        assert!(dot.contains("shape=box"), "initial node styled");
        assert!(dot.contains("shape=doublecircle"), "terminal nodes styled");
    }

    #[test]
    fn work_stealing_explores_the_same_state_space() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let det = ex.exploration().threads(1).run().unwrap();
        for threads in [1, 2, 4, 8] {
            let ws = ex
                .exploration()
                .threads(threads)
                .force_parallel()
                .run()
                .unwrap();
            assert!(ws.complete);
            // Canonical renumbering makes the pool's graph the sequential
            // one, byte for byte, stats that describe its shape included.
            assert!(
                det.same_structure(&ws),
                "graph differs at {threads} threads"
            );
            assert_eq!(ws.stats.configs, det.stats.configs);
            assert_eq!(ws.stats.expanded, det.stats.expanded);
            assert_eq!(ws.stats.transitions, det.stats.transitions);
            assert_eq!(ws.stats.dedup_hits, det.stats.dedup_hits);
            assert_eq!(ws.stats.peak_frontier, det.stats.peak_frontier);
            assert_eq!(ws.stats.depth(), det.stats.depth());
            assert_eq!(ws.stats.threads, threads);
            // One thread has no helpers to recruit.
            assert_eq!(ws.stats.work_stealing(), threads > 1);
            if threads > 1 {
                // Every task is processed off a deque, either locally or
                // stolen.
                assert_eq!(
                    ws.stats.local_hits() + ws.stats.steals(),
                    ws.stats.configs as u64
                );
            }
        }
    }

    #[test]
    fn work_stealing_reduced_matches_deterministic_reduced() {
        let p = SymmetricRace { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let det = ex.exploration().symmetric().threads(1).run().unwrap();
        for threads in [1, 4] {
            let ws = ex
                .exploration()
                .symmetric()
                .threads(threads)
                .force_parallel()
                .run()
                .unwrap();
            assert!(ws.complete);
            assert!(ws.stats.reduced);
            assert!(det.same_structure(&ws));
            // Same orbit representatives, so the canonicalization effort is
            // accounted the same way: every transition either patched a
            // cached canonical form or recomputed one from scratch.
            assert_eq!(
                ws.stats.canon_patches + ws.stats.canon_full,
                ws.stats.transitions as u64
            );
        }
    }

    #[test]
    fn work_stealing_respects_the_expansion_budget() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        for budget in [1, 3, 7] {
            let seq = ex
                .exploration()
                .max_configs(budget)
                .threads(1)
                .run()
                .unwrap();
            let ws = ex
                .exploration()
                .max_configs(budget)
                .threads(4)
                .force_parallel()
                .run()
                .unwrap();
            assert!(!ws.complete, "budget {budget} cannot finish this space");
            // The pool runs past the budget, so the run is redone
            // sequentially: the budget keeps meaning a BFS prefix.
            assert!(seq.same_structure(&ws), "budget {budget}");
            let recruit = ws.stats.recruit.expect("forced runs recruit");
            assert!(recruit.rerun, "budget {budget} must fall back");
            assert!(!ws.stats.work_stealing());
            assert_eq!(
                ws.expanded.iter().filter(|&&e| e).count(),
                budget,
                "budget {budget} spent exactly"
            );
        }
    }

    #[test]
    fn work_stealing_handles_cyclic_state_spaces() {
        let p = ForeverProposer;
        let objects = vec![AnyObject::strong_sa()];
        let ws = Explorer::new(&p, &objects)
            .exploration()
            .threads(4)
            .force_parallel()
            .run()
            .unwrap();
        assert!(ws.complete);
        assert!(ws.has_cycle());
        let det = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(det.same_structure(&ws));
    }

    #[test]
    fn work_stealing_stats_are_consistent_with_the_graph() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ws = Explorer::new(&p, &objects)
            .exploration()
            .threads(2)
            .force_parallel()
            .run()
            .unwrap();
        assert!(ws.complete);
        assert_eq!(ws.stats.configs, ws.len());
        assert_eq!(ws.stats.transitions, ws.transitions);
        assert_eq!(
            ws.stats.expanded,
            ws.expanded.iter().filter(|&&e| e).count()
        );
        assert_eq!(ws.stats.dedup_hits, ws.transitions - (ws.len() - 1));
        assert!(ws.stats.peak_frontier >= 1);
        assert_eq!(
            ws.stats.levels.iter().map(|l| l.width).sum::<usize>(),
            ws.stats.expanded
        );
        assert_eq!(
            ws.stats.levels.iter().map(|l| l.transitions).sum::<usize>(),
            ws.transitions
        );
        assert!(ws.stats.summary().contains("work-stealing"));
    }

    #[test]
    fn work_stealing_worker_stats_reconcile_with_aggregates() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let registry = Registry::new();
        let ws = Explorer::new(&p, &objects)
            .exploration()
            .threads(4)
            .force_parallel()
            .registry(registry.clone())
            .run()
            .unwrap();
        let stats = &ws.stats;
        assert_eq!(stats.workers.len(), 4, "one row per worker");
        for (i, w) in stats.workers.iter().enumerate() {
            assert_eq!(w.worker, i, "rows indexed by worker id");
            assert!(
                w.busy.is_zero(),
                "per-task timing needs a tracer; untraced busy must stay zero"
            );
        }
        let sum = |f: fn(&WorkerStats) -> u64| stats.workers.iter().map(f).sum::<u64>();
        assert_eq!(
            stats.workers.iter().map(|w| w.expanded).sum::<usize>(),
            stats.expanded
        );
        assert_eq!(
            stats.workers.iter().map(|w| w.transitions).sum::<usize>(),
            stats.transitions
        );
        assert_eq!(sum(|w| w.steals), stats.steals());
        assert_eq!(sum(|w| w.steal_fails), stats.steal_fails());
        assert_eq!(sum(|w| w.local_hits), stats.local_hits());
        assert_eq!(
            registry.counter("ws.steals").get(),
            stats.steals(),
            "the live steal counter agrees with the workers' records"
        );
        assert!(stats.worker_imbalance() >= 1.0);
        // Untraced runs record no per-task or steal latency distributions.
        assert!(stats.hist.task_expand.is_empty());
        assert!(stats.hist.steal.is_empty());
    }

    #[test]
    fn traced_work_stealing_emits_worker_scoped_events() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let sink = MemorySink::new();
        let ws = Explorer::new(&p, &objects)
            .exploration()
            .threads(4)
            .force_parallel()
            .trace(Tracer::new(sink.clone()))
            .run()
            .unwrap();
        let names = sink.names();
        assert_eq!(
            names.iter().filter(|n| **n == "ws.done").count(),
            4,
            "every worker signs off with ws.done"
        );
        assert!(
            names.contains(&"ws.expand"),
            "at least one progress beat from an active worker"
        );
        let events = sink.events();
        for e in events.iter().filter(|e| e.name.starts_with("ws.")) {
            assert!(
                e.fields.get("worker").and_then(Json::as_i64).is_some(),
                "{}: worker-scoped events carry their worker id",
                e.name
            );
        }
        for e in events.iter().filter(|e| e.name == "ws.steal") {
            let outcome = e.fields.get("outcome").and_then(Json::as_str);
            match outcome {
                Some("hit") => assert!(
                    e.fields.get("victim").and_then(Json::as_i64).is_some(),
                    "steal hits name their victim"
                ),
                Some("miss") => assert!(
                    e.fields.get("spins").and_then(Json::as_i64).is_some(),
                    "steal misses carry the spin count"
                ),
                other => panic!("unexpected steal outcome {other:?}"),
            }
        }
        // Traced runs populate the per-task latency distribution: one
        // sample per expanded task.
        let stats = &ws.stats;
        assert_eq!(stats.hist.task_expand.count(), stats.expanded as u64);
        assert_eq!(
            stats.hist.steal.count(),
            stats.steals(),
            "every successful steal records its latency"
        );
        assert!(
            stats
                .workers
                .iter()
                .map(|w| duration_ns(w.busy))
                .sum::<u64>()
                > 0,
            "traced workers measure their expansion time"
        );
        let doc = stats.to_json();
        assert!(doc.get("workers").is_some());
        assert!(
            doc.get("hist").and_then(|h| h.get("task_expand")).is_some(),
            "histograms reach the serialized metrics"
        );
    }

    #[test]
    fn sequential_runs_record_one_histogram_sample_per_level() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert_eq!(
            g.stats.hist.level_expand.count(),
            g.stats.levels.len() as u64,
            "per-level expand histogram is always on"
        );
        assert!(
            g.stats.workers.is_empty(),
            "sequential runs have no per-worker breakdown"
        );
        // A run handed off at the root expands no level sequentially.
        let pooled = Explorer::new(&p, &objects)
            .exploration()
            .threads(2)
            .force_parallel()
            .run()
            .unwrap();
        assert!(pooled.stats.hist.level_expand.is_empty());
        assert_eq!(pooled.stats.workers.len(), 2);
    }

    #[test]
    fn forced_hand_offs_emit_one_recruit_event() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let sink = MemorySink::new();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .threads(2)
            .force_parallel()
            .trace(Tracer::new(sink.clone()))
            .run()
            .unwrap();
        let names = sink.names();
        assert_eq!(names.iter().filter(|n| **n == "explore.recruit").count(), 1);
        // Every level is still reported once, by the canonical pass.
        assert_eq!(
            names.iter().filter(|n| **n == "level").count(),
            g.stats.levels.len()
        );
        let recruit = sink
            .events()
            .into_iter()
            .find(|e| e.name == "explore.recruit")
            .expect("recruit event");
        assert_eq!(recruit.fields.get("level").and_then(Json::as_i64), Some(0));
        assert_eq!(
            recruit.fields.get("helpers").and_then(Json::as_i64),
            Some(1)
        );
    }
}
