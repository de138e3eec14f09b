//! Line-oriented JSON output and the in-memory span recorder.
//!
//! The harness talks to `run.py` through stdout: every record is one JSON
//! object on one line. Spans are kept in memory and printed only when the
//! run ends, so recording one costs two clock reads and a `Vec` push.

use std::fmt::Write as _;
use std::time::Instant;

/// One JSON object, built field by field and printed as a single line.
pub struct Line(String);

impl Line {
    pub fn new() -> Self {
        Line(String::from("{"))
    }

    fn key(&mut self, key: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        self.0.push('"');
        escape_into(&mut self.0, key);
        self.0.push_str("\":");
    }

    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.0.push('"');
        escape_into(&mut self.0, value);
        self.0.push('"');
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.0, "{value:?}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.0.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn opt_int(self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(v) => self.int(key, v),
            None => {
                let mut line = self;
                line.key(key);
                line.0.push_str("null");
                line
            }
        }
    }

    pub fn emit(mut self) {
        self.0.push('}');
        println!("{}", self.0);
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// Prints one per-layer metric record.
pub fn metric(name: &str, value: f64, unit: &str) {
    Line::new()
        .str("metric", name)
        .num("value", value)
        .str("unit", unit)
        .emit();
}

struct Span {
    op: u64,
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// An id returned by [`Spans::begin`]; `None` when recording is off.
pub type SpanId = Option<usize>;

/// Spans around the harness's calls into each layer: name, start, end,
/// parent, and the op they belong to. Disabled recorders store nothing.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new op: spans begun from now on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            count: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes span `id`, recording `count` units of work done inside it.
    pub fn end(&mut self, id: SpanId, count: u64) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.count = count;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Prints every recorded span, one line each.
    pub fn emit(&self) {
        for (id, s) in self.spans.iter().enumerate() {
            Line::new()
                .int("span", id as u64)
                .int("op", s.op)
                .opt_int("parent", s.parent.map(|p| p as u64))
                .str("name", &s.name)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .int("count", s.count)
                .emit();
        }
    }
}

/// Resets this process's peak resident set size to its current size, so
/// the next [`peak_rss_mb`] covers only what runs in between. Free heap
/// pages are handed back first: otherwise memory that earlier rounds freed
/// but the allocator kept would count toward every later round. Where the
/// kernel refuses the reset, the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
    // free pages of every arena to the kernel; it is safe to call at any
    // time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
