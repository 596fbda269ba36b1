//! Spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from outside the program, kept in memory, and written
//! to `bench/out/trace-<workload>.jsonl` after the window. One transaction
//! in `every` is traced, and recording stops at a fixed span budget, so a
//! traced run of the fastest workload holds megabytes, not gigabytes. The
//! traced run is never the source of an end-to-end number.

use crate::stats;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Spans one generator thread may hold.
const SPAN_BUDGET: usize = 120_000;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub txn: u64,
}

/// One generator thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    every: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder tracing one transaction in `every`; `every == 0` is off.
    pub fn new(epoch: Instant, every: u64) -> Tracer {
        Tracer {
            epoch,
            every,
            spans: if every == 0 {
                Vec::new()
            } else {
                Vec::with_capacity(SPAN_BUDGET)
            },
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), 0)
    }

    /// Whether transaction number `seq` of this thread is traced.
    #[inline]
    pub fn samples(&self, seq: u64) -> bool {
        self.every != 0 && seq.is_multiple_of(self.every) && self.spans.len() + 16 < SPAN_BUDGET
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::close`] and as a parent.
    pub fn open(&mut self, name: &'static str, parent: u32, txn: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            txn,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time one synchronous call as a child span when `traced`.
    #[inline]
    pub fn call<R>(
        &mut self,
        traced: bool,
        name: &'static str,
        parent: u32,
        txn: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !traced {
            return f();
        }
        let id = self.open(name, parent, txn);
        let result = f();
        self.close(id);
        result
    }
}

/// Time one future as a child span when `traced`: the span covers every
/// suspension of the future, which is what a session observes.
pub async fn call_async<R>(
    tracer: &std::cell::RefCell<Tracer>,
    traced: bool,
    name: &'static str,
    parent: u32,
    txn: u64,
    fut: impl std::future::Future<Output = R>,
) -> R {
    if !traced {
        return fut.await;
    }
    let id = tracer.borrow_mut().open(name, parent, txn);
    let result = fut.await;
    tracer.borrow_mut().close(id);
    result
}

/// The root span every traced transaction opens.
pub const TXN_SPAN: &str = "bench.txn";

/// Median span length per name, in ns, plus the median self time of the
/// root spans (length minus the part their children cover).
pub struct TraceSummary {
    pub p50_ns: HashMap<&'static str, f64>,
    pub counts: HashMap<&'static str, usize>,
    pub txn_self_p50_ns: f64,
    pub spans: usize,
}

pub fn summarise(threads: &[Tracer]) -> TraceSummary {
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut self_times = Vec::new();
    let mut spans = 0;
    for t in threads {
        spans += t.spans.len();
        let mut child_time = vec![0u64; t.spans.len()];
        for s in &t.spans {
            by_name
                .entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64);
            if s.parent != NO_PARENT {
                child_time[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in t.spans.iter().zip(&child_time) {
            if s.name == TXN_SPAN {
                self_times.push((s.end_ns - s.start_ns).saturating_sub(*covered) as f64);
            }
        }
    }
    TraceSummary {
        counts: by_name.iter().map(|(k, v)| (*k, v.len())).collect(),
        p50_ns: by_name
            .iter()
            .map(|(k, v)| (*k, stats::median(v)))
            .collect(),
        txn_self_p50_ns: stats::median(&self_times),
        spans,
    }
}

/// Write every span as one JSON line: `{name,start,end,parent,txn}` plus the
/// recording thread and the span's own id (parents refer to ids of the same
/// thread; -1 is "no parent"). Times are ns since the run's epoch.
pub fn write_jsonl(path: &std::path::Path, threads: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, t) in threads.iter().enumerate() {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"txn\":{},\"thread\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.txn, thread, id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_length_minus_children() {
        let mut t = Tracer::new(Instant::now(), 1);
        let root = t.open(TXN_SPAN, NO_PARENT, 0);
        t.call(true, "child", root, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let (root_len, child_len) = {
            let s = &t.spans;
            (s[0].end_ns - s[0].start_ns, s[1].end_ns - s[1].start_ns)
        };
        assert!(child_len >= 2_000_000 && root_len >= child_len);
        let sum = summarise(&[t]);
        assert_eq!(sum.txn_self_p50_ns, (root_len - child_len) as f64);
        assert_eq!(sum.counts["child"], 1);
    }

    #[test]
    fn sampling_and_off_switch() {
        let t = Tracer::new(Instant::now(), 4);
        assert!(t.samples(0) && !t.samples(1) && t.samples(8));
        assert!(!Tracer::off().samples(0));
    }
}
