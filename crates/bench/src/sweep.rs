//! Deterministic parallel runner for the experiment matrices.
//!
//! Every experiment in this crate is a list of independent cells
//! ([`tnpu_core::RunSpec`]s or equivalent jobs). [`run_ordered`] executes
//! such a list on a pool of scoped worker threads and returns the results
//! **in input order**, so downstream aggregation sees exactly what a
//! serial run would have produced:
//!
//! * Workers pull jobs from a shared atomic cursor — scheduling order is
//!   racy and irrelevant, because each job's output depends only on its
//!   spec (seeds derive from what is simulated, never from which worker
//!   ran it — see `tnpu_core::runspec`).
//! * Results are scattered back into a slot per input index before the
//!   pool returns, so `experiments -- all` is byte-identical at any
//!   thread count (enforced by `tests/determinism.rs`).
//!
//! Thread-count resolution (first match wins): an explicit
//! [`set_threads`] call (the binary's `--threads N` flag), the
//! `TNPU_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! Each pool run also produces a [`PoolReport`] with per-job wall times
//! and the aggregate speedup; the harness collects them in a session
//! registry ([`record`] / [`session_summary`]) and the binary prints the
//! summary to **stderr** — timing is nondeterministic and must never
//! touch the byte-stable stdout.
//!
//! Timing caveat: a job's wall time includes any time its worker spends
//! descheduled, so when the pool is oversubscribed (more threads than
//! cores) the serial-equivalent sum — and therefore the reported speedup
//! — overstates the benefit. At the default width (= cores) it is an
//! honest estimate of what a serial run would have cost.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static THREAD_OVERRIDE: OnceLock<usize> = OnceLock::new();

/// Pin the pool width for the rest of the process (the `--threads N`
/// flag). Returns `false` if a width was already pinned (first call wins,
/// like the `OnceLock` it is).
pub fn set_threads(n: usize) -> bool {
    THREAD_OVERRIDE.set(n.max(1)).is_ok()
}

/// The pool width [`run_ordered`] uses: [`set_threads`] override, else
/// `TNPU_THREADS`, else the machine's available parallelism.
#[must_use]
pub fn threads() -> usize {
    if let Some(&n) = THREAD_OVERRIDE.get() {
        return n;
    }
    if let Some(n) = std::env::var("TNPU_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Wall time of one job, under its label.
#[derive(Debug, Clone)]
pub struct JobTiming {
    /// The job's display label (e.g. `df/small/tnpu/1`).
    pub label: String,
    /// Time the job spent executing on its worker.
    pub wall: Duration,
}

/// Timing record of one pool run.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Name of the experiment the pool ran.
    pub name: String,
    /// Worker count actually used.
    pub threads: usize,
    /// Wall time of the whole pool (submit to last join).
    pub wall: Duration,
    /// Per-job timings, in input (= output) order.
    pub jobs: Vec<JobTiming>,
    /// Experiment cells the pool computed. Equal to `jobs.len()` unless
    /// the runner batched several cells into one job (the trace-grouped
    /// runner in [`crate::traced`] does), in which case it exceeds it.
    pub cells: usize,
}

impl PoolReport {
    /// Sum of all per-job wall times — what a serial run would cost.
    #[must_use]
    pub fn serial(&self) -> Duration {
        self.jobs.iter().map(|j| j.wall).sum()
    }

    /// Serial-equivalent time over pool wall time.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.serial().as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Render the per-job wall times and the aggregate speedup line.
    #[must_use]
    pub fn render(&self) -> String {
        let shape = if self.cells == self.jobs.len() {
            format!("{} jobs", self.jobs.len())
        } else {
            format!("{} cells in {} jobs", self.cells, self.jobs.len())
        };
        let mut out = format!(
            "pool '{}': {shape} on {} thread(s): wall {:.3} s, serial {:.3} s, speedup {:.2}x\n",
            self.name,
            self.threads,
            self.wall.as_secs_f64(),
            self.serial().as_secs_f64(),
            self.speedup(),
        );
        for job in &self.jobs {
            out += &format!(
                "  {:40} {:9.3} ms\n",
                job.label,
                job.wall.as_secs_f64() * 1e3
            );
        }
        out
    }
}

/// Run `jobs` on `threads` workers; results come back in input order.
///
/// `label` names each job for the timing report; `f` executes it. Jobs
/// are claimed from an atomic cursor, so long jobs do not convoy short
/// ones; with `threads <= 1` everything runs inline on the caller.
///
/// # Panics
///
/// Propagates a panic from any job.
#[must_use]
pub fn run_ordered_with<T, R, L, F>(
    threads: usize,
    name: &str,
    jobs: &[T],
    label: L,
    f: F,
) -> (Vec<R>, PoolReport)
where
    T: Sync,
    R: Send,
    L: Fn(&T) -> String,
    F: Fn(&T) -> R + Sync,
{
    let width = threads.max(1).min(jobs.len().max(1));
    let pool_start = Instant::now();
    let mut slots: Vec<Option<(R, Duration)>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);

    if width <= 1 {
        for (slot, job) in slots.iter_mut().zip(jobs) {
            let start = Instant::now();
            let result = f(job);
            *slot = Some((result, start.elapsed()));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let batches: Vec<Vec<(usize, R, Duration)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..width)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            let start = Instant::now();
                            let result = f(job);
                            mine.push((i, result, start.elapsed()));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        for (i, result, wall) in batches.into_iter().flatten() {
            slots[i] = Some((result, wall));
        }
    }

    let wall = pool_start.elapsed();
    let mut results = Vec::with_capacity(jobs.len());
    let mut timings = Vec::with_capacity(jobs.len());
    for (slot, job) in slots.into_iter().zip(jobs) {
        let (result, job_wall) = slot.expect("every job ran exactly once");
        results.push(result);
        timings.push(JobTiming {
            label: label(job),
            wall: job_wall,
        });
    }
    let cells = timings.len();
    (
        results,
        PoolReport {
            name: name.to_owned(),
            threads: width,
            wall,
            jobs: timings,
            cells,
        },
    )
}

/// [`run_ordered_with`] at the session pool width ([`threads`]), recording
/// the timing report in the session registry for the end-of-run summary.
#[must_use]
pub fn run_ordered<T, R, L, F>(name: &str, jobs: &[T], label: L, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    L: Fn(&T) -> String,
    F: Fn(&T) -> R + Sync,
{
    let (results, report) = run_ordered_with(threads(), name, jobs, label, f);
    record(report);
    results
}

static SESSION: Mutex<Vec<PoolReport>> = Mutex::new(Vec::new());

/// Append a pool's timing report to the session registry.
pub fn record(report: PoolReport) {
    SESSION.lock().expect("session registry").push(report);
}

/// Drain the session registry.
#[must_use]
pub fn take_session() -> Vec<PoolReport> {
    std::mem::take(&mut *SESSION.lock().expect("session registry"))
}

/// Render every pool's timings plus the cross-pool aggregate speedup.
/// `None` if `pools` is empty. Print this to stderr only: job durations
/// vary run to run, and stdout must stay byte-identical at any thread
/// count.
#[must_use]
pub fn summarize(pools: &[PoolReport]) -> Option<String> {
    if pools.is_empty() {
        return None;
    }
    let mut out = String::from("== timing summary (nondeterministic; stderr only) ==\n");
    let mut wall = Duration::ZERO;
    let mut serial = Duration::ZERO;
    let mut jobs = 0;
    let mut cells = 0;
    for pool in pools {
        out += &pool.render();
        wall += pool.wall;
        serial += pool.serial();
        jobs += pool.jobs.len();
        cells += pool.cells;
    }
    out += &format!(
        "total: {cells} cells as {jobs} jobs in {} pool(s): wall {:.3} s, serial-equivalent {:.3} s, aggregate speedup {:.2}x\n",
        pools.len(),
        wall.as_secs_f64(),
        serial.as_secs_f64(),
        serial.as_secs_f64() / wall.as_secs_f64().max(1e-9),
    );
    Some(out)
}

/// Drain the session registry and render it (see [`summarize`]).
#[must_use]
pub fn session_summary() -> Option<String> {
    summarize(&take_session())
}

/// Drain the session registry, print its timing summary to stderr and,
/// given a path, append its benchmark record (labelled `label`) to the
/// JSON array there — the end of every harness binary's run. Nothing goes
/// to stdout, which must stay byte-identical at any thread count.
///
/// # Errors
///
/// Any I/O error appending the record, with the path in its message.
pub fn finish_session(label: &str, bench_json: Option<&std::path::Path>) -> std::io::Result<()> {
    let pools = take_session();
    if let Some(summary) = summarize(&pools) {
        eprint!("{summary}");
    }
    if let Some(path) = bench_json {
        append_bench_json(path, &bench_record_json(label, threads(), &pools)).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("cannot write benchmark record to {}: {e}", path.display()),
            )
        })?;
        eprintln!("benchmark record appended to {}", path.display());
    }
    Ok(())
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// the vendored tree has no JSON crate, and the benchmark records only
/// need scalars and flat objects.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out
}

/// One benchmark record — the per-pool and total wall seconds of a
/// harness run — as a JSON object, for the perf-trajectory log
/// (`experiments --bench-json PATH`).
#[must_use]
pub fn bench_record_json(label: &str, threads: usize, pools: &[PoolReport]) -> String {
    let mut wall = Duration::ZERO;
    let mut serial = Duration::ZERO;
    let mut jobs = 0;
    let mut cells = 0;
    let mut entries = String::new();
    for (i, pool) in pools.iter().enumerate() {
        if i > 0 {
            entries += ",\n";
        }
        entries += &format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"jobs\": {}, \"cells\": {}, \"wall_s\": {:.6}, \"serial_s\": {:.6}}}",
            json_escape(&pool.name),
            pool.threads,
            pool.jobs.len(),
            pool.cells,
            pool.wall.as_secs_f64(),
            pool.serial().as_secs_f64(),
        );
        wall += pool.wall;
        serial += pool.serial();
        jobs += pool.jobs.len();
        cells += pool.cells;
    }
    format!(
        "{{\n  \"label\": \"{}\",\n  \"threads\": {threads},\n  \"pools\": [\n{entries}\n  ],\n  \"total_jobs\": {jobs},\n  \"total_cells\": {cells},\n  \"total_wall_s\": {:.6},\n  \"total_serial_s\": {:.6}\n}}",
        json_escape(label),
        wall.as_secs_f64(),
        serial.as_secs_f64(),
    )
}

/// Append `record` (a JSON object) to the JSON array in the file at
/// `path`, creating the file as a one-element array if it does not exist
/// or does not already end in `]`. Successive harness runs therefore grow
/// a trajectory of timing records.
///
/// # Errors
///
/// Propagates any I/O error reading or writing `path`.
pub fn append_bench_json(path: &std::path::Path, record: &str) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let trimmed = existing.trim_end();
    let out = match trimmed.strip_suffix(']') {
        Some(head) if !trimmed.is_empty() => {
            let head = head.trim_end();
            let head = head.strip_suffix('[').map_or_else(
                || format!("{head},\n"),         // non-empty array: separate records
                |opened| format!("{opened}[\n"), // empty array: first record
            );
            format!("{head}{record}\n]\n")
        }
        _ => format!("[\n{record}\n]\n"),
    };
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_pool(threads: usize, n: usize) -> (Vec<usize>, PoolReport) {
        let jobs: Vec<usize> = (0..n).collect();
        run_ordered_with(threads, "squares", &jobs, |j| format!("job{j}"), |&j| j * j)
    }

    #[test]
    fn results_come_back_in_input_order() {
        for threads in [1, 2, 7, 64] {
            let (results, report) = square_pool(threads, 23);
            let expected: Vec<usize> = (0..23).map(|j| j * j).collect();
            assert_eq!(results, expected, "threads={threads}");
            assert_eq!(report.jobs.len(), 23);
            assert_eq!(report.jobs[5].label, "job5");
        }
    }

    #[test]
    fn pool_width_is_clamped_to_job_count() {
        let (_, report) = square_pool(64, 3);
        assert_eq!(report.threads, 3);
        let (results, report) = square_pool(4, 0);
        assert!(results.is_empty());
        assert_eq!(report.threads, 1);
        assert!(report.jobs.is_empty());
    }

    fn demo_report() -> PoolReport {
        PoolReport {
            name: "demo".to_owned(),
            threads: 2,
            wall: Duration::from_millis(50),
            jobs: vec![
                JobTiming {
                    label: "a".to_owned(),
                    wall: Duration::from_millis(60),
                },
                JobTiming {
                    label: "b".to_owned(),
                    wall: Duration::from_millis(40),
                },
            ],
            cells: 2,
        }
    }

    #[test]
    fn report_renders_jobs_and_speedup() {
        let report = demo_report();
        assert_eq!(report.serial(), Duration::from_millis(100));
        assert!((report.speedup() - 2.0).abs() < 1e-9);
        let rendered = report.render();
        assert!(rendered.contains("pool 'demo': 2 jobs on 2 thread(s)"));
        assert!(rendered.contains("speedup 2.00x"));
        assert!(rendered.contains("  a"));
        assert!(rendered.contains("  b"));
    }

    #[test]
    fn report_renders_batched_cells() {
        let mut report = demo_report();
        report.cells = 7;
        assert!(report
            .render()
            .contains("pool 'demo': 7 cells in 2 jobs on 2 thread(s)"));
        assert!(summarize(&[report])
            .expect("one pool")
            .contains("7 cells as 2 jobs in 1 pool(s)"));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn bench_record_is_wellformed_json_by_inspection() {
        let record = bench_record_json("all --quick", 3, &[demo_report()]);
        assert!(record.starts_with("{\n  \"label\": \"all --quick\","));
        assert!(record.contains("\"threads\": 3,"));
        assert!(record.contains(
            "{\"name\": \"demo\", \"threads\": 2, \"jobs\": 2, \"cells\": 2, \"wall_s\": 0.050000, \"serial_s\": 0.100000}"
        ));
        assert!(record.contains("\"total_jobs\": 2,"));
        assert!(record.contains("\"total_wall_s\": 0.050000,"));
        assert!(record.ends_with("}"));
        // Escaping: a label with quotes must not break the quoting.
        let tricky = bench_record_json("say \"hi\"\\", 1, &[]);
        assert!(tricky.contains("\"label\": \"say \\\"hi\\\"\\\\\","));
    }

    #[test]
    fn bench_json_appends_records_into_one_array() {
        let dir = std::env::temp_dir().join(format!("tnpu-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_sweep.json");
        let _ = std::fs::remove_file(&path);
        append_bench_json(&path, "{\"a\": 1}").expect("first write");
        append_bench_json(&path, "{\"b\": 2}").expect("second write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, "[\n{\"a\": 1},\n{\"b\": 2}\n]\n");
        // Appending to a hand-seeded empty array also works.
        std::fs::write(&path, "[]\n").expect("seed");
        append_bench_json(&path, "{\"c\": 3}").expect("append to empty");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, "[\n{\"c\": 3}\n]\n");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn worker_panics_propagate() {
        let jobs = vec![0u32, 1, 2, 3];
        let caught = std::panic::catch_unwind(|| {
            run_ordered_with(
                2,
                "boom",
                &jobs,
                |j| j.to_string(),
                |&j| {
                    assert!(j != 2, "job 2 explodes");
                    j
                },
            )
        });
        assert!(caught.is_err());
    }
}
